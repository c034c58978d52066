/**
 * @file
 * Workload specs: the one parser for the "name[:args]" strings the
 * `april` CLI and the examples run. A spec names a program and
 * implies the machine it runs on:
 *
 *   fib[:n]                 Table 3 Mul-T programs (defaults fib:12,
 *   factor[:lo:hi]          factor:1000:1040, queens:6, speech:8:12),
 *   queens[:n]              lazy futures, on a 2x2 ALEWIFE with the
 *   speech[:layers:width]   Table 4 64 KB cache
 *   coherent16[:iters]      the contended f/e-locked counter loop
 *                           (default 200) on a 4x4 ALEWIFE
 *   wide[:nodes]            the wide-sharing storm (default 64) on a
 *                           square mesh
 *
 * The two raw loops run without the Mul-T run-time system on small
 * (64-line) caches; they exist to drive the coherence protocol, so
 * they need the ALEWIFE machine.
 */

#ifndef APRIL_MACHINE_WORKLOAD_HH
#define APRIL_MACHINE_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>

#include "machine/driver.hh"

namespace april::workloads
{

/** A runnable workload: image, machine shape, boot and oracle. */
struct Workload
{
    std::string name;           ///< "fib", "coherent16", ...
    Program prog;
    /// The machine shape (ALEWIFE, nodes, mesh, cache, memory);
    /// callers overlay their own run options before makeMachine().
    DriverOptions options;
    /// Raw workloads only: replaces the run-time system's boot.
    MachineBoot boot;
    /// The answer the run must produce.
    int64_t expected = 0;
    /// Read the run's answer off a halted machine: the last console
    /// word, or coherent16's counter read coherently.
    std::function<int64_t(Machine &)> answer;
};

/**
 * Parse @p spec and build its workload; Mul-T programs are compiled
 * with @p runtime. Omitted trailing arguments take their defaults.
 * Raises FatalError for an unknown name, an extra argument, any
 * argument that is not a positive decimal, an empty factor range or
 * a wide node count that is not a square of at least 2x2.
 */
Workload fromSpec(const std::string &spec,
                  const rt::RuntimeOptions &runtime = {});

} // namespace april::workloads

#endif // APRIL_MACHINE_WORKLOAD_HH
