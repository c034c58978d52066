/**
 * @file
 * One-call driver: compile a Mul-T program with a chosen future
 * strategy, boot an APRIL machine, run to completion, return metrics.
 * Shared by the benchmark harnesses, the examples and the tests.
 * makeMachine() is the one place a DriverOptions becomes a machine;
 * the `april` CLI builds its machines through it too.
 */

#ifndef APRIL_MACHINE_DRIVER_HH
#define APRIL_MACHINE_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/alewife_machine.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"
#include "mult/compiler.hh"
#include "runtime/runtime.hh"

namespace april
{

/**
 * Configuration of a driver run. The ObsParams planes come back in
 * DriverResult::outputs, one RunOutputs string per plane: trace
 * (traceEvents), cohTrace (cohTrace, alewife only), taskTrace
 * (taskTrace), profile (profile) and series (statsInterval).
 */
struct DriverOptions : ObsParams
{
    mult::CompileOptions compile;
    uint32_t nodes = 1;
    uint32_t wordsPerNode = 1u << 21;
    ProcParams proc;            ///< nodeId is overwritten per node
    uint64_t maxCycles = 2'000'000'000;
    uint64_t seed = 12345;
    bool cycleSkip = true;      ///< fast-forward fully idle cycles
    /// Host worker threads (AlewifeMachine shards; the perfect-memory
    /// machine always runs serially). 0 means "use the APRIL_THREADS
    /// environment variable, else 1" — resolved by hostThreadCount().
    uint32_t hostThreads = 0;
    /// Run on the full ALEWIFE machine (caches + directories + 2-D
    /// mesh) instead of perfect shared memory. `nodes` must then equal
    /// netRadix^2.
    bool alewife = false;
    /// Mesh radix when alewife is on; 0 derives it from `nodes`
    /// (which must be a perfect square).
    int netRadix = 0;
    /// Cache and directory configuration, the directory scheme
    /// included, when alewife is on.
    coh::ControllerParams controller;

    /** The Encore Multimax baseline configuration (Section 7). */
    static DriverOptions
    encore(mult::CompileOptions::FutureMode fm, uint32_t nodes)
    {
        DriverOptions o;
        o.compile.futures = fm;
        o.compile.softwareChecks = true;
        o.nodes = nodes;
        // Bus-based test&set is a locked read-modify-write.
        o.proc.tasExtraCycles = 9;
        return o;
    }

    /** An APRIL configuration with the given future strategy. */
    static DriverOptions
    april(mult::CompileOptions::FutureMode fm, uint32_t nodes)
    {
        DriverOptions o;
        o.compile.futures = fm;
        o.nodes = nodes;
        return o;
    }
};

/** Results and run-time counters of a completed run. */
struct DriverResult
{
    Word result = 0;            ///< tagged value returned by main
    uint64_t cycles = 0;
    uint64_t instructions = 0;  ///< completed instructions, all nodes
    std::vector<Word> console;  ///< println output
    uint64_t steals = 0;
    uint64_t spawns = 0;
    uint64_t blocks = 0;
    uint64_t resumes = 0;
    /// Stats JSON, cycle breakdown and each plane's report.
    RunOutputs outputs;
};

/** Points a raw (runtime-free) program's cores at their entries and
 *  seeds its memory, in place of the Mul-T run-time system's boot. */
using MachineBoot = std::function<void(Machine &, const Program &)>;

/**
 * Build the machine @p options describe (ALEWIFE or perfect memory)
 * for @p prog, which must outlive it. With @p boot the run-time
 * system is not booted and @p boot runs on the new machine instead.
 * Raises FatalError on a configuration it cannot build.
 */
std::unique_ptr<Machine> makeMachine(const Program &prog,
                                     const DriverOptions &options,
                                     const MachineBoot &boot = {});

/**
 * Compile and run @p source under @p options.
 * Raises FatalError if the program does not halt within maxCycles.
 */
DriverResult runMultProgram(const std::string &source,
                            const DriverOptions &options);

/**
 * Resolve a host-thread request: a non-zero @p requested wins;
 * otherwise the APRIL_THREADS environment variable (clamped to
 * [1, 64]; unparsable values fall through); otherwise 1.
 */
uint32_t hostThreadCount(uint32_t requested);

} // namespace april

#endif // APRIL_MACHINE_DRIVER_HH
