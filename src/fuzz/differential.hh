/**
 * @file
 * Differential execution of generated APRIL programs.
 *
 * Each case runs on the ALEWIFE machine with cycle-skipping on (the
 * production fast path) and off (the plain per-cycle loop) and, when
 * DiffOptions::hostThreads > 1, sharded over that many host threads.
 * Those runs must be twins: compareRuns() finds every deterministic
 * output identical (snapshot, stats JSON, cycle breakdown, trace,
 * transaction and task JSON). On the directory-scheme x mesh axis
 * each variant shape runs the same way and must also agree
 * architecturally with the full-map run. The full-map run must in
 * turn be architecturally equivalent to the PerfectMachine oracle
 * (registers, memory + f/e bits, console, deterministic trap
 * counters): the generator's single-writer discipline makes the
 * final state machine-independent even though the interleavings are
 * wildly different.
 *
 * On divergence the driver produces a self-contained repro (seed,
 * machine shape, shrunk program listing) and a greedy
 * instruction-deletion shrinker minimizes the case first.
 */

#ifndef APRIL_FUZZ_DIFFERENTIAL_HH
#define APRIL_FUZZ_DIFFERENTIAL_HH

#include <cstdint>
#include <functional>
#include <string>

#include "fuzz/generator.hh"

namespace april::fuzz
{

/** Knobs of one differential run. */
struct DiffOptions
{
    /// When > 1, every shape also runs sharded over this many host
    /// worker threads and must be a twin of its one-thread run.
    uint32_t hostThreads = 1;
    /// The directory-scheme x mesh axis (DESIGN.md §7.8): replay the
    /// case under the limited directory (i = 4), the forced-spill
    /// variant (i = 0), and — for 2x2 cases — the same node count
    /// reshaped as a 1-D line mesh. Each variant must stay a twin
    /// across cycle-skip modes (and hostThreads, when set) and
    /// architecturally identical to the full-map run, which is itself
    /// checked against the PerfectMachine oracle.
    bool schemeAxis = false;
};

/** Outcome of one differential run. */
struct DiffResult
{
    bool ok = false;
    std::string divergence;         ///< empty when ok
    uint64_t alewifeCycles = 0;     ///< full-map skip-on run's cycles
    uint64_t perfectCycles = 0;     ///< the oracle's cycles
};

/** Run one case every way and cross-check. */
DiffResult runDifferential(const FuzzCase &c,
                           const DiffOptions &opts = {});

/** Does this (mutated) case still fail? Used by the shrinker. */
using FailPredicate = std::function<bool(const FuzzCase &)>;

/**
 * Greedy instruction-deletion shrinker: repeatedly delete body items
 * while @p fails stays true, to a fixpoint or until @p maxProbes
 * re-executions. Deletion order is guided by isa operandInfo():
 * items computing dead values (destination never read later, no side
 * effects) go first, so typical cases collapse in a few probes.
 */
FuzzCase shrinkCase(const FuzzCase &c, const FailPredicate &fails,
                    int maxProbes = 400);

/**
 * Self-contained failure report: divergence, reproduce-from-seed
 * instructions and the (shrunk) corpus entry ready to check in under
 * tests/corpus/.
 */
std::string reproText(const FuzzCase &c, const DiffResult &r);

} // namespace april::fuzz

#endif // APRIL_FUZZ_DIFFERENTIAL_HH
