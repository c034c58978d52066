/**
 * @file
 * Deterministic records of finished runs, and their comparison.
 *
 * MachineSnapshot captures everything architecturally observable
 * about a run: register frames, trap state, trap counters, the
 * console, and a *coherent* view of memory (dirty cache lines folded
 * over the backing image, since even a quiesced ALEWIFE machine holds
 * Modified lines it never evicted). RunRecord adds the bytes of every
 * other deterministic output: stats JSON, the cycle breakdown and the
 * reports of the planes that are on. Comparisons:
 *
 *  - compareRuns: every output byte must match. The check between
 *    twins, runs of the *same* machine model that differ only in
 *    cycle-skipping, host threads or pause points; compareExact is
 *    its snapshot part.
 *  - compareArchitectural: ISA-level equivalence against the perfect
 *    oracle or another directory scheme. Timing-dependent state is
 *    excluded: cycle counts, RemoteMiss/Ipi trap counters,
 *    context-switch side effects on the trap windows and non-active
 *    frames.
 *
 * Capturing never quiesces. Quiesce first to compare with another
 * machine model, where in-flight traffic is a transient; twins
 * stopped at the same committed halt may carry it, as it is itself
 * deterministic.
 */

#ifndef APRIL_MACHINE_SNAPSHOT_HH
#define APRIL_MACHINE_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/types.hh"

namespace april
{

class Machine;

/** Captured state of one hardware task frame. */
struct FrameSnapshot
{
    std::array<Word, reg::numUser> regs{};
    std::array<Word, reg::numTrap> trapRegs{};
    uint32_t trapPC = 0;
    uint32_t trapNPC = 0;
    uint8_t trapType = 0;
    Word trapArg = 0;
    Word trapVA = 0;
    Word savedPsr = 0;
};

/** Captured state of one processor. */
struct ProcSnapshot
{
    bool halted = false;
    uint32_t fp = 0;
    uint32_t pc = 0;
    Word psr = 0;
    std::array<Word, reg::numGlobal> globals{};
    std::vector<FrameSnapshot> frames;
    /// Completed-trap counters, indexed by TrapKind.
    std::array<uint64_t, size_t(TrapKind::NumKinds)> traps{};
};

/** Captured state of a whole machine. */
struct MachineSnapshot
{
    bool halted = false;
    uint64_t cycle = 0;
    std::vector<Word> console;
    std::vector<ProcSnapshot> procs;
    /// Coherent memory image: backing store with every Modified cache
    /// line folded in (data and f/e bits).
    std::vector<MemWord> memory;
    /// Protocol violations found while folding (two Modified copies of
    /// one line, or a Shared copy disagreeing with the coherent view).
    /// Always empty on a correct machine.
    std::vector<std::string> coherenceErrors;
};

/** Capture a machine; on ALEWIFE, dirty cache lines are folded over
 *  the backing image. */
MachineSnapshot snapshotMachine(Machine &m);

/**
 * Bit-for-bit comparison of two runs of the same machine model.
 * @return "" when identical, else a human-readable first divergence.
 */
std::string compareExact(const MachineSnapshot &a,
                         const MachineSnapshot &b);

/**
 * ISA-level comparison of an ALEWIFE run against the perfect-memory
 * oracle: halt status, console, memory image, and per processor the
 * final pc/fp/PSR, active-frame (frame 0) user registers, globals and
 * the deterministic trap counters (FutureCompute, FutureMemory,
 * FeEmpty, FeFull, SoftTrap0-7). RemoteMiss/Ipi counts, trap windows,
 * parked frames and cycle counts are timing artifacts and ignored.
 * @return "" when equivalent, else a human-readable first divergence.
 */
std::string compareArchitectural(const MachineSnapshot &alewife,
                                 const MachineSnapshot &oracle);

/** Every deterministic output of one finished run. A plane's report
 *  is empty when that plane was off. */
struct RunRecord
{
    MachineSnapshot snap;
    std::string stats;          ///< stats JSON (Group::dumpJson)
    std::string breakdown;      ///< profile::cycleBreakdownJson
    std::string trace;          ///< Chrome trace JSON (traceEvents)
    std::string cohTrace;       ///< transaction JSON (cohTrace)
    std::string taskTrace;      ///< task report JSON (taskTrace)
    std::string profile;        ///< profile JSON (profile)
    std::string series;         ///< interval CSV (statsInterval)
};

/** Capture @p m as it stands; the caller runs (and, if it wants,
 *  quiesces) it first. */
RunRecord recordRun(Machine &m);

/**
 * Twin check: every output of @p a and @p b must be byte-identical.
 * @return "" when they are, else one line per differing output: the
 * snapshot's line carries compareExact()'s report, every other one
 * the first differing byte.
 */
std::string compareRuns(const RunRecord &a, const RunRecord &b);

} // namespace april

#endif // APRIL_MACHINE_SNAPSHOT_HH
