/**
 * @file
 * Deterministic records of finished runs, and their comparison.
 *
 * MachineSnapshot captures everything architecturally observable
 * about a run: register frames, trap state, trap counters, the
 * console, and a *coherent* view of memory (dirty cache lines folded
 * over the backing image, since even a quiesced ALEWIFE machine holds
 * Modified lines it never evicted). The output table kRunOutputs
 * lists every other deterministic output once; the driver, recordRun,
 * compareRuns and `april run` all go through it. Comparisons:
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
#include <iosfwd>
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

/** The bytes of every output of one finished run, one string per
 *  kRunOutputs row; empty when its plane was off. */
struct RunOutputs
{
    std::string stats;          ///< stats JSON (Group::dumpJson)
    std::string breakdown;      ///< profile::cycleBreakdownJson
    std::string trace;          ///< Chrome trace JSON (traceEvents)
    std::string cohTrace;       ///< transaction JSON (cohTrace)
    std::string taskTrace;      ///< task report JSON (taskTrace)
    std::string profile;        ///< profile JSON (profile)
    std::string series;         ///< interval CSV (statsInterval)
};

/** One deterministic output: the name compareRuns reports it by, the
 *  string RunOutputs keeps it in, and its writer, which writes
 *  nothing when the output's plane is off. */
struct RunOutput
{
    const char *name;
    std::string RunOutputs::*text;
    void (*write)(Machine &, std::ostream &);
};

/** The output table: every deterministic output of a run, once. */
extern const std::array<RunOutput, 7> kRunOutputs;

/** The kRunOutputs row kept in RunOutputs::*@p text. */
const RunOutput &runOutput(std::string RunOutputs::*text);

/** Every output of @p m as it stands. */
RunOutputs recordOutputs(Machine &m);

/** A finished run: its snapshot and its outputs. */
struct RunRecord
{
    MachineSnapshot snap;
    RunOutputs outputs;
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
