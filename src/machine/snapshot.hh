/**
 * @file
 * Deterministic whole-machine state snapshots and comparison.
 *
 * The differential fuzzer runs one program on three machine
 * configurations (ALEWIFE with cycle-skipping on, off, and the
 * perfect-memory oracle) and needs a single value type that captures
 * everything architecturally observable about a finished run:
 * register frames, trap state, trap counters, the console, and a
 * *coherent* view of memory (dirty cache lines folded over the
 * backing image, since a quiesced ALEWIFE machine still legitimately
 * holds Modified lines that were never evicted).
 *
 * Two comparison strengths are provided:
 *
 *  - compareExact: every captured bit must match. Valid only between
 *    two runs of the *same* machine model (cycle-skip on vs. off,
 *    which are documented to be cycle-exact twins).
 *  - compareArchitectural: ISA-level equivalence against the perfect
 *    oracle. Timing-dependent state is excluded: cycle counts,
 *    RemoteMiss/Ipi trap counters, context-switch side effects on the
 *    trap windows and non-active frames.
 *
 * Callers must quiesce() the machine first; snapshotting a machine
 * with in-flight coherence traffic would capture a transient.
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

/** Captured state of a whole machine after quiesce(). */
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

} // namespace april

#endif // APRIL_MACHINE_SNAPSHOT_HH
