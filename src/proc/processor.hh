/**
 * @file
 * The APRIL processor core (paper Sections 3-5).
 *
 * A pipelined RISC core extended for multiprocessing:
 *
 *  - N hardware task frames (default 4), each with 32 user registers,
 *    8 trap-window registers and per-frame trap state; selected by the
 *    frame pointer FP. Eight global registers are frame-independent
 *    (Figure 2).
 *  - Coarse-grain multithreading: a thread runs until a remote memory
 *    request or failed synchronization forces a context switch.
 *  - Full/empty-bit memory flavors (Table 2), Jfull/Jempty branches.
 *  - Hardware future detection: strict compute instructions and memory
 *    address operands trap when a value has a set LSB (Section 5).
 *  - A 5-cycle trap entry (pipeline squash + vector computation, the
 *    SPARC minimum the paper cites), with trap handlers running in the
 *    same task frame as the trapped thread.
 *
 * Two context-switch implementations are modeled, matching the paper:
 *
 *  - SwitchMode::TrapHandler — the SPARC-based design: the controller
 *    raises a synchronous trap and a 6-cycle software handler rotates
 *    the frame pointer (11 cycles total, Section 6.1). PC and PSR are
 *    processor-global; per-frame trap state holds the saved chain.
 *  - SwitchMode::Hardware — the custom-APRIL design: the switch is a
 *    4-cycle hardware operation (Section 6.1's "four-cycle context
 *    switch" estimate); no handler instructions run.
 *
 * Timing model: single-issue, one instruction per cycle; MUL/DIV/REM
 * are multi-cycle; a taken trap costs trapEntryCycles; memory holds
 * (MHOLD) stall the core for the port-reported extra cycles.
 */

#ifndef APRIL_PROC_PROCESSOR_HH
#define APRIL_PROC_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "proc/ports.hh"
#include "profile/accounting.hh"
#include "task/task_trace.hh"

namespace april::profile
{
class PcSampler;
} // namespace april::profile

namespace april
{

/** Processor configuration. */
struct ProcParams
{
    enum class SwitchMode { TrapHandler, Hardware };

    uint32_t numFrames = 4;
    uint32_t trapEntryCycles = 5;   ///< pipeline squash + vector fetch
    SwitchMode switchMode = SwitchMode::TrapHandler;
    uint32_t hwSwitchCycles = 4;    ///< custom-APRIL hardware switch
    uint32_t mulCycles = 5;
    uint32_t divCycles = 20;
    /// Extra hold cycles per TAS. APRIL's f/e operations are ordinary
    /// single-cycle memory accesses; a bus-based machine's test&set is
    /// a locked read-modify-write (bus arbitration + memory round
    /// trip). Encore-baseline runs set this to ~9 (Section 3.3:
    /// "test&set based synchronization requires extra memory
    /// operations").
    uint32_t tasExtraCycles = 0;
    uint32_t nodeId = 0;
};

/** PSR bit assignments. */
namespace psr
{
constexpr Word Z = 1u << 0;    ///< zero condition code
constexpr Word N = 1u << 1;    ///< negative condition code
constexpr Word F = 1u << 2;    ///< full/empty condition (Jfull/Jempty)
constexpr Word ET = 1u << 3;   ///< traps enabled
} // namespace psr

/** The APRIL core. */
class Processor : public stats::Group
{
  public:
    /** One hardware task frame (Figure 2). */
    struct Frame
    {
        std::array<Word, reg::numUser> regs{};
        std::array<Word, reg::numTrap> trapRegs{};
        uint32_t trapPC = 0;    ///< saved PC chain (SPARC r17)
        uint32_t trapNPC = 0;   ///< saved PC chain (SPARC r18)
        TrapKind trapType = TrapKind::None;
        Word trapArg = 0;       ///< e.g. register index holding a future
        Word trapVA = 0;        ///< faulting tagged address
        Word savedPsr = 0;      ///< hardware-mode PSR save slot
    };

    Processor(const ProcParams &params, const Program *program,
              MemPort *mem, IoPort *io, stats::Group *parent = nullptr);

    /** Reset all state; frame 0 starts at @p entry_pc. */
    void reset(uint32_t entry_pc);

    /** Advance one cycle (execute, stall, or sit halted). */
    void tick();

    /** Run until halt or until @p max_cycles elapse; @return cycles. */
    uint64_t run(uint64_t max_cycles);

    /**
     * Earliest cycle at which this core can do observable work (i.e.
     * the first tick() that does more than decrement the stall
     * counter): kNeverCycle when halted, cycle() + stall + 1 while
     * stalled, cycle() + 1 when runnable. Machines use this to
     * fast-forward fully idle windows.
     */
    uint64_t nextEventCycle() const;

    /**
     * Fast-forward @p cycles stall cycles in one arithmetic step:
     * advances the cycle counter, credits statCycles/statStallCycles
     * and decrements the stall counter exactly as @p cycles tick()
     * calls would. The caller must not skip to or past
     * nextEventCycle(); a halted core ignores the call (as tick()
     * would). */
    void skipCycles(uint64_t cycles);

    bool halted() const { return _halted; }
    uint64_t cycle() const { return _cycle; }
    uint32_t nodeId() const { return params.nodeId; }

    // --- architectural state access (runtime setup, tests) ------------

    uint32_t fp() const { return _fp; }
    uint32_t numFrames() const { return params.numFrames; }
    Frame &frame(uint32_t i) { return frames.at(i); }
    const Frame &frame(uint32_t i) const { return frames.at(i); }

    uint32_t pc() const { return _pc; }
    void setPcChain(uint32_t pc_, uint32_t npc_) { _pc = pc_; _npc = npc_; }
    Word psrWord() const { return _psr; }

    /** Read a register in the *active* frame view (0..47). */
    Word readReg(uint8_t r) const;
    /** Write a register in the active frame view (r0 ignored). */
    void writeReg(uint8_t r, Word v);
    Word readGlobal(unsigned g) const { return globals.at(g); }
    void writeGlobal(unsigned g, Word v) { globals.at(g) = v; }

    /** Install the handler entry for a trap kind. */
    void setTrapVector(TrapKind kind, uint32_t entry_pc);
    /** Install the same handler for every software/sync trap kind. */
    uint32_t trapVector(TrapKind kind) const;

    /** Post an asynchronous interprocessor interrupt (Section 3.4). */
    void postIpi(Word arg);

    /** Attach the machine's event recorder (nullptr: tracing off). */
    void setTraceRecorder(trace::Recorder *r) { trec = r; }

    /** Attach a PC sampler (nullptr: sampling off, zero overhead). */
    void setPcSampler(profile::PcSampler *s) { pcSampler_ = s; }

    /**
     * Attach the task probe map and this core's task-event lane
     * (either nullptr: task tracing off, zero overhead). Probes fire
     * when the marked instruction *completes* — a trapped or
     * MHOLD-retried execution records nothing — so each site logs
     * exactly one event per architectural execution.
     */
    void
    setTaskProbe(const task::ProbeMap *m, task::Tracer *lane)
    {
        taskProbes_ = m;
        taskLane_ = lane;
    }

    /** One FLUSH acknowledgment arrived: the fence counter (FLUSH
     *  acknowledgments outstanding) drops by one. */
    void decFence() { if (_fence) --_fence; }

    const Program *program() const { return prog; }

    // --- cycle accounting (DESIGN.md §7.5) -----------------------------

    /** Cycles attributed to bucket @p b on this core so far. */
    uint64_t
    bucketCycles(profile::Bucket b) const
    {
        return uint64_t(statBuckets[size_t(b)].value());
    }

    /** Per-frame attribution matrix: [frame][bucket] cycles. */
    const std::vector<std::array<uint64_t, profile::kNumBuckets>> &
    frameCycles() const
    {
        return frameCycles_;
    }

    /**
     * Panic unless every cycle this core ran is attributed to exactly
     * one bucket: sum over buckets == statCycles, for the per-node
     * scalars and the per-frame matrix alike. Machines check this at
     * quiesce; tests and the differential fuzzer call it directly.
     */
    void verifyCycleAccounting() const;

    // --- statistics ----------------------------------------------------

    stats::Scalar statCycles;
    stats::Scalar statInsts;
    stats::Scalar statStallCycles;   ///< MHOLD + multi-cycle ops
    stats::Scalar statTrapCycles;    ///< trap-entry squash cycles
    stats::Scalar statSwitches;      ///< context switches (both modes)
    stats::Formula statUtilization;  ///< useful-cycle fraction (§7.5)
    stats::Histogram statSwitchGap;  ///< cycles between context switches
    std::vector<stats::Scalar> statTraps;   ///< per TrapKind
    std::vector<stats::Scalar> statBuckets; ///< per profile::Bucket

  private:
    /** A stats reset zeroes the per-frame matrix with the bucket
     *  statistics it mirrors, so the ledger still balances. */
    void resetOwnState() override;

    void execute(const Instruction &inst);
    void executeCompute(const Instruction &inst);
    void executeMemory(const Instruction &inst);
    void setConditions(Word result);
    bool condTrue(Cond c) const;

    /** Raise a synchronous trap on the active frame. */
    void takeTrap(TrapKind kind, Word arg = 0, Word va = 0);
    /** Custom-APRIL hardware context switch. */
    void hardwareSwitch();

    /** Switch the active frame and refresh the register-view table. */
    void setFrame(uint32_t f);

    /** Record a context switch (event log + Ctx debug flag). */
    void noteSwitch(uint32_t from, uint32_t to);

    /** Materialize and log a probe site's event (payload registers). */
    void fireTaskProbe(const task::Site &s);
    /** Append one task event stamped with cycle/work/node/frame. */
    void taskRecord(task::Ev kind, Addr addr, uint32_t aux);

    /** Credit the cycle just ticked to @p b for frame @p frame. */
    void account(uint32_t frame, profile::Bucket b);
    /** Bucket class of a trap kind (switch-class vs other). */
    static profile::Bucket bucketForTrap(TrapKind kind);

    Word operand2(const Instruction &inst) const;

    ProcParams params;
    const Program *prog;
    MemPort *mem;
    IoPort *io;
    trace::Recorder *trec = nullptr;
    const task::ProbeMap *taskProbes_ = nullptr;
    task::Tracer *taskLane_ = nullptr;

    std::vector<Frame> frames;
    std::array<Word, reg::numGlobal> globals{};
    /**
     * Flat view of the active frame's 48-register name space: entries
     * 0..31 point into frames[_fp].regs, 32..39 into globals, 40..47
     * into frames[_fp].trapRegs. Rebuilt on frame switch so operand
     * access is a single table lookup instead of chained range
     * compares. Stable because `frames` is never resized after
     * construction.
     */
    std::array<Word *, reg::numNames> regTable{};
    uint32_t _fp = 0;
    uint32_t _pc = 0;
    uint32_t _npc = 1;
    Word _psr = psr::ET;
    Word _fence = 0;

    std::array<uint32_t, size_t(TrapKind::NumKinds)> vectors{};
    std::array<bool, size_t(TrapKind::NumKinds)> vectorSet{};

    bool _halted = false;
    uint64_t _cycle = 0;
    uint32_t stall = 0;         ///< remaining hold cycles
    bool redirected = false;    ///< PC chain replaced by a trap/switch
    bool ipiPosted = false;     ///< an interrupt awaits ET (postIpi)
    Word ipiArg = 0;

    // --- cycle-accounting context (DESIGN.md §7.5) ---------------------

    profile::PcSampler *pcSampler_ = nullptr;
    /// Classification of instruction cycles in the current execution
    /// context: Useful in user code, the trap's bucket inside a
    /// handler (reset by RETT).
    profile::Bucket handlerBucket_ = profile::Bucket::Useful;
    /// Classification of the pending stall cycles; whoever adds to
    /// `stall` sets it, and skipCycles() credits whole windows to it.
    profile::Bucket stallBucket_ = profile::Bucket::Hazard;
    /// Working classification of the cycle being ticked.
    profile::Bucket cycleBucket_ = profile::Bucket::Useful;
    /// [frame][bucket] attribution matrix behind frameCycles().
    std::vector<std::array<uint64_t, profile::kNumBuckets>> frameCycles_;
    /// Switch-spin detection: a frame arms on its first switch-class
    /// trap; a repeat trap at the same PC while *all* frames are armed
    /// means the revolution found no runnable work (Idle). A completed
    /// Useful cycle disarms the frame.
    std::vector<uint8_t> spinArmed_;
    std::vector<uint32_t> spinPc_;
    uint32_t spinArmedCount_ = 0;
    uint64_t lastSwitchCycle_ = 0;  ///< for the switch-gap histogram
};

} // namespace april

#endif // APRIL_PROC_PROCESSOR_HH
