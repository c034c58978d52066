/**
 * @file
 * The APRIL run-time system (paper Section 6).
 *
 * "A large portion of the support for multithreading, synchronization
 * and futures is provided in software through traps and run-time
 * routines" — this module emits those routines as real APRIL assembly
 * through the Assembler, so their costs are measured, not assumed:
 *
 *  - the context-switch trap handler (Section 6.1; 6 cycles, 11 with
 *    trap entry), installed for remote-miss and f/e exceptions
 *    (switch-spinning policy, as in the paper's implementation);
 *  - the future-touch trap handler (Section 6.2; 23 cycles when the
 *    future is resolved, thread-blocking when not);
 *  - a per-node scheduler with ready-queue resume, eager task
 *    execution and work stealing over both eager task queues and
 *    lazy-task-creation deques;
 *  - future creation/resolution, eager spawn (normal futures), and
 *    lazy task creation via stealable continuation markers, with all
 *    races resolved by full/empty-bit locks (Section 3.2);
 *  - an Encore-mode variant that replaces every full/empty-bit lock
 *    with test&set spinning and the f/e resolved bit with an explicit
 *    state word, plus a software touch routine — reproducing the
 *    baseline machine's synchronization cost structure.
 */

#ifndef APRIL_RUNTIME_RUNTIME_HH
#define APRIL_RUNTIME_RUNTIME_HH

#include <cstdint>
#include <string>

#include "isa/assembler.hh"
#include "mem/memory.hh"
#include "proc/processor.hh"
#include "runtime/layout.hh"

namespace april::rt
{

/** Run-time system configuration. */
struct RuntimeOptions
{
    /// Encore-mode synchronization: TAS locks + state words instead of
    /// full/empty bits; software future detection is a compiler flag.
    bool encore = false;

    /// Target the custom-APRIL hardware context switch (INCFP is the
    /// whole 4-cycle switch) instead of the SPARC trap-based one; the
    /// scheduler's idle yield differs between the two.
    bool hardwareSwitch = false;

    /// Touching an unresolved future switch-spins (Section 6.2's
    /// other policy): the task stays loaded and yields one frame per
    /// revolution, re-executing the touch when the rotation returns,
    /// instead of unloading into a thread descriptor. Latency is then
    /// hidden only by the *other* task frames — the regime where the
    /// frame count buys tolerance. Safe for lazy futures, whose
    /// producer is always actively computing on some node; eager
    /// futures still require blocking (the producer may be an
    /// unloaded descriptor parked behind the spinning consumer).
    bool spinTouch = false;
};

/** Well-known symbol names the run-time system defines. */
namespace sym
{
inline const std::string boot = "rt$boot";          ///< main entry
inline const std::string idle = "rt$idle";          ///< non-main entry
inline const std::string sched = "rt$sched";        ///< scheduler loop
inline const std::string cswitch = "rt$cswitch";    ///< switch handler
inline const std::string futureTouch = "rt$future_touch";
inline const std::string ipi = "rt$ipi";
inline const std::string resolve = "rt$resolve";    ///< r1=F r2=value
inline const std::string makeFuture = "rt$make_future";  ///< -> r1
inline const std::string spawn = "rt$spawn";        ///< eager task
inline const std::string spawnOn = "rt$spawn_on";   ///< + r8 = node
inline const std::string touchSw = "rt$touch_sw";   ///< Encore touch
inline const std::string touchResume = "rt$touch_resume";
inline const std::string cons = "rt$cons";          ///< r1=car r2=cdr
inline const std::string makeVector = "rt$make_vector"; ///< r1=len r2=fill
inline const std::string stolenExit = "rt$stolen_exit"; ///< r1=F r2=value
inline const std::string fault = "rt$fault";        ///< runtime abort
inline const std::string userMain = "mt$main";      ///< compiled main
} // namespace sym

/**
 * The run-time system's entry points in one program, resolved once per
 * machine: every node boots from the same addresses, so the symbol
 * lookups happen once rather than once per node.
 */
struct BootEntries
{
    uint32_t boot = 0;          ///< node 0's first instruction
    uint32_t idle = 0;          ///< every other frame's
    uint32_t sched = 0;
    uint32_t cswitch = 0;
    uint32_t futureTouch = 0;
    uint32_t ipi = 0;

    /** Look the entries up in @p prog (a missing one panics). */
    static BootEntries of(const Program &prog);
};

/** Emits the run-time routines and boots machines around them. */
class Runtime
{
  public:
    explicit Runtime(RuntimeOptions opts = {}) : opts(opts) {}

    /**
     * Emit every run-time routine into @p as. Call once, alongside the
     * compiled user code (order does not matter; linkage is symbolic).
     */
    void emit(Assembler &as) const;

    /**
     * Initialize node @p node's memory image: node block, queue
     * arrays, heap pointers. Node 0 also gets the boot thread's stack.
     */
    static void initNode(SharedMemory &mem, uint32_t node);

    /**
     * Configure a processor to run under this runtime: install trap
     * vectors, set the global registers, park frames 1..N-1 in the
     * scheduler, and start frame 0 at boot (node 0) or idle.
     */
    static void bootProcessor(Processor &proc, const BootEntries &entry,
                              SharedMemory &mem, uint32_t node,
                              uint32_t num_nodes);

    const RuntimeOptions &options() const { return opts; }

  private:
    // Emission helpers (each bound to a fresh label namespace).
    void emitHandlers(Assembler &as) const;
    void emitScheduler(Assembler &as) const;
    void emitFutureOps(Assembler &as) const;
    void emitLazyOps(Assembler &as) const;
    void emitHeapOps(Assembler &as) const;
    void emitBoot(Assembler &as) const;

    /** Spin-acquire the lock word at [base + wordOff(slot)]. */
    void emitLockAcquire(Assembler &as, uint8_t base, int slot,
                         uint8_t scratch) const;
    /** Release the lock word at [base + wordOff(slot)]. */
    void emitLockRelease(Assembler &as, uint8_t base, int slot,
                         uint8_t scratch) const;

    /** Bump-allocate @p nwords from the local heap into boxed @p rd. */
    void emitAlloc(Assembler &as, uint32_t nwords, uint8_t rd,
                   uint8_t scratch) const;

    /** Adjust a node-block statistics counter by @p delta. */
    void emitCount(Assembler &as, int slot, uint8_t scratch,
                   int32_t delta = 1) const;

    /**
     * Encore mode only: emit the software future-detection sequence
     * (test LSB, branch) for each listed register. The Multimax
     * run-time system is itself Mul-T-compiled code, so its routines
     * pay the same per-operand checks as user code; on APRIL the tag
     * hardware makes these free, which is precisely the asymmetry
     * Table 3 measures.
     */
    void emitEncoreChecks(Assembler &as,
                          std::initializer_list<uint8_t> regs) const;

    RuntimeOptions opts;
};

} // namespace april::rt

#endif // APRIL_RUNTIME_RUNTIME_HH
