#include "runtime/runtime.hh"

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"

namespace april::rt
{

using reg::t;

namespace
{

/** Shorthand for node-block field offsets. */
int
nbo(int slot)
{
    return wordOff(slot);
}

} // namespace

void
Runtime::emitLockAcquire(Assembler &as, uint8_t base, int slot,
                         uint8_t scratch) const
{
    auto spin = as.fresh("lock");
    as.bind(spin);
    if (opts.encore) {
        // Encore Multimax style: test&set spin lock. Two memory
        // operations per failed probe once the release store is
        // counted, and the lock needs its own word.
        as.tas(scratch, base, nbo(slot));
        as.jRaw(Cond::NE, spin);
        as.nop();
    } else {
        // APRIL style: one consuming load per probe. The f/e bit is
        // both the lock and its storage (Section 3.3): full means
        // unlocked, and ldenw atomically reads-and-empties.
        as.ldenw(scratch, base, nbo(slot));
        as.jRaw(Cond::EMPTY, spin);
        as.nop();
    }
}

void
Runtime::emitLockRelease(Assembler &as, uint8_t base, int slot,
                         uint8_t scratch) const
{
    (void)scratch;
    if (opts.encore)
        as.stnw(reg::r0, base, nbo(slot));      // store 0: free
    else
        as.stfnw(reg::r0, base, nbo(slot));     // set full: unlocked
}

void
Runtime::emitAlloc(Assembler &as, uint32_t nwords, uint8_t rd,
                   uint8_t scratch) const
{
    as.ldnw(rd, reg::g(0), nbo(nb::heapPtr));
    as.addiR(rd, rd, int32_t(nwords));
    as.ldnw(scratch, reg::g(0), nbo(nb::heapLimit));
    as.cmpR(rd, scratch);
    as.jRaw(Cond::GT, sym::fault);
    as.nop();
    as.stnw(rd, reg::g(0), nbo(nb::heapPtr));
    as.subiR(rd, rd, int32_t(nwords));
    as.slliR(rd, rd, tagged::tagShift);
    as.oriR(rd, rd, uint8_t(Tag::Other));
}

void
Runtime::emitCount(Assembler &as, int slot, uint8_t scratch,
                   int32_t delta) const
{
    as.ldnw(scratch, reg::g(0), nbo(slot));
    as.addiR(scratch, scratch, delta);
    as.stnw(scratch, reg::g(0), nbo(slot));
}

void
Runtime::emitEncoreChecks(Assembler &as,
                          std::initializer_list<uint8_t> regs) const
{
    if (!opts.encore)
        return;
    for (uint8_t r : regs) {
        auto ok = as.fresh("swchk");
        as.andiR(t(7), r, 1);
        as.jRaw(Cond::EQ, ok);
        as.nop();
        as.bind(ok);
    }
}

void
Runtime::emitHandlers(Assembler &as) const
{
    // ------------------------------------------------------------------
    // Context-switch trap handler (Section 6.1). Vectored for remote
    // cache misses and for full/empty exceptions (switch-spinning, the
    // policy of the paper's implementation). Six cycles; with the
    // five-cycle trap entry the switch costs 11 cycles.
    // ------------------------------------------------------------------
    as.bind(sym::cswitch);
    as.rdpsr(t(0));         // 1: save PSR into a reserved register
    as.incfp();             // 2: advance one task frame ("save; save"
    as.nop();               // 3:   is two cycles on SPARC)
    as.wrpsr(t(0));         // 4: restore PSR for the new context
    as.nop();               // 5: (the jmpl of SPARC's jmpl/rett pair)
    as.rettRetry();         // 6: resume via the new frame's PC chain

    // Interprocessor interrupts are acknowledged and ignored by
    // default; experiments that use IPIs install their own vector.
    as.bind(sym::ipi);
    as.rettRetry();

    // ------------------------------------------------------------------
    // Future-touch trap handler (Section 6.2). The resolved fast path
    // takes 23 cycles: 5 of trap entry plus 18 below. The 8 nops model
    // the SPARC handler's decode of the trapping instruction to locate
    // the register holding the future (our RDSPEC/RDREGX abstract what
    // SPARC does by fetching the instruction and dispatching).
    // ------------------------------------------------------------------
    as.bind(sym::futureTouch);
    as.rdpsr(t(0));
    for (int i = 0; i < 8; ++i)
        as.nop();
    as.rdspec(t(1), Spec::TrapArg);     // register index of the future
    as.rdregx(t(2), t(1));              // the future pointer itself
    as.subiR(t(3), t(2), 3);            // retag future(101) -> other(010)
    as.ldnw(t(4), t(3), wordOff(fut::value));
    if (opts.encore) {
        // Encore never reaches this handler (no hardware detection),
        // but keep it consistent: state word instead of the f/e bit.
        as.ldnw(t(5), t(3), wordOff(fut::state));
        as.cmpiR(t(5), 0);
        as.jRaw(Cond::EQ, "ft$block");
        as.nop();
    } else {
        as.jRaw(Cond::EMPTY, "ft$block");
        as.nop();
    }
    as.wrregx(t(1), t(4));              // patch the register, then
    as.wrpsr(t(0));
    as.rettRetry();                     // re-execute the instruction

    // Unresolved: either switch-spin (Section 6.2's policy for
    // hardware-detected touches — the task stays loaded, yields one
    // frame, and re-executes the touch when the rotation returns) or
    // block the thread into a descriptor. Blocking is required for
    // eager futures, where the producer may be an unloaded task
    // parked behind the consumer; spinning is deadlock-free for lazy
    // futures, whose producer is always actively computing.
    as.bind("ft$block");
    if (opts.spinTouch) {
        as.incfp();             // same 6-cycle tail as rt$cswitch:
        as.nop();               // rotate one frame and resume via its
        as.wrpsr(t(0));         // PC chain; our frame's retry chain
        as.nop();               // still points at the touch, so the
        as.rettRetry();         // revolution retries it
        return;
    }
    emitAlloc(as, thread::size, t(5), t(6));
    for (uint8_t r = 1; r < 32; ++r)
        as.stnw(r, t(5), wordOff(thread::regsBase + r - 1));
    as.rdspec(t(6), Spec::TrapPC);
    as.stnw(t(6), t(5), wordOff(thread::pc));
    as.rdspec(t(6), Spec::TrapNPC);
    as.stnw(t(6), t(5), wordOff(thread::npc));
    as.stnw(t(0), t(5), wordOff(thread::psr));
    as.stnw(reg::r0, t(5), wordOff(thread::link));

    emitLockAcquire(as, t(3), fut::lock, t(6));
    // Re-check under the lock: the producer may have resolved the
    // future between the trap and here.
    if (opts.encore) {
        as.ldnw(t(6), t(3), wordOff(fut::state));
        as.cmpiR(t(6), 0);
        as.jRaw(Cond::EQ, "ft$enq");
        as.nop();
    } else {
        as.ldnw(t(6), t(3), wordOff(fut::value));
        as.jRaw(Cond::EMPTY, "ft$enq");
        as.nop();
    }
    emitLockRelease(as, t(3), fut::lock, t(6));
    as.wrpsr(t(0));
    as.rettRetry();

    as.bind("ft$enq");
    as.note("tp$block");                // t3 = future cell, t5 = thread
    as.ldnw(t(6), t(3), wordOff(fut::waiters));
    as.stnw(t(6), t(5), wordOff(thread::link));
    as.stnw(t(5), t(3), wordOff(fut::waiters));
    emitLockRelease(as, t(3), fut::lock, t(7));
    emitCount(as, nb::statBlocks, t(7));
    emitCount(as, nb::busyFrames, t(7), -1);
    // Enter the scheduler with traps re-enabled; the thread's state
    // lives in the descriptor now, so this frame is free.
    as.rdpsr(t(7));
    as.oriR(t(7), t(7), int32_t(psr::ET));
    as.wrpsr(t(7));
    as.j(Cond::AL, sym::sched);
}

void
Runtime::emitFutureOps(Assembler &as) const
{
    // make_future: allocate and return (in r1) an unresolved future.
    as.bind(sym::makeFuture);
    emitAlloc(as, fut::size, reg::a(0), t(0));
    if (!opts.encore) {
        // Mark the value slot empty with a consuming load; fresh heap
        // words start full. (state/waiters start 0 from fresh memory.)
        as.ldenw(t(0), reg::a(0), wordOff(fut::value));
    }
    emitEncoreChecks(as, {reg::a(0)});
    // Retag other(010) -> future(101).
    as.addiR(reg::a(0), reg::a(0), 3);
    as.note("tp$mkfut");                // r1 = the new future
    as.ret();

    // resolve: r1 = future, r2 = value. Stores the value, marks the
    // future resolved, and moves all waiting threads to the local
    // ready queue.
    as.bind(sym::resolve);
    as.note("tp$resolve");              // r1 = future being resolved
    emitEncoreChecks(as, {reg::a(0), reg::a(1)});
    as.subiR(t(0), reg::a(0), 3);
    emitLockAcquire(as, t(0), fut::lock, t(1));
    if (opts.encore) {
        as.stnw(reg::a(1), t(0), wordOff(fut::value));
        as.movi(t(1), 1);
        as.stnw(t(1), t(0), wordOff(fut::state));
    } else {
        as.stfnw(reg::a(1), t(0), wordOff(fut::value));
    }
    as.ldnw(t(1), t(0), wordOff(fut::waiters));
    as.stnw(reg::r0, t(0), wordOff(fut::waiters));
    emitLockRelease(as, t(0), fut::lock, t(2));

    auto loop = as.fresh("rvwake");
    auto done = as.fresh("rvdone");
    as.bind(loop);
    as.cmpiR(t(1), 0);
    as.jRaw(Cond::EQ, done);
    as.nop();
    as.ldnw(t(2), t(1), wordOff(thread::link));
    emitLockAcquire(as, reg::g(0), nb::readyLock, t(3));
    as.ldnw(t(3), reg::g(0), nbo(nb::readyHead));
    as.stnw(t(3), t(1), wordOff(thread::link));
    as.stnw(t(1), reg::g(0), nbo(nb::readyHead));
    emitLockRelease(as, reg::g(0), nb::readyLock, t(3));
    as.mov(t(1), t(2));
    as.j(Cond::AL, loop);
    as.bind(done);
    as.ret();

    // spawn: r1 = fn, r2 = future, r3 = argc, r4..r7 = args.
    // Creates an eager ("normal future") task on the local queue;
    // spawn_on additionally takes the target node in r8 — the
    // future-on placement primitive of Section 2.2.
    as.bind(sym::spawn);
    as.mov(8, reg::g(2));               // target = this node
    as.bind(sym::spawnOn);
    emitEncoreChecks(as, {reg::a(0), reg::a(1), reg::a(2), 4, 5, 6, 7});
    emitAlloc(as, task::size, t(0), t(1));
    as.stnw(reg::a(0), t(0), wordOff(task::fn));
    as.stnw(reg::a(1), t(0), wordOff(task::future));
    as.stnw(reg::a(2), t(0), wordOff(task::argc));
    for (int i = 0; i < 4; ++i)
        as.stnw(uint8_t(4 + i), t(0), wordOff(task::arg0 + i));
    as.note("tp$spawn");                // t0 = descriptor, r2 = future
    // t4 = the target node's block (same computation the scheduler
    // uses to address a steal victim).
    as.push({.op = Opcode::SLL, .rd = t(4), .rs1 = 8,
             .rs2 = reg::g(3)});
    as.addiR(t(4), t(4), int32_t(nodeBlockOff));
    as.slliR(t(4), t(4), tagged::tagShift);
    as.oriR(t(4), t(4), uint8_t(Tag::Other));
    emitLockAcquire(as, t(4), nb::taskLock, t(1));
    as.ldnw(t(1), t(4), nbo(nb::taskBottom));
    as.ldnw(t(2), t(4), nbo(nb::taskTop));
    as.subR(t(2), t(1), t(2));
    as.cmpiR(t(2), int32_t(taskQueueCapacity));
    as.jRaw(Cond::GE, sym::fault);
    as.nop();
    as.andiR(t(2), t(1), int32_t(taskQueueCapacity - 1));
    as.slliR(t(2), t(2), tagged::tagShift);
    as.ldnw(t(3), t(4), nbo(nb::taskBase));
    as.addR(t(2), t(2), t(3));
    as.stnw(t(0), t(2), 0);
    as.addiR(t(1), t(1), 1);
    as.stnw(t(1), t(4), nbo(nb::taskBottom));
    emitLockRelease(as, t(4), nb::taskLock, t(1));
    emitCount(as, nb::statSpawns, t(1));
    as.ret();

    // Encore-mode software touch: r1 = a value with its LSB set
    // (checked by compiled code). Returns the resolved value in r1,
    // or blocks the thread until the future resolves.
    as.bind(sym::touchSw);
    as.subiR(t(3), reg::a(0), 3);
    as.ldnw(t(4), t(3), wordOff(fut::state));
    as.cmpiR(t(4), 0);
    as.jRaw(Cond::EQ, "tsw$block");
    as.nop();
    as.ldnw(reg::a(0), t(3), wordOff(fut::value));
    as.ret();

    as.bind("tsw$block");
    emitAlloc(as, thread::size, t(5), t(6));
    for (uint8_t r = 1; r < 32; ++r)
        as.stnw(r, t(5), wordOff(thread::regsBase + r - 1));
    // Arrange resumption at the touch-resume stub with r2 = future.
    as.stnw(reg::a(0), t(5), wordOff(thread::regsBase + 1));   // r2 slot
    as.moviLabel(t(6), sym::touchResume);
    as.stnw(t(6), t(5), wordOff(thread::pc));
    as.addiR(t(6), t(6), 1);
    as.stnw(t(6), t(5), wordOff(thread::npc));
    as.rdpsr(t(6));
    as.stnw(t(6), t(5), wordOff(thread::psr));
    as.stnw(reg::r0, t(5), wordOff(thread::link));

    emitLockAcquire(as, t(3), fut::lock, t(6));
    as.ldnw(t(6), t(3), wordOff(fut::state));
    as.cmpiR(t(6), 0);
    as.jRaw(Cond::NE, "tsw$won");
    as.nop();
    as.note("tp$block");                // t3 = future cell, t5 = thread
    as.ldnw(t(6), t(3), wordOff(fut::waiters));
    as.stnw(t(6), t(5), wordOff(thread::link));
    as.stnw(t(5), t(3), wordOff(fut::waiters));
    emitLockRelease(as, t(3), fut::lock, t(7));
    emitCount(as, nb::statBlocks, t(7));
    emitCount(as, nb::busyFrames, t(7), -1);
    as.j(Cond::AL, sym::sched);

    as.bind("tsw$won");             // resolved while we prepared
    emitLockRelease(as, t(3), fut::lock, t(7));
    as.ldnw(reg::a(0), t(3), wordOff(fut::value));
    as.ret();

    // Wake-up stub for blocked Encore touches: r2 = the future.
    as.bind(sym::touchResume);
    as.subiR(t(3), reg::a(1), 3);
    as.ldnw(reg::a(0), t(3), wordOff(fut::value));
    as.ret();
}

void
Runtime::emitHeapOps(Assembler &as) const
{
    // cons: r1 = car, r2 = cdr -> r1 = cons-tagged pointer.
    as.bind(sym::cons);
    emitEncoreChecks(as, {reg::a(0), reg::a(1)});
    emitAlloc(as, 2, t(0), t(1));
    as.stnw(reg::a(0), t(0), 0);
    as.stnw(reg::a(1), t(0), wordOff(1));
    // Retag other(010) -> cons(110).
    as.addiR(reg::a(0), t(0), 4);
    as.ret();

    // make_vector: r1 = length (fixnum), r2 = fill value ->
    // r1 = other-tagged pointer to [len, e0, e1, ...].
    as.bind(sym::makeVector);
    emitEncoreChecks(as, {reg::a(0), reg::a(1)});
    as.sraiR(t(1), reg::a(0), 2);       // raw element count
    as.addiR(t(2), t(1), 1);            // + header
    as.ldnw(t(0), reg::g(0), nbo(nb::heapPtr));
    as.addR(t(3), t(0), t(2));
    as.stnw(t(3), reg::g(0), nbo(nb::heapPtr));
    as.ldnw(t(4), reg::g(0), nbo(nb::heapLimit));
    as.cmpR(t(3), t(4));
    as.jRaw(Cond::GT, sym::fault);
    as.nop();
    as.slliR(t(0), t(0), tagged::tagShift);
    as.oriR(t(0), t(0), uint8_t(Tag::Other));
    as.stnw(reg::a(0), t(0), 0);        // length header
    as.mov(t(2), t(0));
    as.bind("mv$fill");
    as.cmpiR(t(1), 0);
    as.jRaw(Cond::LE, "mv$done");
    as.nop();
    as.addiR(t(2), t(2), kWordOff);
    as.stnw(reg::a(1), t(2), 0);
    as.subiR(t(1), t(1), 1);
    as.j(Cond::AL, "mv$fill");
    as.bind("mv$done");
    as.mov(reg::a(0), t(0));
    as.ret();

    // stolen_exit: r1 = future, r2 = the value the parent computed.
    // The parent's continuation was stolen: resolve the future, free
    // this thread's stack segment (safe: the thief copied what it
    // needs under the deque lock, and our pop held that same lock),
    // and become a worker.
    as.bind(sym::stolenExit);
    as.note("tp$stolen_exit");          // r1 = the continuation's future
    as.call(sym::resolve);
    as.ldnw(t(0), reg::g(0), nbo(nb::stackFree));
    as.stnw(t(0), reg::sb, 0);
    as.stnw(reg::sb, reg::g(0), nbo(nb::stackFree));
    emitCount(as, nb::busyFrames, t(0), -1);
    as.j(Cond::AL, sym::sched);
}

void
Runtime::emitLazyOps(Assembler &) const
{
    // The owner-side push and pop of lazy-task markers are inlined by
    // the compiler (they are a handful of instructions — the whole
    // point of lazy task creation). Only the thief side lives here,
    // inside the scheduler's steal path.
}

void
Runtime::emitScheduler(Assembler &as) const
{
    // ------------------------------------------------------------------
    // The per-processor scheduler (Figure 2's ready/suspended queue
    // machinery). Priority order: resume woken threads, run local
    // eager tasks (newest first), then steal — first a task from a
    // random victim's queue (oldest first), then a lazy continuation
    // from its deque.
    // ------------------------------------------------------------------
    as.bind(sym::sched);
    as.rdpsr(t(0));
    as.oriR(t(0), t(0), int32_t(psr::ET));
    as.wrpsr(t(0));
    as.movi(t(7), 1);           // fruitless-round backoff exponent

    as.bind("sc$loop");
    // --- 1. ready queue -----------------------------------------------
    emitLockAcquire(as, reg::g(0), nb::readyLock, t(0));
    as.ldnw(t(1), reg::g(0), nbo(nb::readyHead));
    as.cmpiR(t(1), 0);
    as.jRaw(Cond::NE, "sc$resume");
    as.nop();
    emitLockRelease(as, reg::g(0), nb::readyLock, t(0));

    // --- 2. local eager task (LIFO pop for locality) -------------------
    emitLockAcquire(as, reg::g(0), nb::taskLock, t(0));
    as.ldnw(t(1), reg::g(0), nbo(nb::taskBottom));
    as.ldnw(t(2), reg::g(0), nbo(nb::taskTop));
    as.cmpR(t(1), t(2));
    as.jRaw(Cond::GT, "sc$pop_task");
    as.nop();
    emitLockRelease(as, reg::g(0), nb::taskLock, t(0));

    // --- 3. steal, but only while the node is idle ---------------------
    // A node holding any task already has work to run and stalls to
    // hide behind it; stealing more only lifts remote continuations
    // whose distribution cost (stack copy, future churn) exceeds the
    // stall they would hide, and the scan itself occupies the pipe
    // and the victims' queue locks that loaded frames need for their
    // retries. So work acquisition is purely demand-driven: only a
    // frame on an otherwise-empty node goes hunting. Local pops and
    // ready-queue resumes above are never gated, and the unlocked
    // read races benignly — a late thief costs one wasted scan.
    as.ldnw(t(1), reg::g(0), nbo(nb::busyFrames));
    as.cmpiR(t(1), 0);
    as.jRaw(Cond::GT, "sc$backoff");
    as.nop();
    // The probe marks the random read: exactly one completion per
    // steal round, and never inside a lock-acquire spin.
    as.note("tp$steal_try");
    as.ldio(t(3), int(IoReg::Random));
    as.andiR(t(3), t(3), 0x7FFFFFFF);
    as.push({.op = Opcode::REM, .rd = t(3), .rs1 = t(3),
             .rs2 = reg::g(4)});
    as.push({.op = Opcode::SLL, .rd = t(4), .rs1 = t(3),
             .rs2 = reg::g(3)});
    as.addiR(t(4), t(4), int32_t(nodeBlockOff));
    as.slliR(t(4), t(4), tagged::tagShift);
    as.oriR(t(4), t(4), uint8_t(Tag::Other));   // victim node block

    // --- 3a. steal a woken thread off the victim's ready queue ---------
    // A thread woken by a resolver on a busy node would otherwise wait
    // for that node's scheduler; migrating it keeps wake-up latency
    // bounded (threads are virtual and location-transparent, Sec 3).
    emitLockAcquire(as, t(4), nb::readyLock, t(0));
    as.ldnw(t(1), t(4), nbo(nb::readyHead));
    as.cmpiR(t(1), 0);
    as.jRaw(Cond::NE, "sc$steal_ready");
    as.nop();
    emitLockRelease(as, t(4), nb::readyLock, t(0));

    // --- 3b. steal an eager task (oldest first) ------------------------
    emitLockAcquire(as, t(4), nb::taskLock, t(0));
    as.ldnw(t(1), t(4), nbo(nb::taskBottom));
    as.ldnw(t(2), t(4), nbo(nb::taskTop));
    as.cmpR(t(1), t(2));
    as.jRaw(Cond::GT, "sc$steal_task");
    as.nop();
    emitLockRelease(as, t(4), nb::taskLock, t(0));

    // --- 3b. steal a lazy continuation ---------------------------------
    // The deque lock only serializes thieves over the top index; the
    // actual claim is one atomic consuming load of the marker's f/e
    // state word, racing fairly against the owner's inline pop.
    emitLockAcquire(as, t(4), nb::dequeLock, t(0));
    as.bind("sc$deq_scan");
    as.ldnw(t(1), t(4), nbo(nb::dequeTop));
    as.ldnw(t(2), t(4), nbo(nb::dequeBottom));
    as.cmpR(t(1), t(2));
    as.jRaw(Cond::GE, "sc$deq_empty");
    as.nop();
    as.andiR(t(5), t(1), int32_t(dequeCapacity - 1));
    as.slliR(t(5), t(5), tagged::tagShift);
    as.ldnw(t(6), t(4), nbo(nb::dequeBase));
    as.addR(t(5), t(5), t(6));
    as.ldnw(t(5), t(5), 0);                     // the marker pointer
    as.addiR(t(1), t(1), 1);                    // consume the entry
    as.stnw(t(1), t(4), nbo(nb::dequeTop));
    // Claim attempt: atomically read-and-empty the state word.
    as.ldenw(t(6), t(5), wordOff(marker::state));
    as.jRaw(Cond::EMPTY, "sc$deq_scan");        // owner got it: skip
    as.nop();
    as.cmpiR(t(6), 0);
    as.jRaw(Cond::EQ, "sc$deq_won");
    as.nop();
    // Stale entry for an already-stolen marker: undo and move on.
    as.stfnw(t(6), t(5), wordOff(marker::state));
    as.j(Cond::AL, "sc$deq_scan");

    as.bind("sc$deq_won");
    as.note("tp$deq_won");              // t5 = the claimed marker
    emitCount(as, nb::statSteals, t(0));
    emitCount(as, nb::busyFrames, t(0));

    // Copy the continuation's stack — everything from the victim
    // thread's stack base up to the top of the marked frame — onto a
    // fresh local segment. The victim keeps executing the future body
    // on its own (younger) portion, so the two never collide; the
    // copy happens under the victim's deque lock, which also orders
    // it against the owner's pop. This realizes the stack splitting
    // of lazy task creation [Mohr et al. 1990].
    as.ldnw(t(1), t(5), wordOff(marker::stackBase));    // boxed src
    as.ldnw(t(2), t(5), wordOff(marker::frameTop));     // boxed end
    as.subR(t(3), t(2), t(1));
    as.sraiR(t(3), t(3), tagged::tagShift);             // words to copy
    // Allocate copy + headroom for the continuation's deeper calls.
    as.ldnw(t(6), reg::g(0), nbo(nb::heapPtr));
    as.addR(t(7), t(6), t(3));
    as.addiR(t(7), t(7), int32_t(stackWords));
    as.stnw(t(7), reg::g(0), nbo(nb::heapPtr));
    as.ldnw(t(7), reg::g(0), nbo(nb::heapLimit));
    as.ldnw(t(0), reg::g(0), nbo(nb::heapPtr));
    as.cmpR(t(0), t(7));
    as.jRaw(Cond::GT, sym::fault);
    as.nop();
    as.slliR(t(6), t(6), tagged::tagShift);
    as.oriR(t(6), t(6), uint8_t(Tag::Other));           // boxed dst base
    // Copy with the block-transfer mechanism (Section 3.4): one word
    // per cycle, data and f/e bits together, processor held.
    as.sraiR(t(0), t(1), tagged::tagShift);
    as.stio(int(IoReg::BlockSrc), t(0));
    as.sraiR(t(0), t(6), tagged::tagShift);
    as.stio(int(IoReg::BlockDst), t(0));
    as.stio(int(IoReg::BlockGo), t(3));
    as.bind("sc$copy_done");
    // Only now that the copy is complete may the owner proceed:
    // create the future and refill the state word with it.
    as.call(sym::makeFuture);                   // r1 = new future
    as.note("tp$lazy_pub");             // t5 = marker, r1 = its future
    as.stfnw(reg::a(0), t(5), wordOff(marker::state));
    emitLockRelease(as, t(4), nb::dequeLock, t(0));
    // Resume the continuation on the copy: sp' = dst + (frameBase -
    // stackBase); it expects the future in r1.
    as.ldnw(t(1), t(5), wordOff(marker::frameBase));
    as.ldnw(t(2), t(5), wordOff(marker::stackBase));
    as.subR(t(1), t(1), t(2));
    as.addR(reg::sp, t(6), t(1));
    as.mov(reg::sb, t(6));
    as.ldnw(t(6), t(5), wordOff(marker::resumePC));
    as.jmpReg(t(6));

    as.bind("sc$deq_empty");
    emitLockRelease(as, t(4), nb::dequeLock, t(0));
    as.bind("sc$backoff");
    // A fruitless round ends in yields, not a busy wait: every yield
    // hands the pipe to the task frames waiting on remote fills or
    // unresolved futures (the rotation of Section 3.1 runs their
    // retry chains), and the number of yields per round doubles up to
    // a cap, so a swarm of idle frames neither starves working nodes
    // of their deque locks nor delays loaded frames' retries behind
    // full steal scans — the steal-convoy pathology the task plane's
    // health detector flags (DESIGN.md §7.10).
    as.addR(t(7), t(7), t(7));
    as.cmpiR(t(7), 32);
    as.jRaw(Cond::LE, "sc$backoff_go");
    as.nop();
    as.movi(t(7), 32);
    as.bind("sc$backoff_go");
    as.mov(t(2), t(7));         // this round's yield countdown
    as.bind("sc$byield");
    if (opts.hardwareSwitch) {
        as.incfp();             // custom APRIL: 4-cycle hardware switch
    } else {
        as.moviLabel(t(1), "sc$bnext");
        as.wrspec(Spec::TrapPC, t(1));
        as.addiR(t(1), t(1), 1);
        as.wrspec(Spec::TrapNPC, t(1));
        as.rdpsr(t(0));
        as.incfp();
        as.wrpsr(t(0));
        as.rettRetry();
        as.bind("sc$bnext");
    }
    as.subiR(t(2), t(2), 1);
    as.jRaw(Cond::GT, "sc$byield");
    as.nop();
    as.j(Cond::AL, "sc$loop");

    // --- steal a woken thread (victim readyLock held, t1 = desc) -------
    as.bind("sc$steal_ready");
    as.note("tp$resume_steal");         // t1 = the migrating thread
    as.ldnw(t(2), t(1), wordOff(thread::link));
    as.stnw(t(2), t(4), nbo(nb::readyHead));
    emitLockRelease(as, t(4), nb::readyLock, t(0));
    emitCount(as, nb::statResumes, t(0));
    as.j(Cond::AL, "sc$restore");

    // --- resume a woken thread (readyLock held, t1 = descriptor) -------
    as.bind("sc$resume");
    as.note("tp$resume");               // t1 = the woken thread
    as.ldnw(t(2), t(1), wordOff(thread::link));
    as.stnw(t(2), reg::g(0), nbo(nb::readyHead));
    emitLockRelease(as, reg::g(0), nb::readyLock, t(0));
    emitCount(as, nb::statResumes, t(0));
    as.bind("sc$restore");
    emitCount(as, nb::busyFrames, t(0));
    as.ldnw(t(2), t(1), wordOff(thread::psr));
    as.ldnw(t(3), t(1), wordOff(thread::pc));
    as.wrspec(Spec::TrapPC, t(3));
    as.ldnw(t(3), t(1), wordOff(thread::npc));
    as.wrspec(Spec::TrapNPC, t(3));
    for (uint8_t r = 1; r < 32; ++r)
        as.ldnw(r, t(1), wordOff(thread::regsBase + r - 1));
    as.wrpsr(t(2));
    as.rettRetry();

    // --- run a local task (taskLock held, t1 = bottom) ------------------
    as.bind("sc$pop_task");
    as.subiR(t(1), t(1), 1);
    as.stnw(t(1), reg::g(0), nbo(nb::taskBottom));
    as.andiR(t(2), t(1), int32_t(taskQueueCapacity - 1));
    as.slliR(t(2), t(2), tagged::tagShift);
    as.ldnw(t(3), reg::g(0), nbo(nb::taskBase));
    as.addR(t(2), t(2), t(3));
    as.ldnw(t(5), t(2), 0);
    as.note("tp$pop");                  // t5 = the popped descriptor
    emitLockRelease(as, reg::g(0), nb::taskLock, t(0));
    as.j(Cond::AL, "sc$run_task");

    // --- run a stolen task (victim taskLock held, t2 = top) -------------
    as.bind("sc$steal_task");
    as.andiR(t(5), t(2), int32_t(taskQueueCapacity - 1));
    as.slliR(t(5), t(5), tagged::tagShift);
    as.ldnw(t(6), t(4), nbo(nb::taskBase));
    as.addR(t(5), t(5), t(6));
    as.ldnw(t(5), t(5), 0);
    as.note("tp$steal_task");           // t5 = the stolen descriptor
    as.addiR(t(2), t(2), 1);
    as.stnw(t(2), t(4), nbo(nb::taskTop));
    emitLockRelease(as, t(4), nb::taskLock, t(0));
    emitCount(as, nb::statSteals, t(0));
    // fall through

    // --- common task execution (t5 = task descriptor) -------------------
    as.bind("sc$run_task");
    emitCount(as, nb::busyFrames, t(0));
    // Get a stack segment: free list first, else carve from the heap.
    as.ldnw(t(6), reg::g(0), nbo(nb::stackFree));
    as.cmpiR(t(6), 0);
    as.jRaw(Cond::NE, "sc$have_stack");
    as.nop();
    emitAlloc(as, stackWords, t(6), t(0));
    as.j(Cond::AL, "sc$stacked");
    as.bind("sc$have_stack");
    as.ldnw(t(0), t(6), 0);
    as.stnw(t(0), reg::g(0), nbo(nb::stackFree));
    as.bind("sc$stacked");
    // Stash the future and segment base below the task's frame.
    as.ldnw(t(0), t(5), wordOff(task::future));
    as.stnw(t(0), t(6), 0);
    as.stnw(t(6), t(6), wordOff(1));
    as.mov(reg::sb, t(6));
    as.addiR(reg::sp, t(6), wordOff(2));
    for (int i = 0; i < 4; ++i)
        as.ldnw(uint8_t(1 + i), t(5), wordOff(task::arg0 + i));
    emitEncoreChecks(as, {1, 2, 3, 4});
    as.ldnw(t(7), t(5), wordOff(task::fn));
    as.note("tp$run");                  // t5 = descriptor entering run
    as.callReg(t(7));
    // Back with the result in r1: resolve the future, recycle the
    // stack, and look for more work. (t-registers were clobbered by
    // any traps inside the task; recompute from sp.)
    as.subiR(t(6), reg::sp, wordOff(2));
    as.mov(reg::a(1), reg::a(0));
    as.ldnw(reg::a(0), t(6), 0);
    as.call(sym::resolve);
    emitCount(as, nb::busyFrames, t(1), -1);
    as.ldnw(t(0), reg::g(0), nbo(nb::stackFree));
    as.stnw(t(0), t(6), 0);
    as.stnw(t(6), reg::g(0), nbo(nb::stackFree));
    as.movi(t(7), 1);           // fresh work search, fresh backoff
    as.j(Cond::AL, "sc$loop");
}

void
Runtime::emitBoot(Assembler &as) const
{
    // Boot thread (node 0): run the compiled main function, report the
    // result on the console, stop the machine.
    as.bind(sym::boot);
    as.note("tp$root");
    emitCount(as, nb::busyFrames, t(0));
    as.ldnw(reg::sp, reg::g(0), nbo(nb::mainStack));
    as.mov(reg::sb, reg::sp);
    as.call(sym::userMain);
    as.note("tp$root_end");
    as.stio(int(IoReg::ConsoleOut), reg::a(0));
    as.stio(int(IoReg::MachineHalt), reg::a(0));
    as.halt();

    // All other processors (and frames) start here.
    as.bind(sym::idle);
    as.j(Cond::AL, sym::sched);

    // Unrecoverable run-time fault (heap/queue exhaustion): report a
    // sentinel and stop, so simulations fail loudly, never silently.
    as.bind(sym::fault);
    as.movi(reg::a(0), tagged::fixnum(-999999));
    as.stio(int(IoReg::ConsoleOut), reg::a(0));
    as.stio(int(IoReg::MachineHalt), reg::a(0));
    as.halt();
}

void
Runtime::emit(Assembler &as) const
{
    emitHandlers(as);
    emitFutureOps(as);
    emitHeapOps(as);
    emitLazyOps(as);
    emitScheduler(as);
    emitBoot(as);
}

void
Runtime::initNode(SharedMemory &mem, uint32_t node)
{
    if (!isPowerOf2(mem.wordsPerNode()))
        fatal("Runtime: wordsPerNode must be a power of two");

    Addr base = mem.nodeBase(node);
    Addr blk = base + nodeBlockOff;

    auto put = [&](int slot, Word v) { mem.write(blk + Addr(slot), v); };
    auto box = [](Addr a) { return tagged::ptr(a, Tag::Other); };

    Addr heap_start = base + heapOff;
    if (node == 0) {
        // The boot thread's stack is carved off the front of the heap.
        put(nb::mainStack, box(heap_start));
        heap_start += mainStackWords;
    }
    put(nb::heapPtr, heap_start);
    put(nb::heapLimit, base + mem.wordsPerNode());
    put(nb::taskBase, box(base + taskQueueOff));
    put(nb::dequeBase, box(base + dequeOff));
    // Queue indices, free lists and counters start at zero; lock words
    // are "full" (unlocked) because fresh memory is full.
    TRACE(Runtime, "initNode n", node, " heap=[", heap_start, ",",
          base + mem.wordsPerNode(), ")");
}

BootEntries
BootEntries::of(const Program &prog)
{
    return {.boot = prog.entry(sym::boot),
            .idle = prog.entry(sym::idle),
            .sched = prog.entry(sym::sched),
            .cswitch = prog.entry(sym::cswitch),
            .futureTouch = prog.entry(sym::futureTouch),
            .ipi = prog.entry(sym::ipi)};
}

void
Runtime::bootProcessor(Processor &proc, const BootEntries &entry,
                       SharedMemory &mem, uint32_t node,
                       uint32_t num_nodes)
{
    const uint32_t start = node == 0 ? entry.boot : entry.idle;
    proc.reset(start);

    Addr blk = mem.nodeBase(node) + nodeBlockOff;
    proc.writeGlobal(0, tagged::ptr(blk, Tag::Other));
    proc.writeGlobal(1, entry.sched);
    proc.writeGlobal(2, node);
    proc.writeGlobal(3, log2i(mem.wordsPerNode()));
    proc.writeGlobal(4, num_nodes);

    proc.setTrapVector(TrapKind::RemoteMiss, entry.cswitch);
    proc.setTrapVector(TrapKind::FeEmpty, entry.cswitch);
    proc.setTrapVector(TrapKind::FeFull, entry.cswitch);
    proc.setTrapVector(TrapKind::FutureCompute, entry.futureTouch);
    proc.setTrapVector(TrapKind::FutureMemory, entry.futureTouch);
    proc.setTrapVector(TrapKind::Ipi, entry.ipi);

    TRACE(Runtime, "bootProcessor n", node, "/", num_nodes, " entry=",
          start, " frames=", proc.numFrames());

    // Park the remaining task frames in the scheduler so that
    // switch-spinning rotation always lands on runnable code.
    for (uint32_t f = 1; f < proc.numFrames(); ++f) {
        proc.frame(f).trapPC = entry.idle;
        proc.frame(f).trapNPC = entry.idle + 1;
        proc.frame(f).trapRegs[0] = psr::ET;
        proc.frame(f).savedPsr = psr::ET;
    }
}

} // namespace april::rt
