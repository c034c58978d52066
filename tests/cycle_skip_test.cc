/**
 * @file
 * The cycle-skipping engine: unit tests for every nextEventCycle()
 * implementation (processor stalled/halted, controller pending work,
 * network in-flight packet) and differential tests asserting that
 * fast-forwarding is cycle-exact — identical final cycle counts,
 * statistics and console output with skipping on and off, on both the
 * perfect-memory machine and the full ALEWIFE machine.
 */

#include <gtest/gtest.h>

#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/snapshot.hh"
#include "workloads/workloads.hh"

#include "test_support/machine_workloads.hh"
#include "test_support/proc_rig.hh"

namespace april
{
namespace
{

using namespace tagged;

// ---------------------------------------------------------------------
// Processor::nextEventCycle / skipCycles
// ---------------------------------------------------------------------

Program
buildMulThenHalt()
{
    Assembler as;
    as.bind("main");
    as.movi(1, fixnum(6));
    as.movi(2, fixnum(7));
    as.mul(3, 1, 2);            // multi-cycle: stalls the core
    as.halt();
    return as.finish();
}

TEST(ProcNextEvent, RunnableStalledHalted)
{
    testutil::Rig rig(buildMulThenHalt());
    Processor &p = rig.proc;

    // Runnable: the next event is simply the next tick.
    EXPECT_EQ(p.nextEventCycle(), p.cycle() + 1);

    p.tick();                   // movi
    p.tick();                   // movi
    p.tick();                   // mul issues and stalls
    uint64_t next = p.nextEventCycle();
    EXPECT_GT(next, p.cycle() + 1) << "MUL must leave the core stalled";

    // Nothing observable happens strictly before `next`...
    while (p.cycle() < next - 1)
        p.tick();
    EXPECT_EQ(p.statInsts.value(), 3.0);
    EXPECT_FALSE(p.halted());
    // ... and at `next` the core executes again (HALT here).
    p.tick();
    EXPECT_TRUE(p.halted());

    // Halted: never again.
    EXPECT_EQ(p.nextEventCycle(), kNeverCycle);
    uint64_t before = p.cycle();
    p.skipCycles(12345);        // ignored, exactly as tick() would be
    EXPECT_EQ(p.cycle(), before);
}

TEST(ProcNextEvent, SkipCyclesMatchesTicking)
{
    testutil::Rig ticked(buildMulThenHalt());
    testutil::Rig skipped(buildMulThenHalt());

    for (int i = 0; i < 3; ++i) {
        ticked.proc.tick();
        skipped.proc.tick();
    }
    uint64_t next = ticked.proc.nextEventCycle();
    ASSERT_EQ(next, skipped.proc.nextEventCycle());

    // One core ticks through the stall window, the other jumps to one
    // cycle before the event, then both run to completion.
    while (ticked.proc.cycle() < next - 1)
        ticked.proc.tick();
    skipped.proc.skipCycles(next - skipped.proc.cycle() - 1);

    ticked.run();
    skipped.run();
    EXPECT_EQ(ticked.proc.cycle(), skipped.proc.cycle());
    EXPECT_EQ(ticked.proc.statCycles.value(),
              skipped.proc.statCycles.value());
    EXPECT_EQ(ticked.proc.statStallCycles.value(),
              skipped.proc.statStallCycles.value());
    EXPECT_EQ(ticked.proc.statInsts.value(),
              skipped.proc.statInsts.value());
    EXPECT_EQ(ticked.proc.readReg(3), skipped.proc.readReg(3));
}

TEST(ProcNextEvent, SkipPastEventPanics)
{
    testutil::Rig rig(buildMulThenHalt());
    for (int i = 0; i < 3; ++i)
        rig.proc.tick();
    uint64_t window = rig.proc.nextEventCycle() - rig.proc.cycle();
    // Skipping to (or past) the event would swallow an execution.
    EXPECT_THROW(rig.proc.skipCycles(window), PanicError);
}

// ---------------------------------------------------------------------
// coh::Controller::nextEventCycle
// ---------------------------------------------------------------------

/** A fabric stub with a settable clock. */
struct FakeFabric : coh::Fabric
{
    uint64_t cur = 100;
    int transmitted = 0;

    void
    transmit(uint32_t, const coh::Message &, uint32_t) override
    {
        ++transmitted;
    }

    uint64_t now() const override { return cur; }
};

TEST(CtrlNextEvent, IdlePendingAndInbox)
{
    SharedMemory mem({.numNodes = 1, .wordsPerNode = 1u << 16});
    FakeFabric fabric;
    coh::ControllerParams cp;
    cp.cache = {.lineWords = 4, .numLines = 16, .assoc = 2};
    coh::Controller ctrl(cp, 0, 4, &mem, &fabric);

    // Fully idle: no self-generated events, ever.
    EXPECT_EQ(ctrl.nextEventCycle(), kNeverCycle);

    // A cache miss queues a request behind controller occupancy: the
    // next event is that entry's due time.
    MemAccess req;
    req.addr = 64;
    req.op = MemOp::Load;
    MemResult r = ctrl.access(req);
    EXPECT_EQ(r.kind, MemResult::Kind::Retry);
    EXPECT_EQ(ctrl.nextEventCycle(),
              fabric.cur + coh::ControllerParams::kOccupancy);

    // An entry already due (the clock moved past it) dispatches on the
    // very next tick, never in the past.
    fabric.cur += 50;
    EXPECT_EQ(ctrl.nextEventCycle(), fabric.cur + 1);

    // A queued message is handled on the next tick.
    fabric.cur += 100;
    coh::Message msg;
    msg.type = coh::MsgType::FenceAck;
    ctrl.receive(msg);
    EXPECT_EQ(ctrl.nextEventCycle(), fabric.cur + 1);
}

// The network computes each packet's arrival cycle at injection time
// (endpoint model) and keeps no per-cycle state, so it has no
// nextEventCycle() of its own: in-flight packets bound the machine's
// skip windows through the per-node arrival queues, which the
// machine-level differential below (and tests/parallel_run_test.cc)
// pin cycle-exactly.

// ---------------------------------------------------------------------
// Differential: coherence-stress workload on the full machine
// ---------------------------------------------------------------------

RunRecord
runStallStress(bool skip)
{
    Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    testutil::bootStallStress(m, prog);
    m.run(20'000'000);
    return recordRun(m);
}

TEST(CycleSkipDifferential, CoherenceStressOnAlewife)
{
    RunRecord on = runStallStress(true);
    RunRecord off = runStallStress(false);
    ASSERT_TRUE(on.snap.halted);
    ASSERT_EQ(on.snap.console.size(), 1u);
    EXPECT_EQ(on.snap.console.at(0),
              Word(fixnum(4 * testutil::kStressIters)));
    EXPECT_EQ(compareRuns(on, off), "")
        << "every output must be identical with skipping on/off";
}

// ---------------------------------------------------------------------
// Differential: future-heavy Mul-T workload, both machines
// ---------------------------------------------------------------------

RunRecord
runEagerFibAlewife(bool skip)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Eager;
    Program prog = mult::compileProgram(workloads::fibSource(9), copts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.cycleSkip = skip;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    AlewifeMachine m(p, &prog);
    m.run(80'000'000);
    return recordRun(m);
}

TEST(CycleSkipDifferential, EagerFutureFibOnAlewife)
{
    RunRecord on = runEagerFibAlewife(true);
    RunRecord off = runEagerFibAlewife(false);
    ASSERT_TRUE(on.snap.halted);
    ASSERT_FALSE(on.snap.console.empty());
    EXPECT_EQ(on.snap.console.back(), Word(fixnum(34)));
    EXPECT_EQ(compareRuns(on, off), "");
}

/**
 * Eager-future fib(10) on the 4-node perfect machine with the profile,
 * interval-series, machine-trace and task planes on, run to its halt
 * in one run() call, or in run(@p chunk) calls when @p chunk is set.
 */
RunRecord
runEagerFibPerfect(bool skip, uint64_t chunk = 0)
{
    DriverOptions o =
        DriverOptions::april(mult::CompileOptions::FutureMode::Eager, 4);
    o.cycleSkip = skip;
    o.profile = true;
    o.statsInterval = 1000;
    o.traceEvents = true;
    o.taskTrace = true;
    Program prog =
        mult::compileProgram(workloads::fibSource(10), o.compile);
    std::unique_ptr<Machine> m = makeMachine(prog, o);
    while (!m->halted() && m->cycle() < o.maxCycles)
        m->run(chunk ? chunk : o.maxCycles);
    return recordRun(*m);
}

TEST(CycleSkipDifferential, EagerFutureFibOnPerfectMachine)
{
    RunRecord on = runEagerFibPerfect(true);
    ASSERT_TRUE(on.snap.halted);
    ASSERT_FALSE(on.snap.console.empty());
    EXPECT_EQ(on.snap.console.back(), Word(fixnum(55)));
    ASSERT_FALSE(on.outputs.series.empty());
    ASSERT_FALSE(on.outputs.trace.empty());
    EXPECT_EQ(compareRuns(on, runEagerFibPerfect(false)), "");
}

TEST(CycleSkipDifferential, PausedPerfectMachineMatchesOneRun)
{
    RunRecord whole = runEagerFibPerfect(true);
    EXPECT_EQ(compareRuns(whole, runEagerFibPerfect(true, 1)), "")
        << "run(1) chunks";
    EXPECT_EQ(compareRuns(whole, runEagerFibPerfect(true, 997)), "")
        << "run(997) chunks";
}

} // namespace
} // namespace april
