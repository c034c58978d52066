/**
 * @file
 * Task-level observability (DESIGN.md §7.10): the probe notes fire,
 * the analysis pass mints tasks and builds the DAG, a lazy future
 * that is actually stolen produces the Spawn -> Steal -> Resolve span
 * chain with the wait attributed to the future cell, and the whole
 * report is byte-identical across cycle-skip on/off and host-thread
 * counts — the same differential guarantee the machine and coherence
 * traces already carry.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/snapshot.hh"
#include "mult/compiler.hh"
#include "task/task_trace.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

// ---------------------------------------------------------------------
// Analysis unit tests on synthetic event streams
// ---------------------------------------------------------------------

task::TaskEvent
ev(uint64_t cycle, uint64_t work, uint32_t node, task::Ev kind,
   Addr addr = 0, uint32_t aux = 0)
{
    return {cycle, work, node, addr, aux, kind, 0};
}

/** A task log holding exactly @p events. */
task::Tracer
logOf(const std::vector<task::TaskEvent> &events)
{
    task::Tracer log(events.size());
    for (const task::TaskEvent &e : events)
        log.record(e);
    return log;
}

TEST(TaskAnalysis, EagerSpawnStealRunResolveMintsOneTask)
{
    using task::Ev;
    std::vector<task::TaskEvent> log = {
        ev(10, 5, 0, Ev::Spawn, 100, 200),       // desc 100, future 200
        ev(20, 0, 1, Ev::StealTask, 100),        // node 1 stole it
        ev(21, 0, 1, Ev::Run, 100),
        ev(90, 50, 1, Ev::Resolve, 200),
    };
    task::AnalyzeParams p;
    p.numNodes = 2;
    p.totalCycles = 100;
    task::Report r = task::analyze(logOf(log), p);

    ASSERT_EQ(r.tasks.size(), 1u);
    const task::TaskInfo &t = r.tasks[0];
    EXPECT_EQ(t.spawnNode, 0u);
    EXPECT_EQ(t.runNode, 1u);
    EXPECT_TRUE(t.stolen);
    EXPECT_TRUE(t.ran);
    EXPECT_FALSE(t.lazy);
    EXPECT_EQ(t.spawnCycle, 10u);
    EXPECT_EQ(t.runCycle, 21u);
    EXPECT_EQ(t.resolveCycle, 90u);
    EXPECT_EQ(t.future, 200u);
    EXPECT_EQ(t.work, 50u);                      // resolve - run snapshot
    EXPECT_EQ(r.steals, 1u);
    EXPECT_EQ(r.spawns, 1u);
    EXPECT_EQ(r.totalWork, 50u);

    // The future's sync word knows its producer.
    ASSERT_EQ(r.syncWords.size(), 1u);
    EXPECT_EQ(r.syncWords[0].addr, 200u);
    EXPECT_EQ(r.syncWords[0].producer, t.id);
}

TEST(TaskAnalysis, BlockResumeChargesWaitToFutureAndTask)
{
    using task::Ev;
    std::vector<task::TaskEvent> log = {
        ev(10, 0, 0, Ev::Spawn, 100, 200),
        ev(12, 0, 0, Ev::Run, 100),
        ev(40, 10, 0, Ev::Block, 200, 77),       // blocks on future 200
        ev(300, 10, 0, Ev::Resume, 77),          // thread 77 comes back
        ev(400, 30, 0, Ev::Resolve, 200),
    };
    task::AnalyzeParams p;
    p.numNodes = 1;
    p.totalCycles = 500;
    task::Report r = task::analyze(logOf(log), p);

    ASSERT_EQ(r.tasks.size(), 1u);
    EXPECT_EQ(r.tasks[0].waitCycles, 260u);      // 300 - 40
    EXPECT_EQ(r.waitTotal, 260u);
    ASSERT_EQ(r.syncWords.size(), 1u);
    EXPECT_EQ(r.syncWords[0].totalWait, 260u);
    EXPECT_EQ(r.syncWords[0].blocks, 1u);
    EXPECT_EQ(r.health.lostWakeups, 0u);
}

TEST(TaskAnalysis, UnresumedBlockIsALostWakeup)
{
    using task::Ev;
    std::vector<task::TaskEvent> log = {
        ev(10, 0, 0, Ev::Spawn, 100, 200),
        ev(12, 0, 0, Ev::Run, 100),
        ev(40, 10, 0, Ev::Block, 200, 77),
    };
    task::Report r = task::analyze(logOf(log), {.numNodes = 1,
                                         .totalCycles = 100});
    EXPECT_EQ(r.health.lostWakeups, 1u);
}

TEST(TaskAnalysis, CriticalPathFollowsDependencyChain)
{
    using task::Ev;
    // Parent spawns child at work 10, blocks on its future at work
    // 30, child does 100 work, parent finishes with 20 more.
    std::vector<task::TaskEvent> log = {
        ev(5, 0, 0, Ev::Spawn, 50, 60),          // parent task
        ev(6, 0, 0, Ev::Run, 50),
        ev(10, 10, 0, Ev::Spawn, 100, 200),      // child (from parent)
        ev(20, 0, 1, Ev::StealTask, 100),
        ev(21, 0, 1, Ev::Run, 100),
        ev(30, 30, 0, Ev::Block, 200, 77),
        ev(200, 100, 1, Ev::Resolve, 200),       // child's 100 work
        ev(210, 30, 0, Ev::Resume, 77),
        ev(260, 50, 0, Ev::Resolve, 60),         // parent total work 50
    };
    task::Report r = task::analyze(logOf(log), {.numNodes = 2,
                                         .totalCycles = 300});
    ASSERT_EQ(r.tasks.size(), 2u);
    // Chain: parent start 0 + spawn offset 10 + child work 100 +
    // parent's post-wait work (50 - 30) = 130, beats the parent-only
    // 50 and child-only 110 paths.
    EXPECT_EQ(r.criticalPath, 130u);
    EXPECT_EQ(r.criticalChain.size(), 2u);
    EXPECT_TRUE(r.tasks[0].onCriticalPath);
    EXPECT_TRUE(r.tasks[1].onCriticalPath);
    EXPECT_EQ(r.totalWork, 150u);
}

TEST(TaskAnalysis, SpinEpisodesMergeAndStealConvoysDetected)
{
    using task::Ev;
    std::vector<task::TaskEvent> log;
    // 20 consecutive TAS retries on one word = one episode.
    for (uint64_t i = 0; i < 20; ++i)
        log.push_back(ev(100 + i * 3, 0, 0, Ev::TasRetry, 400));
    // 16 fruitless steal rounds on node 1 = one convoy.
    for (uint64_t i = 0; i < 16; ++i)
        log.push_back(ev(200 + i * 5, 0, 1, Ev::StealAttempt));
    task::Report r = task::analyze(logOf(log), {.numNodes = 2,
                                         .totalCycles = 1000,
                                         .convoyLength = 16});
    ASSERT_EQ(r.syncWords.size(), 1u);
    EXPECT_EQ(r.syncWords[0].episodes, 1u);
    EXPECT_EQ(r.syncWords[0].tasRetries, 20u);
    EXPECT_EQ(r.health.stealConvoys, 1u);
    EXPECT_EQ(r.stealAttempts, 16u);
}

// ---------------------------------------------------------------------
// Directed machine test: a lazy future actually stolen
// ---------------------------------------------------------------------

/** Lazy fib on a 2x2 ALEWIFE machine: idle nodes steal the deferred
 *  continuations, so the lazy claim race genuinely runs. */
std::unique_ptr<AlewifeMachine>
runLazyFib(bool skip, uint32_t threads)
{
    // One program outlives every machine that points at it.
    static const Program prog = [] {
        mult::CompileOptions copts;
        copts.futures = mult::CompileOptions::FutureMode::Lazy;
        return mult::compileProgram(workloads::fibSource(10), copts);
    }();
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.cycleSkip = skip;
    p.hostThreads = threads;
    p.taskTrace = true;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    auto m = std::make_unique<AlewifeMachine>(p, &prog);
    m->run(80'000'000);
    return m;
}

/** The task events @p m recorded, as a vector. */
std::vector<task::TaskEvent>
eventsOf(AlewifeMachine &m)
{
    const task::Tracer &log = *m.taskTracer();
    return {log.begin(), log.end()};
}

TEST(TaskTrace, LazyStealProducesSpawnStealResolveChain)
{
    auto m = runLazyFib(true, 1);
    ASSERT_TRUE(m->halted());
    const task::Tracer &log = *m->taskTracer();
    ASSERT_FALSE(log.empty());

    // The probe vocabulary fired: lazy markers were published, the
    // claim race ran, a thief resumed a continuation and futures
    // resolved.
    bool saw[task::kNumEvs] = {};
    for (const task::TaskEvent &e : log)
        saw[size_t(e.kind)] = true;
    EXPECT_TRUE(saw[size_t(task::Ev::SpawnLazy)]);
    EXPECT_TRUE(saw[size_t(task::Ev::StealWon)]);
    EXPECT_TRUE(saw[size_t(task::Ev::LazyPub)]);
    EXPECT_TRUE(saw[size_t(task::Ev::LazyResume)]);
    EXPECT_TRUE(saw[size_t(task::Ev::Resolve)]);
    EXPECT_TRUE(saw[size_t(task::Ev::Block)]);
    EXPECT_TRUE(saw[size_t(task::Ev::RootBegin)]);
    EXPECT_TRUE(saw[size_t(task::Ev::RootEnd)]);

    task::Report r = task::analyze(log, {.numNodes = 4,
                                         .totalCycles = m->cycle()});

    // At least one minted task is a stolen lazy continuation whose
    // span chain completed: spawned on the victim, run on the thief,
    // resolved with real work attributed.
    bool found_chain = false;
    for (const task::TaskInfo &t : r.tasks) {
        if (t.lazy && t.stolen && t.ran && t.resolveCycle > 0 &&
            t.spawnNode != t.runNode && t.future != 0) {
            EXPECT_LE(t.spawnCycle, t.runCycle);
            EXPECT_LT(t.runCycle, t.resolveCycle);
            found_chain = true;
        }
    }
    EXPECT_TRUE(found_chain)
        << "no lazy future was stolen and resolved";

    // Wait attribution lands on the future cell: some sync word was
    // blocked on, accumulated wait, and knows its producing task.
    bool found_wait = false;
    for (const task::SyncWord &w : r.syncWords) {
        if (w.blocks > 0 && w.totalWait > 0 && w.producer != 0)
            found_wait = true;
    }
    EXPECT_TRUE(found_wait)
        << "no wait was attributed to a produced future";

    // The DAG analysis produced a coherent latency-tolerance story.
    EXPECT_GT(r.totalWork, 0u);
    EXPECT_GT(r.criticalPath, 0u);
    EXPECT_LE(r.criticalPath, r.totalWork);
    EXPECT_GT(r.score, 0.0);
    EXPECT_LE(r.score, 1.0);
    EXPECT_FALSE(r.criticalChain.empty());
    EXPECT_GT(r.steals, 0u);
}

TEST(TaskTrace, ReportByteIdenticalAcrossSkipAndThreads)
{
    auto base = runLazyFib(true, 1);
    ASSERT_TRUE(base->halted());
    RunRecord want = recordRun(*base);
    ASSERT_FALSE(want.outputs.taskTrace.empty());
    std::vector<task::TaskEvent> events = eventsOf(*base);

    auto noskip = runLazyFib(false, 1);
    EXPECT_TRUE(events == eventsOf(*noskip));
    EXPECT_EQ(compareRuns(want, recordRun(*noskip)), "");

    for (uint32_t threads : {2u, 4u}) {
        auto par = runLazyFib(true, threads);
        EXPECT_TRUE(events == eventsOf(*par))
            << "event stream diverged at " << threads << " threads";
        RunRecord got = recordRun(*par);
        par.reset();    // its idle host workers spin while it lives
        EXPECT_EQ(compareRuns(want, got), "")
            << "run diverged at " << threads << " threads";
    }
}

// ---------------------------------------------------------------------
// Driver surface and Perfetto stitching
// ---------------------------------------------------------------------

TEST(TaskTrace, DriverReturnsTaskTraceJson)
{
    DriverOptions opts =
        DriverOptions::april(mult::CompileOptions::FutureMode::Lazy, 2);
    opts.taskTrace = true;
    DriverResult r = runMultProgram(workloads::fibSource(8), opts);
    ASSERT_FALSE(r.outputs.taskTrace.empty());
    EXPECT_NE(r.outputs.taskTrace.find("\"schemaVersion\":1"),
              std::string::npos);
    EXPECT_NE(r.outputs.taskTrace.find("\"criticalPath\""),
              std::string::npos);
    EXPECT_NE(r.outputs.taskTrace.find("\"score\""), std::string::npos);

    DriverOptions off =
        DriverOptions::april(mult::CompileOptions::FutureMode::Lazy, 2);
    DriverResult r2 = runMultProgram(workloads::fibSource(8), off);
    EXPECT_TRUE(r2.outputs.taskTrace.empty())
        << "task tracing was not requested";
}

TEST(TaskTrace, PerfettoStitchesTaskSpansIntoMachineTrace)
{
    DriverOptions opts =
        DriverOptions::april(mult::CompileOptions::FutureMode::Lazy, 2);
    opts.taskTrace = true;
    opts.traceEvents = true;
    DriverResult r = runMultProgram(workloads::fibSource(8), opts);
    ASSERT_FALSE(r.outputs.trace.empty());
    EXPECT_NE(r.outputs.trace.find("\"cat\":\"task\""), std::string::npos)
        << "task spans missing from the stitched Chrome trace";
}

TEST(TaskTrace, UntracedMachineHasNoTracer)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Lazy;
    Program prog = mult::compileProgram(workloads::fibSource(8), copts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    AlewifeMachine m(p, &prog);
    EXPECT_EQ(m.taskTracer(), nullptr);
    std::ostringstream os;
    m.writeTaskTrace(os);
    EXPECT_TRUE(os.str().empty());
}

} // namespace
} // namespace april
