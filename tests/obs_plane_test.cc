/**
 * @file
 * The shared observability plane (common/obs_log.hh). Under overflow:
 * with every trace plane capped far below what a run records, the
 * dropped-event stats and the merged logs must be the same for every
 * host-thread count, and each stat must read the same before the
 * per-shard lanes are merged as after. Independence: a plane records
 * the same log, and the machine the same statistics, whichever other
 * planes are on.
 */

#include <gtest/gtest.h>

#include <array>
#include <iostream>
#include <sstream>

#include "machine/alewife_machine.hh"
#include "machine/workload.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

constexpr std::array<const char *, 3> kDroppedStats = {
    "traceDropped", "cohTraceDropped", "taskTraceDropped"};

/** What one overflowing run leaves behind. */
struct PlaneRun
{
    std::array<double, 3> droppedBeforeMerge{};
    std::array<double, 3> droppedAfterMerge{};
    std::vector<trace::Event> trace;
    std::vector<coh::TxnEvent> coh;
    std::vector<task::TaskEvent> task;
};

std::array<double, 3>
droppedStats(const AlewifeMachine &m)
{
    std::array<double, 3> v{};
    for (size_t i = 0; i < kDroppedStats.size(); ++i)
        v[i] = m.resolve(kDroppedStats[i])->summaryValue();
    return v;
}

/** Lazy fib on a 2x2 machine with all three trace planes capped at
 *  256 events each. */
PlaneRun
runOverflowing(const Program &prog, uint32_t threads)
{
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    p.hostThreads = threads;
    p.traceEvents = p.cohTrace = p.taskTrace = true;
    p.capacity = 256;
    AlewifeMachine m(p, &prog);

    std::ostringstream warnings;
    std::streambuf *old = std::cerr.rdbuf(warnings.rdbuf());
    m.run(50'000'000);
    std::cerr.rdbuf(old);
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(m.hostThreads(), threads);

    PlaneRun r;
    r.droppedBeforeMerge = droppedStats(m);
    r.trace = m.traceRecorder()->events();
    r.coh = m.txnTracer()->events();
    r.task = m.taskTracer()->events();
    r.droppedAfterMerge = droppedStats(m);
    return r;
}

TEST(ObsPlane, DroppedEventsAgreeAcrossThreadsAndMerge)
{
    Program prog = mult::compileProgram(
        workloads::fibSource(10),
        {.futures = mult::CompileOptions::FutureMode::Lazy});

    const PlaneRun base = runOverflowing(prog, 1);
    for (size_t i = 0; i < kDroppedStats.size(); ++i)
        EXPECT_GT(base.droppedBeforeMerge[i], 0.0) << kDroppedStats[i];
    EXPECT_EQ(base.trace.size(), 256u);
    EXPECT_EQ(base.coh.size(), 256u);
    EXPECT_EQ(base.task.size(), 256u);

    for (uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("hostThreads=" + std::to_string(threads));
        const PlaneRun r = runOverflowing(prog, threads);
        EXPECT_EQ(r.droppedBeforeMerge, r.droppedAfterMerge);
        EXPECT_EQ(r.droppedBeforeMerge, base.droppedBeforeMerge);
        EXPECT_EQ(r.trace, base.trace);
        EXPECT_EQ(r.coh, base.coh);
        EXPECT_EQ(r.task, base.task);
    }
}

/** What each plane leaves behind, plus the statistics tree. */
struct PlaneOutputs
{
    std::string stats;
    std::vector<trace::Event> trace;    ///< unstitched machine events
    std::string coh;
    std::string task;
    std::string profile;
};

/** Lazy fib:8 on the 2x2 ALEWIFE of the CLI with the given planes. */
PlaneOutputs
runWithPlanes(bool trace, bool coh, bool task, bool profile)
{
    workloads::Workload w = workloads::fromSpec("fib:8");
    w.options.traceEvents = trace;
    w.options.cohTrace = coh;
    w.options.taskTrace = task;
    w.options.profile = profile;
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options);
    auto &alewife = dynamic_cast<AlewifeMachine &>(*m);
    m->run(50'000'000);
    EXPECT_TRUE(m->halted());

    auto capture = [](auto &&writer) {
        std::ostringstream os;
        writer(os);
        return os.str();
    };
    PlaneOutputs out;
    out.stats = capture([&](std::ostream &os) { m->dumpJson(os); });
    if (trace)
        out.trace = alewife.traceRecorder()->events();
    out.coh = capture([&](std::ostream &os) { alewife.writeCohTrace(os); });
    out.task = capture([&](std::ostream &os) { m->writeTaskTrace(os); });
    if (profile) {
        out.profile = capture([&](std::ostream &os) {
            profile::writeProfileJson(os, m->profileSource());
        });
    }
    return out;
}

TEST(ObsPlane, EachPlaneIsIndependentOfTheOthers)
{
    const PlaneOutputs all = runWithPlanes(true, true, true, true);
    EXPECT_FALSE(all.trace.empty());
    EXPECT_FALSE(all.coh.empty());
    EXPECT_FALSE(all.task.empty());
    EXPECT_FALSE(all.profile.empty());

    const PlaneOutputs trace = runWithPlanes(true, false, false, false);
    EXPECT_EQ(trace.trace, all.trace);
    EXPECT_EQ(trace.stats, all.stats);
    const PlaneOutputs coh = runWithPlanes(false, true, false, false);
    EXPECT_EQ(coh.coh, all.coh);
    EXPECT_EQ(coh.stats, all.stats);
    const PlaneOutputs task = runWithPlanes(false, false, true, false);
    EXPECT_EQ(task.task, all.task);
    EXPECT_EQ(task.stats, all.stats);
    const PlaneOutputs profile = runWithPlanes(false, false, false, true);
    EXPECT_EQ(profile.profile, all.profile);
    EXPECT_EQ(profile.stats, all.stats);
    EXPECT_EQ(runWithPlanes(false, false, false, false).stats, all.stats);
}

} // namespace
} // namespace april
