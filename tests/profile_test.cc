/**
 * @file
 * The cycle-accounting profiler end to end: PC-sampling grid algebra,
 * interval-sampler time series, per-node bucket attribution on a full
 * ALEWIFE machine, and the hard invariants — sum(buckets) ==
 * totalCycles on every node, and bit-identical profiles whether the
 * machine fast-forwards idle cycles or ticks through them (§7.5).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "json_test_util.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/snapshot.hh"
#include "profile/interval.hh"
#include "profile/pc_sampler.hh"
#include "profile/report.hh"
#include "test_support/machine_workloads.hh"

namespace april
{
namespace
{

using json::Json;
using json::parseJson;

// --- PcSampler unit tests --------------------------------------------

TEST(PcSampler, SamplesOnTheGlobalCycleGrid)
{
    profile::PcSampler s(10);
    for (uint64_t c = 1; c <= 100; ++c)
        s.tick(c, 0x40);
    EXPECT_EQ(s.totalSamples(), 10u);
    EXPECT_EQ(s.histogram().at(0x40), 10u);
}

TEST(PcSampler, SkipCreditsExactlyTheTickedCount)
{
    // A skipped window must produce the same samples a tick loop
    // over the same cycles would: count of grid points in (c, c+n].
    for (uint64_t start : {0ull, 3ull, 9ull, 10ull, 17ull}) {
        for (uint64_t len : {1ull, 5ull, 10ull, 23ull}) {
            profile::PcSampler ticked(10);
            for (uint64_t c = start + 1; c <= start + len; ++c)
                ticked.tick(c, 7);
            profile::PcSampler skipped(10);
            skipped.skip(start, len, 7);
            EXPECT_EQ(ticked.totalSamples(), skipped.totalSamples())
                << "start=" << start << " len=" << len;
        }
    }
}

TEST(PcSampler, PeriodZeroDisablesSampling)
{
    profile::PcSampler s(0);
    s.tick(1, 4);
    s.skip(0, 100, 4);
    EXPECT_EQ(s.totalSamples(), 0u);
}

// --- IntervalSampler unit tests --------------------------------------

TEST(IntervalSampler, CollectsDottedColumnsAndRows)
{
    stats::Group root("m");
    stats::Group child("proc0", &root);
    stats::Scalar top(&root, "cycles", "");
    stats::Scalar inner(&child, "insts", "");

    profile::IntervalSampler s(100, root);
    ASSERT_EQ(s.columns().size(), 2u);
    EXPECT_EQ(s.columns()[0], "m.cycles");
    EXPECT_EQ(s.columns()[1], "m.proc0.insts");

    top += 5;
    inner += 2;
    EXPECT_EQ(s.nextSampleCycle(0), 100u);
    EXPECT_EQ(s.nextSampleCycle(100), 200u);
    s.sampleIfDue(100);
    top += 5;
    s.sampleIfDue(150);         // not a boundary: ignored
    s.sampleIfDue(200);
    ASSERT_EQ(s.rows().size(), 2u);
    EXPECT_EQ(s.rows()[0].cycle, 100u);
    EXPECT_DOUBLE_EQ(s.rows()[0].values[0], 5.0);
    EXPECT_DOUBLE_EQ(s.rows()[1].values[0], 10.0);

    std::ostringstream os;
    s.writeCsv(os);
    EXPECT_EQ(os.str().substr(0, 24), "cycle,m.cycles,m.proc0.i");
}

TEST(IntervalSampler, SampleIfDueIsIdempotentPerBoundary)
{
    stats::Group root("m");
    stats::Scalar top(&root, "x", "");
    profile::IntervalSampler s(50, root);
    s.sampleIfDue(50);
    s.sampleIfDue(50);          // the run loop may land here twice
    EXPECT_EQ(s.rows().size(), 1u);
}

// --- full-machine invariants -----------------------------------------

/** The stall-stress workload with the profiler and the interval
 *  sampler on, run to its halt and drained. */
std::unique_ptr<AlewifeMachine>
runStress(bool cycle_skip)
{
    // One program outlives every machine that points at it.
    static const Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.bootRuntime = false;
    p.cycleSkip = cycle_skip;
    p.profile = true;
    p.profilePeriod = 64;
    p.statsInterval = 512;
    auto m = std::make_unique<AlewifeMachine>(p, &prog);
    testutil::bootStallStress(*m, prog);
    m->run(20'000'000);
    EXPECT_TRUE(m->halted());
    EXPECT_TRUE(m->quiesce(1'000'000));
    return m;
}

TEST(ProfileMachine, BucketsSumToTotalCyclesOnEveryNode)
{
    Json profile = parseJson(recordRun(*runStress(true)).outputs.profile);
    const auto &nodes = profile.at("nodes").array;
    ASSERT_EQ(nodes.size(), 4u);
    for (const Json &node : nodes) {
        double sum = 0;
        for (const auto &[name, v] : node.at("buckets").object)
            sum += v.number;
        EXPECT_EQ(sum, node.at("cycles").number)
            << "node " << node.at("node").number;
        // The frame matrix is a refinement of the same cycles.
        double frame_sum = 0;
        for (const Json &row : node.at("frames").array)
            for (const Json &v : row.array)
                frame_sum += v.number;
        EXPECT_EQ(frame_sum, node.at("cycles").number);
        // The stall-stress mix must actually exercise the buckets.
        EXPECT_GT(node.at("buckets").at("Useful").number, 0.0);
        EXPECT_GT(node.at("buckets").at("Hazard").number, 0.0);
    }
    EXPECT_GT(profile.at("machine").at("utilization").number, 0.0);
    EXPECT_LE(profile.at("machine").at("utilization").number, 1.0);
}

TEST(ProfileMachine, BitIdenticalUnderCycleSkipping)
{
    RunRecord on = recordRun(*runStress(true));
    RunRecord off = recordRun(*runStress(false));
    ASSERT_FALSE(on.outputs.profile.empty());
    ASSERT_FALSE(on.outputs.series.empty());
    EXPECT_EQ(compareRuns(on, off), "");
}

TEST(ProfileMachine, PcSampleCountMatchesTheGrid)
{
    auto m = runStress(true);
    profile::ProfileSource src = m->profileSource();
    // Node 0 never parks before it halts, so its core ticks (or
    // skip-credits) every one of its cycles: exactly one sample per
    // full period on the global grid.
    EXPECT_EQ(src.samplers[0]->totalSamples(),
              uint64_t(src.procs[0]->statCycles.value()) / 64);
}

// --- the Mul-T driver path -------------------------------------------

TEST(ProfileDriver, ProfileJsonAndSeriesComeBack)
{
    DriverOptions o = DriverOptions::april(
        mult::CompileOptions::FutureMode::Eager, 2);
    o.profile = true;
    o.profilePeriod = 32;
    o.statsInterval = 1024;
    DriverResult r = runMultProgram(
        "(define (main) (+ (future 20) (future 3)))", o);
    EXPECT_EQ(r.result, tagged::fixnum(23));

    Json profile = parseJson(r.outputs.profile);
    EXPECT_EQ(profile.at("schemaVersion").number, 1.0);
    EXPECT_EQ(profile.at("totalCycles").number, double(r.cycles));
    ASSERT_EQ(profile.at("nodes").array.size(), 2u);
    for (const Json &node : profile.at("nodes").array) {
        double sum = 0;
        for (const auto &[name, v] : node.at("buckets").object)
            sum += v.number;
        EXPECT_EQ(sum, node.at("cycles").number);
        EXPECT_GT(node.at("samples").number, 0.0);
        EXPECT_FALSE(node.at("hotspots").array.empty());
        // Hotspots symbolize against the program's label table (the
        // raw "pc<N>" form is only a fallback for unlabeled images).
        const Json &top = node.at("hotspots").array[0];
        EXPECT_FALSE(top.at("symbol").str.empty());
        EXPECT_NE(top.at("symbol").str.rfind("pc", 0), 0u);
    }
    EXPECT_EQ(r.outputs.series.substr(0, 6), "cycle,");
    EXPECT_NE(r.outputs.series.find("proc0.cyclesUseful"),
              std::string::npos);
}

TEST(ProfileDriver, IdenticalAcrossSkipModes)
{
    DriverOptions o = DriverOptions::april(
        mult::CompileOptions::FutureMode::Lazy, 2);
    o.profile = true;
    o.statsInterval = 2048;
    DriverResult on = runMultProgram(
        "(define (fib n) (if (< n 2) n"
        " (+ (future (fib (- n 1))) (fib (- n 2)))))"
        "(define (main) (fib 8))", o);
    o.cycleSkip = false;
    DriverResult off = runMultProgram(
        "(define (fib n) (if (< n 2) n"
        " (+ (future (fib (- n 1))) (fib (- n 2)))))"
        "(define (main) (fib 8))", o);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.outputs.profile, off.outputs.profile);
    EXPECT_EQ(on.outputs.series, off.outputs.series);
}

// --- report formats --------------------------------------------------

TEST(ProfileReport, TextFoldedAndCountersAreWellFormed)
{
    auto m = runStress(true);
    profile::ProfileSource src = m->profileSource();

    std::ostringstream text;
    profile::writeProfileText(text, src, 3);
    EXPECT_NE(text.str().find("cycle breakdown"), std::string::npos);
    EXPECT_NE(text.str().find("Useful"), std::string::npos);

    std::ostringstream folded;
    profile::writeFolded(folded, src);
    EXPECT_EQ(folded.str().substr(0, 5), "node0");
    EXPECT_NE(folded.str().find(';'), std::string::npos);

    std::ostringstream counters;
    profile::writeCounterTrace(counters, src);
    Json trace = parseJson(counters.str());
    EXPECT_FALSE(trace.at("traceEvents").array.empty());
    bool found_counter = false;
    for (const Json &ev : trace.at("traceEvents").array)
        if (ev.at("ph").str == "C")
            found_counter = true;
    EXPECT_TRUE(found_counter);
}

} // namespace
} // namespace april
