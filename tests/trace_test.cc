/**
 * @file
 * The tracing subsystem: debug-flag plumbing, the event recorder's
 * capacity behavior, Chrome-trace-event export schema (valid JSON,
 * per-track monotonic timestamps, metadata tracks), the differential
 * guarantee that the recorded stream is byte-identical with
 * cycle-skipping on and off, and the driver's stats and trace
 * outputs.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "common/debug.hh"
#include "common/trace.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/snapshot.hh"
#include "workloads/workloads.hh"

#include "json_test_util.hh"
#include "test_support/machine_workloads.hh"

namespace april
{
namespace
{

using testutil::Json;
using testutil::parseJson;

// ---------------------------------------------------------------------
// Debug flags
// ---------------------------------------------------------------------

TEST(DebugFlags, SetFlagsParsesCommaList)
{
    debug::setAllFlags(false);
    debug::setFlags("Ctx,Net");
    EXPECT_TRUE(debug::enabled(debug::Flag::Ctx));
    EXPECT_TRUE(debug::enabled(debug::Flag::Net));
    EXPECT_FALSE(debug::enabled(debug::Flag::Cache));
    debug::setAllFlags(false);
    EXPECT_FALSE(debug::enabled(debug::Flag::Ctx));
}

TEST(DebugFlags, AllEnablesEverything)
{
    debug::setFlags("All");
    for (size_t f = 0; f < size_t(debug::Flag::NumFlags); ++f)
        EXPECT_TRUE(debug::enabled(debug::Flag(f)));
    debug::setAllFlags(false);
}

TEST(DebugFlags, UnknownFlagIsFatal)
{
    EXPECT_THROW(debug::setFlags("Bogus"), FatalError);
}

// ---------------------------------------------------------------------
// Recorder basics
// ---------------------------------------------------------------------

TEST(TraceRecorder, CapacityDropsDeterministically)
{
    trace::Recorder rec(4);
    for (uint32_t i = 0; i < 6; ++i)
        rec.record({.cycle = i, .kind = trace::EventKind::NetSend});
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 2u);
}

/** Track key: instants share the node's thread; async frame slices
 *  form one track per (pid, cat, id). */
std::string
trackKey(const Json &ev)
{
    std::string key = "pid=" + std::to_string(ev.at("pid").number);
    if (ev.has("id")) {
        key += " cat=" + ev.at("cat").str +
               " id=" + std::to_string(ev.at("id").number);
    } else {
        key += " tid=" + std::to_string(ev.at("tid").number);
    }
    return key;
}

/** Schema assertions every exported trace must satisfy. */
void
checkChromeTraceSchema(const std::string &text)
{
    Json root = parseJson(text);
    ASSERT_TRUE(root.isObject());
    const Json &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    std::map<std::string, double> lastTs;
    std::map<std::string, int> asyncDepth;
    for (const Json &ev : events.array) {
        ASSERT_TRUE(ev.isObject());
        EXPECT_TRUE(ev.has("name"));
        EXPECT_TRUE(ev.has("ph"));
        EXPECT_TRUE(ev.has("ts"));
        EXPECT_TRUE(ev.has("pid"));
        const std::string &ph = ev.at("ph").str;
        if (ph == "M")
            continue;
        std::string key = trackKey(ev);
        auto it = lastTs.find(key);
        if (it != lastTs.end()) {
            EXPECT_GE(ev.at("ts").number, it->second)
                << "timestamps must be non-decreasing on track " << key;
        }
        lastTs[key] = ev.at("ts").number;
        if (ph == "b") {
            EXPECT_EQ(++asyncDepth[key], 1) << "frame slices must not "
                                               "nest on track " << key;
        } else if (ph == "e") {
            EXPECT_EQ(--asyncDepth[key], 0) << "unbalanced frame slice "
                                               "on track " << key;
        }
    }
    for (const auto &[key, depth] : asyncDepth)
        EXPECT_EQ(depth, 0) << "unclosed frame slice on track " << key;
}

TEST(TraceRecorder, ChromeExportSchemaAndNames)
{
    trace::RecorderConfig rc;
    rc.numNodes = 2;
    rc.framesPerNode = 4;
    rc.trapNames = {"RemoteMiss", "FeEmpty"};
    rc.cohStateNames = {"Uncached", "Shared", "Exclusive"};
    trace::Recorder rec(1u << 22);

    using trace::EventKind;
    rec.record({.cycle = 5, .node = 0, .kind = EventKind::Trap,
                .a = 1, .arg = 0x40});
    rec.record({.cycle = 6, .node = 0, .kind = EventKind::CtxSwitch,
                .a = 0, .b = 2});
    rec.record({.cycle = 7, .node = 1, .kind = EventKind::Coherence,
                .a = 1, .b = 2, .arg = 96, .arg2 = 0});
    rec.record({.cycle = 8, .node = 1, .kind = EventKind::NetSend,
                .arg = 0, .arg2 = 3});
    rec.record({.cycle = 9, .node = 0, .kind = EventKind::CtxSwitch,
                .a = 2, .b = 0});

    std::ostringstream os;
    trace::writeChromeTrace(os, rec, rc);
    std::string text = os.str();
    checkChromeTraceSchema(text);

    // Name tables flow through to the rendered events.
    EXPECT_NE(text.find("\"FeEmpty\""), std::string::npos);
    EXPECT_NE(text.find("Shared->Exclusive"), std::string::npos);
    EXPECT_NE(text.find("switch f0->f2"), std::string::npos);
    // Both nodes got a process-name metadata record.
    EXPECT_NE(text.find("\"node0\""), std::string::npos);
    EXPECT_NE(text.find("\"node1\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Differential: the event stream is identical with skipping on/off
// ---------------------------------------------------------------------

/** The event stream @p m recorded, as a vector. */
std::vector<trace::Event>
eventsOf(AlewifeMachine &m)
{
    const trace::Recorder &rec = *m.traceRecorder();
    return {rec.begin(), rec.end()};
}

std::unique_ptr<AlewifeMachine>
runTracedStallStress(bool skip)
{
    // One program outlives every machine that points at it.
    static const Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.traceEvents = true;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    auto m = std::make_unique<AlewifeMachine>(p, &prog);
    testutil::bootStallStress(*m, prog);
    m->run(20'000'000);
    return m;
}

TEST(TraceDifferential, StallStressStreamIdenticalWithSkipOnOff)
{
    auto on = runTracedStallStress(true);
    auto off = runTracedStallStress(false);
    ASSERT_TRUE(on->halted());
    std::vector<trace::Event> events = eventsOf(*on);
    ASSERT_FALSE(events.empty());

    // The recorded stream and its serialization are byte-identical:
    // cycle-skipping may only jump windows proven event-free.
    EXPECT_TRUE(events == eventsOf(*off));
    RunRecord run = recordRun(*on);
    EXPECT_EQ(compareRuns(run, recordRun(*off)), "");

    // The workload's non-trapping accesses exercise the coherence and
    // network families (misses MHOLD rather than trap).
    bool saw[8] = {};
    for (const trace::Event &e : events)
        saw[size_t(e.kind)] = true;
    EXPECT_TRUE(saw[size_t(trace::EventKind::Coherence)]);
    EXPECT_TRUE(saw[size_t(trace::EventKind::NetSend)]);
    EXPECT_TRUE(saw[size_t(trace::EventKind::NetDeliver)]);

    // And the real machine's export passes the schema check too.
    checkChromeTraceSchema(run.outputs.trace);
}

std::unique_ptr<AlewifeMachine>
runTracedEagerFib(bool skip)
{
    static const Program prog = [] {
        mult::CompileOptions copts;
        copts.futures = mult::CompileOptions::FutureMode::Eager;
        return mult::compileProgram(workloads::fibSource(9), copts);
    }();
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.cycleSkip = skip;
    p.traceEvents = true;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    auto m = std::make_unique<AlewifeMachine>(p, &prog);
    m->run(80'000'000);
    return m;
}

TEST(TraceDifferential, EagerFibStreamIdenticalWithSkipOnOff)
{
    auto on = runTracedEagerFib(true);
    auto off = runTracedEagerFib(false);
    ASSERT_TRUE(on->halted());

    std::vector<trace::Event> events = eventsOf(*on);
    EXPECT_TRUE(events == eventsOf(*off));
    RunRecord run = recordRun(*on);
    EXPECT_EQ(compareRuns(run, recordRun(*off)), "");

    // The runtime's trapping accesses and trap handlers add the
    // processor-side families the stall-stress workload cannot reach.
    bool saw[8] = {};
    for (const trace::Event &e : events)
        saw[size_t(e.kind)] = true;
    EXPECT_TRUE(saw[size_t(trace::EventKind::CtxSwitch)]);
    EXPECT_TRUE(saw[size_t(trace::EventKind::Trap)]);
    EXPECT_TRUE(saw[size_t(trace::EventKind::Coherence)]);
    EXPECT_TRUE(saw[size_t(trace::EventKind::NetSend)]);

    checkChromeTraceSchema(run.outputs.trace);
}

TEST(TraceDifferential, UntracedRunHasNoRecorder)
{
    Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    AlewifeMachine m(p, &prog);
    EXPECT_EQ(m.traceRecorder(), nullptr);
    std::ostringstream os;
    m.writeTrace(os);
    EXPECT_TRUE(os.str().empty());
}

// ---------------------------------------------------------------------
// Overflow warning: once per machine run, never per event
// ---------------------------------------------------------------------

TEST(TraceOverflow, DroppedWarningPrintsOncePerMachine)
{
    Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.traceEvents = true;
    p.capacity = 8;             // guaranteed overflow
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    testutil::bootStallStress(m, prog);

    std::ostringstream captured;
    std::streambuf *old = std::cerr.rdbuf(captured.rdbuf());
    m.run(1'000'000);
    m.run(1'000'000);           // a second run must not warn again
    std::cerr.rdbuf(old);

    ASSERT_GT(m.traceRecorder()->dropped(), 0u);
    std::string text = captured.str();
    size_t count = 0;
    for (size_t at = text.find("trace lane overflow");
         at != std::string::npos;
         at = text.find("trace lane overflow", at + 1)) {
        ++count;
    }
    EXPECT_EQ(count, 1u)
        << "overflow warning must be rate-limited to once per machine"
        << " run, got:\n" << text;
}

// ---------------------------------------------------------------------
// Driver surfaces: the stats and trace outputs
// ---------------------------------------------------------------------

TEST(DriverJson, StatsJsonIsValidAndHierarchical)
{
    DriverOptions opts =
        DriverOptions::april(mult::CompileOptions::FutureMode::Eager, 2);
    DriverResult r = runMultProgram(workloads::fibSource(8), opts);

    Json stats = parseJson(r.outputs.stats);
    EXPECT_EQ(stats.at("name").str, "machine");
    const Json &groups = stats.at("groups");
    ASSERT_TRUE(groups.has("proc0"));
    ASSERT_TRUE(groups.has("proc1"));
    const Json &cycles = groups.at("proc0").at("stats").at("cycles");
    EXPECT_EQ(cycles.at("type").str, "scalar");
    EXPECT_GT(cycles.at("value").number, 0.0);

    EXPECT_TRUE(r.outputs.trace.empty()) << "tracing was not requested";
}

TEST(DriverJson, TraceJsonParsesAndPassesSchema)
{
    DriverOptions opts =
        DriverOptions::april(mult::CompileOptions::FutureMode::Eager, 2);
    opts.traceEvents = true;
    DriverResult r = runMultProgram(workloads::fibSource(8), opts);
    ASSERT_FALSE(r.outputs.trace.empty());
    checkChromeTraceSchema(r.outputs.trace);
    // Perfect memory: context switches and traps show up, no network.
    EXPECT_NE(r.outputs.trace.find("\"cat\":\"ctx\""), std::string::npos);
    EXPECT_EQ(r.outputs.trace.find("\"cat\":\"net\""), std::string::npos);
}

} // namespace
} // namespace april
