/**
 * @file
 * The shared observability plane (common/obs_log.hh). The compact
 * log: every event type's records round-trip at the extremes of each
 * field, drop deterministically at the cap, straddle chunk boundaries
 * intact, merge from any lane count to the one-lane order, and cost
 * at most 12 bytes per event on a Table-3 run. Under overflow:
 * with every trace plane capped far below what a run records, the
 * dropped-event stats and the merged logs must be the same for every
 * host-thread count, and each stat must read the same before the
 * per-shard lanes are merged as after. Independence: a plane records
 * the same log, and the machine the same statistics, whichever other
 * planes are on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <iostream>
#include <sstream>

#include "machine/alewife_machine.hh"
#include "machine/snapshot.hh"
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

template <typename E>
std::vector<E>
eventsOf(const obs::Log<E> &log)
{
    return {log.begin(), log.end()};
}

/** A log of exactly @p events, read back. */
template <typename E>
std::vector<E>
roundTrip(const std::vector<E> &events)
{
    obs::Log<E> log(events.size());
    for (const E &e : events)
        log.record(e);
    EXPECT_EQ(log.size(), events.size());
    EXPECT_EQ(log.dropped(), 0u);
    return eventsOf(log);
}

constexpr uint64_t kMax64 = UINT64_MAX;
constexpr uint32_t kMax32 = UINT32_MAX;

// Cycles jump by 2^32 and more, fall back (a lane merge never emits
// that, but the codec must not care) and wrap; every field reaches its
// maximum, enums their last value, bools both values.
TEST(ObsLog, MachineEventsRoundTripAtTheExtremes)
{
    using trace::EventKind;
    const std::vector<trace::Event> events = {
        {0, 0, EventKind::CtxSwitch, 0, 0, 0, 0},
        {uint64_t(1) << 32, kMax32, EventKind::Race, 255, 255, kMax32,
         kMax32},
        {(uint64_t(1) << 40) + 7, 3, EventKind::Trap, 17, 0, 0x80, 0x7f},
        {5, 1, EventKind::NetSend, 0, 0, 1, kMax32},
        {kMax64, 2, EventKind::FeRetry, 1, 0, kMax32, 0},
        {0, 0, EventKind::Coherence, 2, 1, 0, 0},
        {kMax64 - 1, kMax32, EventKind::NetDeliver, 0, 0, 0, 0},
    };
    EXPECT_EQ(roundTrip(events), events);
}

TEST(ObsLog, TransactionLegsRoundTripAtTheExtremes)
{
    using coh::TxnPhase;
    const uint64_t top = uint64_t(kMax32) << 32;
    const std::vector<coh::TxnEvent> events = {
        {0, 1, 0, 0, 0, TxnPhase::Issue, 0, false},
        {uint64_t(1) << 33, top | kMax32, kMax32, kMax32, kMax32,
         TxnPhase::Fill, 255, true},
        {3, (uint64_t(15) << 32) | 1, 1u << 31, 15, 0,
         TxnPhase::HomeQueue, 7, true},
        {2, kMax64, 0, 0, 1, TxnPhase::InvAck, 0, false},
        {kMax64, top, 64, 1, 2, TxnPhase::ReplySend, 1, true},
    };
    EXPECT_EQ(roundTrip(events), events);
}

TEST(ObsLog, TaskEventsRoundTripAtTheExtremes)
{
    using task::Ev;
    const std::vector<task::TaskEvent> events = {
        {0, 0, 0, 0, 0, Ev::RootBegin, 0},
        {uint64_t(1) << 32, kMax64, kMax32, kMax32, kMax32,
         Ev::FrameSwitch, 255},
        {1, 1, 1, 1, 1, Ev::Spawn, 1},
        {kMax64, uint64_t(1) << 63, 15, 1u << 28, 0, Ev::Block, 3},
        {7, 0, 0, 0, 0, Ev::Resume, 0},
    };
    EXPECT_EQ(roundTrip(events), events);
}

TEST(ObsLog, DropsExactlyWhatIsPastTheCap)
{
    auto ev = [](uint64_t c) {
        return trace::Event{.cycle = c, .node = uint32_t(c)};
    };
    trace::Recorder none(0);
    for (uint64_t c = 0; c < 3; ++c)
        none.record(ev(c));
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.dropped(), 3u);
    EXPECT_EQ(none.bytes(), 0u);
    EXPECT_TRUE(none.begin() == none.end());

    trace::Recorder one(1);
    for (uint64_t c = 10; c < 13; ++c)
        one.record(ev(c));
    EXPECT_EQ(one.dropped(), 2u);
    EXPECT_EQ(eventsOf(one), std::vector<trace::Event>{ev(10)});

    trace::Recorder full(5);
    std::vector<trace::Event> want;
    for (uint64_t c = 0; c < 5; ++c) {
        want.push_back(ev(c));
        full.record(ev(c));
    }
    EXPECT_EQ(full.dropped(), 0u);
    EXPECT_EQ(eventsOf(full), want);
    full.record(ev(5));
    EXPECT_EQ(full.dropped(), 1u);
    EXPECT_EQ(eventsOf(full), want);
}

// Every record below is 11 bytes (cycle delta 1, node, kind, a and b
// one byte each, arg 2^28 five bytes, arg2 one byte), which does not
// divide a chunk: record 5957 straddles the first boundary, and others
// each later one.
TEST(ObsLog, RecordsStraddleChunkBoundaries)
{
    constexpr uint64_t kRecordBytes = 11;
    const uint64_t n = 3 * trace::Recorder::kChunkBytes / kRecordBytes + 1;
    trace::Recorder log(n);
    std::vector<trace::Event> want;
    for (uint64_t i = 0; i < n; ++i) {
        trace::Event e{.cycle = i + 1, .node = uint32_t(i % 100),
                       .kind = trace::EventKind::NetSend,
                       .a = uint8_t(i % 128), .b = uint8_t(i / 128 % 128),
                       .arg = 1u << 28, .arg2 = uint32_t(i % 128)};
        want.push_back(e);
        log.record(e);
    }
    EXPECT_EQ(log.bytes(), 4 * trace::Recorder::kChunkBytes);
    EXPECT_EQ(eventsOf(log), want);
}

/** Events of @p nodes nodes over @p cycles cycles, in (cycle, node)
 *  order: each node records on some cycles, a few twice. */
std::vector<trace::Event>
laneWorkload(uint32_t nodes, uint64_t cycles)
{
    std::vector<trace::Event> events;
    for (uint64_t c = 0; c < cycles; ++c) {
        for (uint32_t n = 0; n < nodes; ++n) {
            const uint64_t k = c * 7 + n * 13;
            const uint32_t reps = k % 5 == 0 ? 2 : k % 3 == 0 ? 0 : 1;
            for (uint32_t rep = 0; rep < reps; ++rep)
                events.push_back({.cycle = c * 1000, .node = n,
                                  .kind = trace::EventKind(k % 7),
                                  .arg = uint32_t(k), .arg2 = rep});
        }
    }
    return events;
}

TEST(ObsPlane, LanesMergeToTheOneLaneSequence)
{
    constexpr uint32_t kNodes = 8;
    const std::vector<trace::Event> events = laneWorkload(kNodes, 300);
    for (uint64_t capacity : {uint64_t(events.size()), uint64_t(500)}) {
        for (uint32_t shards : {1u, 2u, 4u}) {
            SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                         " shards=" + std::to_string(shards));
            obs::Plane<trace::Event> plane;
            plane.open(capacity, shards);
            // Contiguous node blocks per shard, as the engine deals them.
            for (const trace::Event &e : events)
                plane.lane(e.node * shards / kNodes)->record(e);
            const uint64_t dropped = plane.dropped();
            const std::vector<trace::Event> merged =
                eventsOf(*plane.merged());
            const size_t kept = std::min<size_t>(capacity, events.size());
            EXPECT_EQ(merged, std::vector<trace::Event>(
                                  events.begin(), events.begin() + kept));
            EXPECT_EQ(dropped, events.size() - kept);
            EXPECT_EQ(plane.dropped(), dropped);
        }
    }
}

// The compact log's cost, counted: speech of the 4x4 Table-3 suite
// with all three trace planes on. The same run cost about 41 bytes per
// event in plain vectors, capacity slack included.
TEST(ObsPlane, Table3SpeechCostsAtMost12BytesPerEvent)
{
    const workloads::Benchmark b =
        workloads::makeSpeech(workloads::SuiteSizes{});
    const Program prog = mult::compileProgram(
        b.source, {.futures = mult::CompileOptions::FutureMode::Lazy});
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 4};
    p.wordsPerNode = 1u << 21;
    p.hostThreads = 1;
    p.traceEvents = p.cohTrace = p.taskTrace = true;
    AlewifeMachine m(p, &prog);
    m.run(10'000'000);
    ASSERT_TRUE(m.halted());
    ASSERT_FALSE(m.console().empty());
    EXPECT_EQ(tagged::toInt(m.console().back()), b.expected);

    const uint64_t events = m.traceRecorder()->size() +
                            m.txnTracer()->size() + m.taskTracer()->size();
    const uint64_t bytes = m.traceRecorder()->bytes() +
                           m.txnTracer()->bytes() + m.taskTracer()->bytes();
    EXPECT_EQ(m.traceRecorder()->dropped() + m.txnTracer()->dropped() +
                  m.taskTracer()->dropped(),
              0u);
    std::printf("speech: %llu events in %llu bytes (%.2f bytes/event)\n",
                (unsigned long long)events, (unsigned long long)bytes,
                double(bytes) / double(events));
    ASSERT_GT(events, 0u);
    EXPECT_LE(bytes, 12 * events);
}

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
    r.trace = eventsOf(*m.traceRecorder());
    r.coh = eventsOf(*m.txnTracer());
    r.task = eventsOf(*m.taskTracer());
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

/** What each plane leaves behind: the run's outputs, and the machine
 *  events before coherence flows and task spans are stitched in. */
struct PlaneOutputs
{
    RunOutputs out;
    std::vector<trace::Event> trace;
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
    m->run(50'000'000);
    EXPECT_TRUE(m->halted());
    PlaneOutputs r{recordOutputs(*m), {}};
    if (trace)
        r.trace = eventsOf(*m->traceRecorder());
    return r;
}

TEST(ObsPlane, EachPlaneIsIndependentOfTheOthers)
{
    const PlaneOutputs all = runWithPlanes(true, true, true, true);
    EXPECT_FALSE(all.trace.empty());
    EXPECT_FALSE(all.out.cohTrace.empty());
    EXPECT_FALSE(all.out.taskTrace.empty());
    EXPECT_FALSE(all.out.profile.empty());

    const PlaneOutputs trace = runWithPlanes(true, false, false, false);
    EXPECT_EQ(trace.trace, all.trace);
    EXPECT_EQ(trace.out.stats, all.out.stats);
    const PlaneOutputs coh = runWithPlanes(false, true, false, false);
    EXPECT_EQ(coh.out.cohTrace, all.out.cohTrace);
    EXPECT_EQ(coh.out.stats, all.out.stats);
    const PlaneOutputs task = runWithPlanes(false, false, true, false);
    EXPECT_EQ(task.out.taskTrace, all.out.taskTrace);
    EXPECT_EQ(task.out.stats, all.out.stats);
    const PlaneOutputs profile = runWithPlanes(false, false, false, true);
    EXPECT_EQ(profile.out.profile, all.out.profile);
    EXPECT_EQ(profile.out.stats, all.out.stats);
    EXPECT_EQ(runWithPlanes(false, false, false, false).out.stats,
              all.out.stats);
}

} // namespace
} // namespace april
