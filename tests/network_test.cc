/** @file Unit tests for the k-ary n-cube network timing model. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "network/network.hh"
#include "network/telemetry.hh"

namespace april::net
{
namespace
{

TEST(Network, NodeCountIsRadixToDim)
{
    EXPECT_EQ(Network({.dim = 2, .radix = 4}).numNodes(), 16u);
    EXPECT_EQ(Network({.dim = 3, .radix = 4}).numNodes(), 64u);
    EXPECT_EQ(Network({.dim = 1, .radix = 8}).numNodes(), 8u);
}

TEST(Network, ManhattanDistance)
{
    Network n({.dim = 2, .radix = 4});
    EXPECT_EQ(n.distance(0, 0), 0u);
    EXPECT_EQ(n.distance(0, 3), 3u);        // along X
    EXPECT_EQ(n.distance(0, 12), 3u);       // along Y
    EXPECT_EQ(n.distance(0, 15), 6u);       // corner to corner
}

TEST(Network, InjectionMatchesUnloadedFormula)
{
    Network n({.dim = 2, .radix = 8});
    // 7 hops, 4 flits, injected at cycle 0 on an idle port:
    // arrival = 7 * hopCycles + 4.
    Injection inj = n.inject(0, 7, 4, 0);
    EXPECT_EQ(inj.start, 0u);
    EXPECT_EQ(inj.hops, 7u);
    EXPECT_EQ(inj.arrive, 7u * 1 + 4u);
}

TEST(Network, UnloadedRoundTripFormula)
{
    Network n({.dim = 3, .radix = 20});
    // Average nk/3 = 20 hops each way, packet size 4:
    // 2 * (20 + 3) = 46 network cycles; the remaining 9 of the
    // paper's 55 are memory latency and controller occupancy.
    uint32_t a = 0;
    uint32_t b = 0 + 10 + 10 * 20;      // +10 in X, +10 in Y
    ASSERT_EQ(n.distance(a, b), 20u);
    EXPECT_EQ(n.unloadedRoundTrip(a, b, 4), 46u);
}

TEST(Network, SourcePortSerializesBackToBackSends)
{
    // Two packets from the same source: the second's head cannot
    // leave until the first's 4 flits have drained from the port.
    Network n({.dim = 1, .radix = 4});
    Injection first = n.inject(0, 3, 4, 0);
    Injection second = n.inject(0, 3, 4, 0);
    EXPECT_EQ(first.start, 0u);
    EXPECT_EQ(first.arrive, 3u * 1 + 4u);
    EXPECT_EQ(second.start, 4u);
    EXPECT_EQ(second.arrive, 4u + 3u * 1 + 4u);
    // Sequence numbers order same-source traffic canonically.
    EXPECT_LT(first.seq, second.seq);
}

TEST(Network, PortFreesAfterDrain)
{
    Network n({.dim = 1, .radix = 4});
    Injection first = n.inject(0, 3, 2, 0);
    EXPECT_EQ(first.arrive, 5u);
    // Injecting after the port drained sees no queueing delay.
    Injection later = n.inject(0, 1, 2, 10);
    EXPECT_EQ(later.start, 10u);
    EXPECT_EQ(later.arrive, 10u + 1u + 2u);
}

TEST(Network, MinCrossNodeLatencyBoundsEveryPacket)
{
    Network n({.dim = 2, .radix = 5});
    Rng rng(3);
    uint64_t q = n.minCrossNodeLatency(2);
    EXPECT_EQ(q, 3u);
    for (int i = 0; i < 200; ++i) {
        uint32_t src = uint32_t(rng.below(25));
        uint32_t dst = uint32_t(rng.below(25));
        if (src == dst)
            continue;
        uint32_t flits = 2 + uint32_t(rng.below(5));
        uint64_t now = uint64_t(i);
        Injection inj = n.inject(src, dst, flits, now);
        EXPECT_GE(inj.arrive, now + q);
    }
}

// The network's delivery statistics fold from the telemetry blocks,
// the one account of delivered messages.
TEST(Network, StatsTrackHopsAndLatency)
{
    static const std::vector<ClassText> classes =
        Telemetry::classText({"Req"});
    Network n({.dim = 1, .radix = 4});
    Telemetry t(n.numNodes(), classes, nullptr, n.maxHops());
    Injection inj = n.inject(0, 2, 1, 0);
    EXPECT_EQ(inj.arrive, 3u);
    t.recordDeliver(0, 2, 0, 1, inj.arrive - 0, inj.hops);
    t.recordDeliver(1, 3, 0, 1, 5, 2);
    n.foldStats(t);
    EXPECT_DOUBLE_EQ(n.statPackets.value(), 2.0);
    EXPECT_DOUBLE_EQ(n.statHops.mean(), 2.0);
    EXPECT_DOUBLE_EQ(n.statLatency.mean(), 4.0);
    EXPECT_DOUBLE_EQ(n.statFlitHops.value(), 4.0);
    // foldStats is idempotent: folding again must not double-count.
    n.foldStats(t);
    EXPECT_DOUBLE_EQ(n.statPackets.value(), 2.0);
}

// An interrupt's timing: no link contention, but it takes the next
// sequence number of its source, so every arrival key stays unique.
TEST(Network, UncontendedInjectionTakesTheSourceSequence)
{
    Network n({.dim = 1, .radix = 4});
    Injection first = n.inject(0, 3, 4, 0);
    Injection ipi = n.injectUncontended(0, 3, 2, 0);
    Injection next = n.inject(0, 3, 4, 0);
    EXPECT_EQ(ipi.arrive, 3u + 2u);     // not queued behind first
    EXPECT_EQ(ipi.hops, 3u);
    EXPECT_LT(first.seq, ipi.seq);
    EXPECT_LT(ipi.seq, next.seq);
    EXPECT_EQ(next.arrive, 4u + 3u + 4u);   // behind first only
    EXPECT_THROW(n.injectUncontended(0, 9, 2, 0), PanicError);
}

TEST(Network, BadEndpointsPanic)
{
    Network n({.dim = 1, .radix = 4});
    EXPECT_THROW(n.inject(9, 0, 1, 0), PanicError);
    EXPECT_THROW(n.inject(0, 9, 1, 0), PanicError);
    EXPECT_THROW(n.inject(0, 1, 0, 0), PanicError);
}

TEST(Network, BadGeometryIsFatal)
{
    EXPECT_THROW(Network({.dim = 0, .radix = 4}), FatalError);
    EXPECT_THROW(Network({.dim = 2, .radix = 1}), FatalError);
}

// Sends count at the source node, deliveries at the destination; the
// fold sums every node's counters per class and per hop distance. A
// topology wider than the process-wide hop-name table names its far
// distances all the same.
TEST(Telemetry, FoldsPerClassAndHopDistance)
{
    static const std::vector<ClassText> classes =
        Telemetry::classText({"Req", "Data"});
    stats::Group root("m");
    Telemetry t(3, classes, &root, 70);
    t.recordSend(0, 1);
    t.recordSend(2, 1);
    t.recordSend(2, 0);
    t.recordDeliver(0, 1, 1, 6, 12, 2);
    t.recordDeliver(2, 1, 1, 6, 3, 70);
    t.foldStats();

    EXPECT_EQ(t.classSent(0), 1u);
    EXPECT_EQ(t.classSent(1), 2u);
    EXPECT_EQ(t.classDelivered(1), 2u);
    EXPECT_EQ(t.classFlits(1), 12u);
    EXPECT_EQ(t.pairCount(2, 1, 1), 1u);
    EXPECT_EQ(t.pairFlits(0, 1, 1), 6u);
    EXPECT_DOUBLE_EQ(t.statSent.value(), 3.0);
    EXPECT_DOUBLE_EQ(t.statInFlight.value(), 1.0);
    const stats::Histogram &data = t.classLatency(1);
    EXPECT_EQ(data.count(), 2u);
    EXPECT_EQ(data.min(), 3);
    EXPECT_EQ(data.max(), 12);
    EXPECT_EQ(t.classLatency(0).count(), 0u);
    EXPECT_EQ(t.hopLatency(2).count(), 1u);
    EXPECT_EQ(t.hopLatency(70).max(), 3);
    EXPECT_DOUBLE_EQ(t.statHops.mean(), 36.0);

    EXPECT_EQ(t.hopLatency(70).name(), "latencyHops70");
    EXPECT_EQ(t.hopLatency(70).desc(),
              "send-to-delivery cycles at hop distance 70");
    EXPECT_EQ(root.resolve("telemetry.latencyHops2"), &t.hopLatency(2));
    EXPECT_EQ(root.resolve("telemetry.sentData")->summaryValue(), 2.0);
    EXPECT_EQ(root.resolve("telemetry.latencyReq"), &t.classLatency(0));
    EXPECT_EQ(t.className(1), "Data");
}

} // namespace
} // namespace april::net
