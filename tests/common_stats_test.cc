/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace april::stats
{
namespace
{

// Stat text is a view, so a std::string name or description (often a
// temporary) must not compile: it would dangle once the string dies.
static_assert(!std::is_constructible_v<Text, std::string>);
static_assert(!std::is_constructible_v<Text, const std::string &>);
template <typename Stat, typename... Rest>
constexpr bool kTakesStringText =
    std::is_constructible_v<Stat, Group *, std::string, const char *,
                            Rest...> ||
    std::is_constructible_v<Stat, Group *, const char *, std::string,
                            Rest...> ||
    std::is_constructible_v<Stat, Group *, const std::string &,
                            const std::string &, Rest...>;
static_assert(!kTakesStringText<Scalar>);
static_assert(!kTakesStringText<Average>);
static_assert(!kTakesStringText<Formula, std::function<double()>>);
static_assert(!kTakesStringText<Histogram>);
static_assert(!kTakesStringText<Histogram, size_t>);
// ... while literals and views of longer-lived text still do.
static_assert(std::is_constructible_v<Scalar, Group *, const char *,
                                      const char *>);
static_assert(std::is_constructible_v<Scalar, Group *, std::string_view,
                                      std::string_view>);

TEST(Stats, ScalarAccumulates)
{
    Group g("top");
    Scalar s(&g, "count", "a counter");
    ++s;
    s += 4;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s = 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 2.5);
}

TEST(Stats, ScalarReset)
{
    Group g("top");
    Scalar s(&g, "count", "a counter");
    s += 10;
    g.resetStats();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageComputesMean)
{
    Group g("top");
    Average a(&g, "lat", "latency");
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(Stats, AverageEmptyIsZero)
{
    Group g("top");
    Average a(&g, "lat", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBadSpecPanics)
{
    Group g("top");
    EXPECT_THROW((Histogram(&g, "bad", "h", 1)), PanicError);
    EXPECT_THROW((Histogram(&g, "bad2", "h", 0)), PanicError);
    // A statistic that never finished construction leaves its group.
    EXPECT_TRUE(g.statsList().empty());
    Scalar ok(&g, "ok", "");
    EXPECT_EQ(g.findStat("ok"), &ok);
    EXPECT_EQ(g.statsList().size(), 1u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    Group g("top");
    Scalar num(&g, "hits", "");
    Scalar den(&g, "accesses", "");
    Formula ratio(&g, "hitRate", "hit ratio", [&] {
        return den.value() ? num.value() / den.value() : 0.0;
    });
    EXPECT_DOUBLE_EQ(ratio.value(), 0.0);
    num += 3;
    den += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.75);
}

TEST(Stats, GroupDumpContainsNestedNames)
{
    Group top("machine");
    Group child("proc0", &top);
    Scalar s(&child, "cycles", "total cycles");
    s += 7;
    std::ostringstream os;
    top.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("machine.proc0.cycles"), std::string::npos);
    EXPECT_NE(out.find("total cycles"), std::string::npos);
}

TEST(Stats, FindStatLocatesDirectChildren)
{
    Group g("top");
    Scalar s(&g, "x", "");
    EXPECT_EQ(g.findStat("x"), &s);
    EXPECT_EQ(g.findStat("y"), nullptr);
}

TEST(Stats, ResolveWalksDottedPaths)
{
    Group top("machine");
    Group proc("proc3", &top);
    Group tlb("tlb", &proc);
    Scalar traps(&proc, "trapsRemoteMiss", "remote-miss traps");
    Scalar hits(&tlb, "hits", "");
    traps += 9;

    EXPECT_EQ(top.resolve("proc3.trapsRemoteMiss"), &traps);
    EXPECT_EQ(top.resolve("proc3.tlb.hits"), &hits);
    // A dotless path degenerates to findStat on this group.
    EXPECT_EQ(proc.resolve("trapsRemoteMiss"), &traps);
    // Any missing component resolves to nothing.
    EXPECT_EQ(top.resolve("proc4.trapsRemoteMiss"), nullptr);
    EXPECT_EQ(top.resolve("proc3.nope"), nullptr);
    EXPECT_EQ(top.resolve("proc3.tlb"), nullptr)
        << "a path naming a group, not a stat, must not resolve";
}

TEST(Stats, DumpJsonNestsGroupsAndEscapes)
{
    Group top("machine");
    Group child("proc0", &top);
    Scalar s(&child, "cycles", "total \"core\" cycles");
    s += 7;
    Average a(&top, "lat", "latency");
    a.sample(4);
    a.sample(6);

    std::ostringstream os;
    top.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"machine\""), std::string::npos);
    EXPECT_NE(out.find("\"proc0\":{"), std::string::npos);
    EXPECT_NE(out.find("\"cycles\":{\"type\":\"scalar\""),
              std::string::npos);
    EXPECT_NE(out.find("\"value\":7"), std::string::npos);
    EXPECT_NE(out.find("\"mean\":5,\"sum\":10,\"count\":2"),
              std::string::npos);
    EXPECT_NE(out.find("total \\\"core\\\" cycles"), std::string::npos);
}

TEST(Stats, NestedResetClearsEverything)
{
    Group top("t");
    Group mid("m", &top);
    Scalar a(&top, "a", "");
    Scalar b(&mid, "b", "");
    a += 1;
    b += 2;
    top.resetStats();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, HistogramLog2BucketIndex)
{
    Group g("top");
    Histogram h(&g, "gap", "log2 histogram", 6);
    // Bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i; the last
    // bucket absorbs everything larger.
    EXPECT_EQ(h.bucketIndex(-5), 0u);
    EXPECT_EQ(h.bucketIndex(0), 0u);
    EXPECT_EQ(h.bucketIndex(1), 1u);
    EXPECT_EQ(h.bucketIndex(2), 2u);
    EXPECT_EQ(h.bucketIndex(3), 2u);
    EXPECT_EQ(h.bucketIndex(4), 3u);
    EXPECT_EQ(h.bucketIndex(7), 3u);
    EXPECT_EQ(h.bucketIndex(8), 4u);
    EXPECT_EQ(h.bucketIndex(16), 5u);       // last bucket
    EXPECT_EQ(h.bucketIndex(1 << 20), 5u);  // clamped into it
}

TEST(Stats, HistogramSampleStatistics)
{
    Group g("top");
    Histogram h(&g, "lat", "latency histogram");
    h.sample(1);
    h.sample(4);
    h.sample(100);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 35.0);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 100);
    EXPECT_DOUBLE_EQ(h.summaryValue(), 35.0);
    g.resetStats();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Stats, HistogramDumpJson)
{
    Group g("top");
    Histogram h(&g, "lat", "latency", 4);
    h.sample(1);
    h.sample(3);
    h.sample(1000);     // clamps into the last bucket
    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"lat\":{\"type\":\"histogram\""),
              std::string::npos);
    EXPECT_NE(out.find("\"count\":3"), std::string::npos);
    EXPECT_NE(out.find("\"buckets\":[0,1,1,1]"), std::string::npos)
        << out;
}

TEST(Stats, LogPercentileReportsBucketCeilings)
{
    // Six buckets: <=0, 1, 2-3, 4-7, 8-15 and 16+; ten samples, the
    // largest 40.
    const std::vector<uint64_t> b = {1, 1, 2, 4, 1, 1};
    EXPECT_EQ(logPercentile(b, 10, 40, 0.0), 0u);   // rank clamps to 1
    EXPECT_EQ(logPercentile(b, 10, 40, 0.2), 1u);
    EXPECT_EQ(logPercentile(b, 10, 40, 0.5), 7u);   // a middle bucket
    EXPECT_EQ(logPercentile(b, 10, 40, 0.9), 15u);
    EXPECT_EQ(logPercentile(b, 10, 40, 1.0), 40u);  // last: the max
    // Every sample in bucket 0, and no samples at all.
    const std::vector<uint64_t> zeros = {5, 0, 0, 0, 0, 0};
    EXPECT_EQ(logPercentile(zeros, 5, 0, 0.99), 0u);
    EXPECT_EQ(logPercentile(zeros, 0, 0, 0.5), 0u);
    // A middle bucket whose ceiling is above the largest sample
    // reports the sample: 8-15 holding a maximum of 13.
    const std::vector<uint64_t> low = {0, 1, 1, 1, 2, 0};
    EXPECT_EQ(logPercentile(low, 5, 13, 0.6), 7u);   // below the max
    EXPECT_EQ(logPercentile(low, 5, 13, 0.99), 13u);

    // Histogram::percentile applies the same rule to its own buckets.
    Group g("top");
    Histogram h(&g, "lat", "latency", 6);
    for (int64_t v : {0, 1, 2, 3, 4, 5, 6, 7, 8, 40})
        h.sample(v);
    for (double q : {0.0, 0.2, 0.5, 0.9, 1.0})
        EXPECT_EQ(h.percentile(q), logPercentile(b, 10, 40, q)) << q;
}

/** A family's text, built once per process like the machines' tables
 *  (traps<Kind>, dir<From>To<To>, latency<Class>). */
const std::vector<FamilyText> &
testFamilyText()
{
    static const std::vector<FamilyText> table = [] {
        std::vector<FamilyText> t;
        for (const std::string kind : {"Alpha", "BetaWithALongName"})
            t.push_back({"events" + kind, kind + " events, counted"});
        return t;
    }();
    return table;
}

TEST(Stats, FamilyTextRoundTrips)
{
    Group root("root");
    Group g("node12", &root);
    std::vector<Scalar> family;
    family.reserve(testFamilyText().size());
    for (const FamilyText &t : testFamilyText())
        family.emplace_back(&g, t.nameText(), t.descText());
    family[1] += 7;

    // The stat views the table's text: no copy of its own.
    EXPECT_EQ(family[1].name().data(), testFamilyText()[1].name.data());

    std::ostringstream text;
    root.dump(text);
    EXPECT_NE(text.str().find("root.node12.eventsBetaWithALongName"),
              std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("# BetaWithALongName events, counted"),
              std::string::npos)
        << text.str();

    std::ostringstream json;
    root.dumpJson(json);
    EXPECT_NE(json.str().find("\"eventsBetaWithALongName\":{\"type\":"
                              "\"scalar\",\"desc\":\"BetaWithALongName "
                              "events, counted\",\"value\":7}"),
              std::string::npos)
        << json.str();

    const Info *found = root.resolve("node12.eventsBetaWithALongName");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &family[1]);
    EXPECT_EQ(found->summaryValue(), 7.0);
    EXPECT_EQ(root.resolve(std::string("node12.") + "eventsAlpha"),
              &family[0]);
}

TEST(Stats, DumpPadsTheLabelColumn)
{
    Group g("top");
    Scalar s(&g, "n", "short");
    s = 3;
    Histogram h(&g, "h", "hist");
    h.sample(12);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(),
              "top.n" + std::string(39, ' ') + std::string(13, ' ') +
                  "3  # short\n" + "top.h" + std::string(39, ' ') +
                  std::string(12, ' ') +
                  "12  # hist (mean; samples=1 min=12 max=12)\n" +
                  "top.h[8,16)" + std::string(33, ' ') +
                  std::string(13, ' ') + "1\n");
}

TEST(Stats, SummaryValueCoversEveryKind)
{
    Group g("top");
    Scalar s(&g, "s", "");
    s += 4;
    Average a(&g, "a", "");
    a.sample(2);
    a.sample(4);
    Formula f(&g, "f", "", [&] { return s.value() * 10; });
    EXPECT_DOUBLE_EQ(s.summaryValue(), 4.0);
    EXPECT_DOUBLE_EQ(a.summaryValue(), 3.0);
    EXPECT_DOUBLE_EQ(f.summaryValue(), 40.0);
    // The group exposes its member list for generic consumers
    // (IntervalSampler walks it to build time-series columns).
    EXPECT_EQ(g.statsList().size(), 3u);
    EXPECT_TRUE(g.childGroups().empty());
}

} // namespace
} // namespace april::stats
