/**
 * @file
 * The four Table 3 workloads validated against native C++ oracles in
 * every system configuration (T seq / APRIL eager / APRIL lazy /
 * Encore) and at several processor counts.
 */

#include <gtest/gtest.h>

#include "test_support/mult_run.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

using testutil::runMult;
using tagged::fixnum;
using FM = mult::CompileOptions::FutureMode;

workloads::SuiteSizes
smallSizes()
{
    workloads::SuiteSizes s;
    s.fibN = 11;
    s.factorLo = 500;
    s.factorHi = 540;
    s.queensN = 6;
    s.speechLayers = 6;
    s.speechWidth = 6;
    return s;
}

struct Config
{
    const char *name;
    FM futures;
    bool software;
    uint32_t nodes;
};

// Without this gtest prints a Config as its raw bytes — a string
// pointer (moved by ASLR on every run) plus padding — and that dump
// ends up in the discovered ctest names, so they changed per build.
void
PrintTo(const Config &c, std::ostream *os)
{
    *os << c.name;
}

class WorkloadConfigTest : public ::testing::TestWithParam<Config>
{
};

TEST_P(WorkloadConfigTest, FibMatchesOracle)
{
    auto s = smallSizes();
    auto b = workloads::makeFib(s);
    auto cfg = GetParam();
    mult::CompileOptions c;
    c.futures = cfg.futures;
    c.softwareChecks = cfg.software;
    auto r = runMult(b.source, c, cfg.nodes);
    EXPECT_EQ(tagged::toInt(r.result), b.expected);
}

TEST_P(WorkloadConfigTest, FactorMatchesOracle)
{
    auto s = smallSizes();
    auto b = workloads::makeFactor(s);
    auto cfg = GetParam();
    mult::CompileOptions c;
    c.futures = cfg.futures;
    c.softwareChecks = cfg.software;
    auto r = runMult(b.source, c, cfg.nodes);
    EXPECT_EQ(tagged::toInt(r.result), b.expected);
}

TEST_P(WorkloadConfigTest, QueensMatchesOracle)
{
    auto s = smallSizes();
    auto b = workloads::makeQueens(s);
    auto cfg = GetParam();
    mult::CompileOptions c;
    c.futures = cfg.futures;
    c.softwareChecks = cfg.software;
    auto r = runMult(b.source, c, cfg.nodes);
    EXPECT_EQ(tagged::toInt(r.result), b.expected);
}

TEST_P(WorkloadConfigTest, SpeechMatchesOracle)
{
    auto s = smallSizes();
    auto b = workloads::makeSpeech(s);
    auto cfg = GetParam();
    mult::CompileOptions c;
    c.futures = cfg.futures;
    c.softwareChecks = cfg.software;
    auto r = runMult(b.source, c, cfg.nodes);
    EXPECT_EQ(tagged::toInt(r.result), b.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, WorkloadConfigTest,
    ::testing::Values(
        Config{"t_seq", FM::Erase, false, 1},
        Config{"mult_seq_encore", FM::Erase, true, 1},
        Config{"april_eager_1", FM::Eager, false, 1},
        Config{"april_eager_4", FM::Eager, false, 4},
        Config{"april_lazy_1", FM::Lazy, false, 1},
        Config{"april_lazy_4", FM::Lazy, false, 4},
        Config{"encore_eager_2", FM::Eager, true, 2}),
    [](const ::testing::TestParamInfo<Config> &info) {
        return info.param.name;
    });

TEST(WorkloadOracles, KnownValues)
{
    EXPECT_EQ(workloads::fibExpected(12), 144);
    EXPECT_EQ(workloads::fibExpected(20), 6765);
    EXPECT_EQ(workloads::queensExpected(6), 4);
    EXPECT_EQ(workloads::queensExpected(8), 92);
    // Largest prime factors: 10 -> 5, 11 -> 11, 12 -> 3: sum 19.
    EXPECT_EQ(workloads::factorExpected(10, 12), 19);
    // Speech: monotone in layers (weights are non-negative).
    EXPECT_GT(workloads::speechExpected(8, 6),
              workloads::speechExpected(4, 6));
}

TEST(WorkloadOracles, SpeedupOnFourProcessors)
{
    // Every workload must show parallel speedup with lazy futures —
    // Table 3's 4-processor column is ~0.3-0.5x the 1-processor one.
    auto s = smallSizes();
    for (auto b : {workloads::makeFib(s), workloads::makeFactor(s),
                   workloads::makeQueens(s), workloads::makeSpeech(s)}) {
        mult::CompileOptions c;
        c.futures = FM::Lazy;
        auto r1 = runMult(b.source, c, 1);
        auto r4 = runMult(b.source, c, 4);
        EXPECT_LT(double(r4.cycles), 0.8 * double(r1.cycles))
            << b.name << " lazy 4p vs 1p";
    }
}

} // namespace
} // namespace april
