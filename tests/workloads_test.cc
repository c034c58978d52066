/**
 * @file
 * The four Table 3 workloads validated against native C++ oracles in
 * every system configuration (T seq / APRIL eager / APRIL lazy /
 * Encore) and at several processor counts; the workload-spec parser
 * (machine/workload.hh) with its defaults, arguments, rejections and
 * oracles; and the `april` CLI: its refusal of bad run arguments and
 * hostile input, and the pinned bytes of the files `april run` writes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hh"
#include "machine/workload.hh"
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

TEST(WorkloadSpec, DefaultsAndShapes)
{
    using workloads::fromSpec;
    const workloads::Workload fib = fromSpec("fib");
    EXPECT_EQ(fib.name, "fib");
    EXPECT_EQ(fib.expected, workloads::fibExpected(12));
    EXPECT_FALSE(fib.boot);
    EXPECT_TRUE(fib.options.alewife);
    EXPECT_EQ(fib.options.nodes, 4u);
    EXPECT_EQ(fib.options.netRadix, 2);
    EXPECT_EQ(fib.options.wordsPerNode, 1u << 20);
    EXPECT_EQ(fib.options.controller.cache.numLines, 4096u);
    EXPECT_EQ(fib.options.compile.futures, FM::Lazy);
    EXPECT_EQ(fromSpec("factor").expected,
              workloads::factorExpected(1000, 1040));
    EXPECT_EQ(fromSpec("queens").expected, workloads::queensExpected(6));
    EXPECT_EQ(fromSpec("speech").expected,
              workloads::speechExpected(8, 12));

    const workloads::Workload coh = fromSpec("coherent16");
    EXPECT_EQ(coh.expected, 16 * 200);
    EXPECT_TRUE(coh.boot);
    EXPECT_EQ(coh.options.nodes, 16u);
    EXPECT_EQ(coh.options.netRadix, 4);
    EXPECT_EQ(coh.options.controller.cache.numLines, 64u);

    const workloads::Workload wide = fromSpec("wide");
    EXPECT_EQ(wide.expected, 99);
    EXPECT_TRUE(wide.boot);
    EXPECT_EQ(wide.options.nodes, 64u);
    EXPECT_EQ(wide.options.netRadix, 8);
    EXPECT_EQ(wide.options.wordsPerNode, 1u << 14);
}

TEST(WorkloadSpec, ArgumentsOverrideDefaults)
{
    using workloads::fromSpec;
    EXPECT_EQ(fromSpec("fib:10").expected, 55);
    EXPECT_EQ(fromSpec("factor:10:12").expected, 19);
    EXPECT_EQ(fromSpec("factor:1030").expected,
              workloads::factorExpected(1030, 1040));
    EXPECT_EQ(fromSpec("queens:5").expected, 10);
    EXPECT_EQ(fromSpec("speech:4:6").expected,
              workloads::speechExpected(4, 6));
    EXPECT_EQ(fromSpec("coherent16:20").expected, 320);
    const workloads::Workload wide = fromSpec("wide:16");
    EXPECT_EQ(wide.options.nodes, 16u);
    EXPECT_EQ(wide.options.netRadix, 4);
}

TEST(WorkloadSpec, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "fibonacci", "fib:", "fib:abc", "fib:-3", "fib:+3",
          "fib: 3", "fib:0", "fib:3x", "fib:10:2", "fib:99999999999",
          "factor:1040:1000", "factor:0:10", "queens:0", "speech:8:0",
          "coherent16:0", "coherent16:5:5", "wide:0", "wide:1",
          "wide:3", "wide:63"}) {
        EXPECT_THROW(workloads::fromSpec(bad), FatalError) << bad;
    }
}

TEST(WorkloadSpec, RunsToItsOracle)
{
    for (const char *spec : {"fib:8", "queens:4", "coherent16:10",
                             "wide:16"}) {
        SCOPED_TRACE(spec);
        const workloads::Workload w = workloads::fromSpec(spec);
        std::unique_ptr<Machine> m = makeMachine(w.prog, w.options,
                                                 w.boot);
        m->run(50'000'000);
        ASSERT_TRUE(m->halted());
        EXPECT_EQ(w.answer(*m), w.expected);
    }
    workloads::Workload perfect = workloads::fromSpec("queens:4");
    perfect.options.alewife = false;
    std::unique_ptr<Machine> m = makeMachine(perfect.prog, perfect.options);
    m->run(50'000'000);
    ASSERT_TRUE(m->halted());
    EXPECT_EQ(perfect.answer(*m), perfect.expected);
}

TEST(WorkloadSpec, MakeMachineRejectsAnEmptyMachine)
{
    workloads::Workload w = workloads::fromSpec("fib:5");
    w.options.nodes = 0;
    EXPECT_THROW(makeMachine(w.prog, w.options), FatalError);
    w.options.alewife = false;
    EXPECT_THROW(makeMachine(w.prog, w.options), FatalError);
}

/** Exit status of `april ARGS`, output discarded. */
int
runCli(const std::string &args)
{
    int status = std::system(
        (std::string(APRIL_CLI) + " " + args + " >/dev/null 2>&1")
            .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(AprilCli, RejectsBadRunArgumentsBeforeBuilding)
{
    for (const char *args :
         {"run", "run fib:abc", "run coherent16:0", "run wide:10",
          "run fib --perfect --nodes=abc", "run fib --perfect --nodes=0",
          "run fib --nodes=16",
          "run fib --threads=abc", "run fib --threads=-1",
          "run fib --frames=0", "run fib --max-cycles=1e9",
          "run fib --dir=none", "run fib --bogus", "run fib fib",
          "run coherent16 --perfect", "run wide:16 --perfect",
          "run coherent16 --nodes=16", "run fib --perfect --coh",
          "run fib --perfect --txns=t.json", "run fib --perfect --verify",
          "check prof", "diff coh a.json b.json", "bogus"}) {
        EXPECT_EQ(runCli(args), 2) << args;
    }
    EXPECT_EQ(runCli("run fib:5"), 0);
    EXPECT_EQ(runCli("run fib:5 --perfect --nodes=2"), 0);
}

/** A fresh directory under the test temp dir, removed on scope exit. */
struct ScratchDir
{
    ScratchDir()
    {
        path = testing::TempDir() + "april_cli_XXXXXX";
        if (!mkdtemp(path.data()))
            path.clear();
    }
    ~ScratchDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string path;
};

/** FNV-1a digest of the bytes of the file at @p path. */
uint64_t
fileDigest(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return digestString(os.str());
}

/**
 * The bytes of every file `april run fib:10` writes are pinned: on the
 * 2x2 ALEWIFE at one and at four host threads, which must agree, and
 * on the perfect machine with the planes it has. A change to any of
 * them must update these values on purpose.
 */
TEST(AprilCli, RunFilesArePinned)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    using Files = std::vector<std::pair<std::string, uint64_t>>;
    auto expectFiles = [&](const std::string &args, const Files &files) {
        std::string cmd = "run fib:10 " + args;
        for (const auto &[flag, digest] : files)
            cmd += " " + flag + "=" + dir.path + "/" + flag.substr(2);
        ASSERT_EQ(runCli(cmd), 0) << cmd;
        for (const auto &[flag, digest] : files) {
            uint64_t got = fileDigest(dir.path + "/" + flag.substr(2));
            EXPECT_EQ(got, digest)
                << args << " " << flag << ": 0x" << std::hex << got;
        }
    };
    const Files alewife = {
        {"--perfetto", 0xdbf14355632faf2full},
        {"--txns", 0x670cbb607b8be4e7ull},
        {"--task", 0xdbe3ec48a6307831ull},
        {"--coh", 0xca4742a7521399d4ull},
        {"--stats", 0x6b175b4a6bbf7bc3ull},
        {"--prof", 0x544c9c157e330f5full},
        {"--series", 0x90d9565576f43487ull},
    };
    expectFiles("--threads=1", alewife);
    expectFiles("--threads=4", alewife);
    expectFiles("--perfect", {{"--perfetto", 0xec8da29050efc463ull},
                              {"--task", 0x72048a0f28fbab16ull},
                              {"--stats", 0x09d02229e48340b9ull},
                              {"--prof", 0x9992a620604003bbull},
                              {"--series", 0xba6ce93c87aaa4ffull}});
}

TEST(AprilCli, FailsWhenAReportFileCannotBeWritten)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    EXPECT_EQ(runCli("run fib:8 --stats=/dev/full"), 2);
}

TEST(AprilCli, CheckRejectsJsonNestedTooDeeply)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string file = dir.path + "/deep.json";
    std::ofstream(file) << std::string(200'000, '[');
    EXPECT_EQ(runCli("check prof " + file), 2);
}

} // namespace
} // namespace april
