/**
 * @file
 * The parallel execution engine (DESIGN.md §7.6): AlewifeMachine
 * sharded over host worker threads must be a bit-for-bit twin of the
 * sequential simulator (compareRuns: identical snapshot, stats JSON,
 * cycle breakdown, trace and span log; and as many resident memory
 * pages) for every thread count, with cycle-skipping on or off, and
 * across arbitrary pause/resume boundaries.
 *
 * No run quiesces: the booted runtime's idle workers spin forever, so
 * the machine never goes fully silent. Every run stops at the same
 * committed halt cycle, which is all twin comparison needs —
 * in-flight traffic is part of the deterministic state. An idle
 * sharded machine's host workers park, so a paused or finished
 * machine costs no CPU while it lives. Interprocessor interrupts ride
 * the same arrival queues as coherence packets, within a shard and
 * across shards.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/digest.hh"
#include "common/logging.hh"
#include "machine/alewife_machine.hh"
#include "machine/snapshot.hh"
#include "mult/compiler.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

Program
compileLazy(const std::string &source)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Lazy;
    return mult::compileProgram(source, copts);
}

std::unique_ptr<AlewifeMachine>
makeMachine(const Program &prog, uint32_t threads, bool skip)
{
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    p.cycleSkip = skip;
    p.traceEvents = true;
    p.cohTrace = true;
    p.hostThreads = threads;
    return std::make_unique<AlewifeMachine>(p, &prog);
}

std::unique_ptr<AlewifeMachine>
runOnce(const Program &prog, uint32_t threads, bool skip)
{
    auto m = makeMachine(prog, threads, skip);
    m->run(80'000'000);
    EXPECT_TRUE(m->halted());
    return m;
}

class ParallelRun : public testing::TestWithParam<const char *>
{
};

/** All four suite workloads: threads 2..4 x skip on/off, each a
 *  bit-identical twin of the one-thread run in the same skip mode. */
TEST_P(ParallelRun, ShardedRunIsBitIdentical)
{
    workloads::SuiteSizes s;
    s.fibN = 10;
    s.factorLo = 120;
    s.factorHi = 150;
    s.queensN = 5;
    s.speechLayers = 4;
    s.speechWidth = 4;
    std::string name = GetParam();
    workloads::Benchmark b =
        name == "fib"      ? workloads::makeFib(s)
        : name == "factor" ? workloads::makeFactor(s)
        : name == "queens" ? workloads::makeQueens(s)
                           : workloads::makeSpeech(s);
    Program prog = compileLazy(b.source);

    for (bool skip : {true, false}) {
        auto ref = runOnce(prog, 1, skip);
        EXPECT_EQ(ref->hostThreads(), 1u);
        ASSERT_FALSE(ref->console().empty());
        EXPECT_EQ(tagged::toInt(ref->console().back()), b.expected);
        size_t pages = ref->memory().residentPages();
        RunRecord want = recordRun(*ref);
        for (uint32_t threads : {2u, 3u, 4u}) {
            auto par = runOnce(prog, threads, skip);
            std::string what = name + " threads=" +
                               std::to_string(threads) + " skip=" +
                               (skip ? "on" : "off");
            EXPECT_EQ(par->hostThreads(), threads);
            EXPECT_GE(par->quantum(), 1u);
            EXPECT_EQ(par->memory().residentPages(), pages) << what;
            RunRecord got = recordRun(*par);
            par.reset();
            EXPECT_EQ(compareRuns(want, got), "") << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelRun,
                         testing::Values("fib", "factor", "queens",
                                         "speech"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

/** Pausing run() mid-flight — at quantum multiples and at ragged
 *  off-grid cycle counts — and resuming must not perturb anything:
 *  the quantum grid is absolute, not relative to the call. */
TEST(ParallelRunResume, ChunkedRunMatchesContinuousRun)
{
    Program prog = compileLazy(workloads::fibSource(10));
    auto ref = runOnce(prog, 4, true);
    size_t pages = ref->memory().residentPages();
    RunRecord want = recordRun(*ref);
    ref.reset();

    for (uint64_t chunk : {uint64_t(1), uint64_t(0)}) {
        auto m = makeMachine(prog, 4, true);
        uint64_t step = chunk ? m->quantum() * 16 // on-grid pauses
                              : 997;              // ragged pauses
        uint64_t guard = 0;
        while (!m->halted() && ++guard < 1'000'000)
            m->run(step);
        std::string what = "chunked step=" + std::to_string(step);
        EXPECT_TRUE(m->halted()) << what;
        EXPECT_EQ(m->memory().residentPages(), pages) << what;
        RunRecord got = recordRun(*m);
        m.reset();
        EXPECT_EQ(compareRuns(want, got), "") << what;
    }
}

/** The PR 8 machine-scaling configuration (DESIGN.md §7.8): the
 *  wide-sharing workload on a 4x4 mesh under the limited directory
 *  (i = 4, so the 16-wide sharer set overflows and the spill walk
 *  runs inside the timed simulation). The sharded engines must stay
 *  bit-for-bit twins of the sequential one — snapshot, stats, trace
 *  and span log — in both cycle-skip modes. */
TEST(ParallelRunMesh, LimitedDirectoryOnMeshIsBitIdentical)
{
    workloads::WideSharing w =
        workloads::buildWideSharing(16, 1u << 14);
    auto runWide = [&](uint32_t threads, bool skip) {
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 4};
        p.wordsPerNode = w.wordsPerNode;
        p.bootRuntime = false;
        p.controller.cache = {.lineWords = 4, .numLines = 64,
                              .assoc = 2};
        p.cycleSkip = skip;
        p.traceEvents = true;
        p.cohTrace = true;
        p.hostThreads = threads;
        p.controller.dirScheme = coh::DirScheme::LimitedPtr;
        p.controller.dirPointers = 4;
        auto m = std::make_unique<AlewifeMachine>(p, &w.prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            workloads::bootCoherentNode(m->proc(n), w.prog);
        m->run(80'000'000);
        EXPECT_TRUE(m->halted());
        // The spill machinery actually ran in every configuration.
        double traps = 0;
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            traps += m->controller(n).statOverflowTraps.value();
        EXPECT_GE(traps, 1.0) << "threads=" << threads;
        return m;
    };

    for (bool skip : {true, false}) {
        auto ref = runWide(1, skip);
        EXPECT_EQ(ref->hostThreads(), 1u);
        EXPECT_EQ(ref->console(), std::vector<Word>{tagged::fixnum(99)});
        size_t pages = ref->memory().residentPages();
        RunRecord want = recordRun(*ref);
        for (uint32_t threads : {2u, 4u}) {
            auto par = runWide(threads, skip);
            std::string what = "wide-sharing threads=" +
                               std::to_string(threads) + " skip=" +
                               (skip ? "on" : "off");
            EXPECT_EQ(par->hostThreads(), threads);
            EXPECT_EQ(par->memory().residentPages(), pages) << what;
            RunRecord got = recordRun(*par);
            par.reset();
            EXPECT_EQ(compareRuns(want, got), "") << what;
        }
    }
}

/** Nodes smaller than a full 512-word memory page (DESIGN.md
 *  §7.11): a page shared by two nodes' home ranges would be
 *  materialised and read by two shards at once. At one node per
 *  shard, the 4-thread run must be a race-free twin of the 1-thread
 *  run, resident pages included. */
TEST(ParallelRunMesh, SubPageNodeSpansAreBitIdentical)
{
    constexpr uint32_t kWordsPerNode = 1u << 8;
    workloads::WideSharing w =
        workloads::buildWideSharing(4, kWordsPerNode);
    auto runWide = [&](uint32_t threads) {
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 2};
        p.wordsPerNode = w.wordsPerNode;
        p.bootRuntime = false;
        p.controller.cache = {.lineWords = 4, .numLines = 64,
                              .assoc = 2};
        p.traceEvents = true;
        p.cohTrace = true;
        p.hostThreads = threads;
        auto m = std::make_unique<AlewifeMachine>(p, &w.prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            workloads::bootCoherentNode(m->proc(n), w.prog);
        m->run(80'000'000);
        EXPECT_TRUE(m->halted());
        return m;
    };

    auto ref = runWide(1);
    EXPECT_EQ(ref->console(), std::vector<Word>{tagged::fixnum(99)});
    // Every node wrote its own done flag back home: one page each.
    EXPECT_EQ(ref->memory().residentPages(), 4u);
    auto par = runWide(4);
    EXPECT_EQ(par->hostThreads(), 4u);
    EXPECT_EQ(par->memory().residentPages(), 4u);
    EXPECT_EQ(compareRuns(recordRun(*ref), recordRun(*par)), "");
}

/** CPU time (user + system) this process has used so far. */
std::chrono::microseconds
processCpu()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return std::chrono::seconds(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           std::chrono::microseconds(ru.ru_utime.tv_usec +
                                     ru.ru_stime.tv_usec);
}

/** A finished machine's three idle host workers park: holding it for
 *  200 ms costs the process well under 50 ms of CPU. */
TEST(ParallelRunResume, IdleWorkersCostNoCpu)
{
    Program prog = compileLazy(workloads::fibSource(8));
    auto m = runOnce(prog, 4, true);
    ASSERT_EQ(m->hostThreads(), 4u);
    auto before = processCpu();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto used = processCpu() - before;
    EXPECT_LT(used, std::chrono::milliseconds(50))
        << used.count() << " us of CPU while idle";
}

/** Thread counts beyond the node count clamp instead of failing. */
TEST(ParallelRunResume, ThreadsClampToNodeCount)
{
    Program prog = compileLazy(workloads::fibSource(8));
    auto ref = runOnce(prog, 1, true);
    auto par = runOnce(prog, 64, true);
    EXPECT_LE(par->hostThreads(), 4u);
    EXPECT_GE(par->hostThreads(), 2u);
    EXPECT_EQ(par->memory().residentPages(),
              ref->memory().residentPages());
    EXPECT_EQ(compareRuns(recordRun(*ref), recordRun(*par)), "");
}

/** A guest fault on one node, raised inside a shard's quantum,
 *  reaches the caller of run() as the same PanicError at every thread
 *  count, after the other workers have finished the quantum; the
 *  machine and its worker pool are then destroyed normally. */
TEST(ParallelRun, WorkerExceptionIsRethrown)
{
    // Node 3 runs a strict DIV on an untagged odd operand: a
    // FutureCompute trap with no vector set. The other nodes halt.
    Assembler as;
    as.bind("worker");
    as.ldio(1, int(IoReg::NodeId));
    as.cmpiR(1, 3);
    as.jRaw(Cond::NE, "done");
    as.nop();
    as.movi(2, 7);
    as.movi(3, tagged::fixnum(1));
    as.div(4, 2, 3);
    as.bind("done");
    as.halt();
    Program prog = as.finish();

    auto faultMessage = [&](uint32_t threads) {
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 2};
        p.bootRuntime = false;
        p.hostThreads = threads;
        auto m = std::make_unique<AlewifeMachine>(p, &prog);
        EXPECT_EQ(m->hostThreads(), threads);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            m->proc(n).reset(prog.entry("worker"));
        std::string what;
        try {
            m->run(10'000);
        } catch (const PanicError &e) {
            what = e.what();
        }
        m.reset();
        return what;
    };

    std::string serial = faultMessage(1);
    EXPECT_NE(serial.find("FutureCompute has no vector"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("node 3"), std::string::npos) << serial;
    EXPECT_EQ(faultMessage(4), serial);
}

/**
 * Interprocessor interrupts (Section 3.4) on a 2x2 mesh, within a
 * shard and across shards, mixed with coherence packets. In the same
 * cycle nodes 0, 1 and 2 interrupt node 3 and node 3 interrupts node
 * 2: nodes 1 and 2 are one hop from node 3, so their interrupts are
 * due there in one cycle and the higher source wins (an interrupt is
 * one pending flag plus its argument). Then each node interrupts
 * (n+1)%4 and (n+2)%4 and stores into (n+1)%4's memory. The handler
 * writes its argument, node << 4 | round, to the console.
 */
TEST(ParallelRunIpi, InterruptsAreBitIdenticalOnEveryShardCount)
{
    constexpr uint32_t kWordsShift = 16;
    Assembler as;
    as.bind("main");
    as.ldio(1, int(IoReg::NodeId));
    as.slliR(3, 1, 4);                      // argument: node << 4 | k
    as.srliR(7, 1, 1);                      // round 1: 3 ^ (n & n >> 1)
    as.andR(7, 1, 7);
    as.movi(2, 3);
    as.xorR(2, 2, 7);
    as.stio(int(IoReg::IpiDest), 2);
    as.oriR(4, 3, 1);
    as.stio(int(IoReg::IpiSend), 4);
    for (int k = 2; k <= 3; ++k) {
        as.addiR(2, 1, k - 1);
        as.andiR(2, 2, 3);
        as.stio(int(IoReg::IpiDest), 2);
        as.oriR(4, 3, k);
        as.stio(int(IoReg::IpiSend), 4);
    }
    as.addiR(2, 1, 1);                      // store into (n+1)%4's home
    as.andiR(2, 2, 3);
    as.slliR(6, 2, int32_t(kWordsShift + tagged::tagShift));
    as.oriR(6, 6, int32_t(tagged::ptr(64, Tag::Other)));
    as.stnw(4, 6, 0);
    as.movi(5, 0);
    as.bind("spin");
    as.addiR(5, 5, 1);
    as.cmpiR(5, 200);
    as.jRaw(Cond::LT, "spin");
    as.nop();
    as.cmpiR(1, 0);
    as.jRaw(Cond::NE, "idle");
    as.nop();
    as.stio(int(IoReg::MachineHalt), 1);
    as.bind("idle");
    as.j(Cond::AL, "idle");
    as.bind("ipi");
    as.rdspec(reg::t(1), Spec::TrapArg);
    as.stio(int(IoReg::ConsoleOut), reg::t(1));
    as.rettRetry();
    Program prog = as.finish();

    auto runIpi = [&](uint32_t threads, bool skip) {
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 2};
        p.wordsPerNode = 1u << kWordsShift;
        p.bootRuntime = false;
        p.controller.cache = {.lineWords = 4, .numLines = 64,
                              .assoc = 2};
        p.cycleSkip = skip;
        p.traceEvents = true;
        p.cohTrace = true;
        p.hostThreads = threads;
        auto m = std::make_unique<AlewifeMachine>(p, &prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n) {
            m->proc(n).reset(prog.entry("main"));
            m->proc(n).setTrapVector(TrapKind::Ipi, prog.entry("ipi"));
        }
        m->run(1'000'000);
        EXPECT_TRUE(m->halted());
        EXPECT_EQ(m->hostThreads(), threads);
        return m;
    };

    auto ref = runIpi(1, true);
    // Every interrupt but 0x11, which lost to 0x21 in the same cycle.
    EXPECT_EQ(ref->console(),
              (std::vector<Word>{0x31, 0x21, 0x02, 0x12, 0x01, 0x03,
                                 0x13, 0x32, 0x22, 0x23, 0x33}));
    EXPECT_DOUBLE_EQ(ref->network().statPackets.value(),
                     ref->telemetry().statDelivered.value());
    RunRecord want = recordRun(*ref);
    Digest stats;
    stats.addString(want.outputs.stats);
    EXPECT_EQ(stats.value(), 0x233aa2ce96d0bcf0ull)
        << std::hex << stats.value();
    for (bool skip : {true, false}) {
        for (uint32_t threads : {1u, 2u, 4u}) {
            if (threads == 1 && skip)
                continue;
            auto m = runIpi(threads, skip);
            std::string what = "threads=" + std::to_string(threads) +
                               " skip=" + (skip ? "on" : "off");
            EXPECT_EQ(compareRuns(want, recordRun(*m)), "") << what;
        }
    }
}

} // namespace
} // namespace april
