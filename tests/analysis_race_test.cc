/**
 * @file
 * Dynamic race detector on the full ALEWIFE machine.
 *
 * Positive cases: a plain-load/store shared counter with no
 * synchronization must be flagged, and the stall-stress workload's
 * final unlocked spin-read of the locked counter is a genuine
 * read/write race Eraser-style checking reports. Negative cases: the
 * fine-grain f/e pipeline and a future-parallel Mul-T workload run
 * with zero reports. The detector must be purely observational —
 * identical cycle counts and console output with it on or off — and
 * its cycle-stamped reports must be identical under cycle-skipping.
 */

#include <gtest/gtest.h>

#include "machine/alewife_machine.hh"
#include "machine/snapshot.hh"
#include "mult/compiler.hh"
#include "runtime/runtime.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

#include "test_support/machine_workloads.hh"

namespace april
{
namespace
{

using tagged::fixnum;
using tagged::ptr;

constexpr Addr kCounter = 400;      ///< plain shared counter (racy)
constexpr Addr kFlag = 404;         ///< f/e done flag (separate line)
constexpr int kIters = 40;

/**
 * Both nodes hammer kCounter with plain ldnw/stnw increments — no
 * lock, no f/e discipline. Node 1 then sets the done flag full; node 0
 * waits on the flag and stops the machine.
 */
Program
buildRacyCounter()
{
    Assembler as;
    as.bind("worker");
    as.movi(1, ptr(kCounter, Tag::Other));
    as.movi(3, 0);
    as.bind("loop");
    as.ldnw(4, 1, 0);
    as.addiR(4, 4, 1);
    as.stnw(4, 1, 0);
    as.addiR(3, 3, 1);
    as.cmpiR(3, kIters);
    as.jRaw(Cond::LT, "loop");
    as.nop();
    as.movi(2, ptr(kFlag, Tag::Other));
    as.ldio(6, int(IoReg::NodeId));
    as.cmpiR(6, 0);
    as.jRaw(Cond::NE, "signal");
    as.nop();
    as.bind("wait");
    as.ldnw(5, 2, 0);
    as.jRaw(Cond::EMPTY, "wait");
    as.nop();
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("signal");
    as.stfnw(reg::r0, 2, 0);            // set full: node 1 is done
    as.halt();

    workloads::emitSwitchStubs(as);
    return as.finish();
}

void
bootRaw(AlewifeMachine &m, const Program &prog)
{
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        workloads::bootCoherentNode(m.proc(n), prog);
}

struct RacyOut
{
    RunRecord run;
    uint64_t races = 0;
    std::string reports;
};

RacyOut
runRacyCounter(bool detect, bool skip)
{
    Program prog = buildRacyCounter();
    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.cycleSkip = skip;
    p.detectRaces = detect;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    bootRaw(m, prog);
    m.memory().setFull(kFlag, false);
    m.run(5'000'000);

    RacyOut out;
    out.run = recordRun(m);
    if (m.raceDetector()) {
        out.races = uint64_t(m.raceDetector()->statRaces.value());
        out.reports = m.raceDetector()->formatReports();
    }
    return out;
}

TEST(RaceDetector, FlagsThePlainSharedCounter)
{
    RacyOut out = runRacyCounter(true, true);
    ASSERT_TRUE(out.run.snap.halted);
    EXPECT_GE(out.races, 1u) << "unsynchronized shared counter missed";

    // Every report is about the counter, from the second node to
    // arrive; the f/e done flag must stay exempt.
    Program prog = buildRacyCounter();
    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.detectRaces = true;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    bootRaw(m, prog);
    m.memory().setFull(kFlag, false);
    m.run(5'000'000);
    ASSERT_NE(m.raceDetector(), nullptr);
    const auto &reports = m.raceDetector()->reports();
    ASSERT_FALSE(reports.empty());
    for (const auto &r : reports) {
        EXPECT_EQ(r.addr, kCounter);
        EXPECT_NE(r.node, r.firstNode);
        EXPECT_GT(r.cycle, 0u);
    }
    EXPECT_GT(m.raceDetector()->statWordsTracked.value(), 0.0);
    EXPECT_GT(m.raceDetector()->statSyncWords.value(), 0.0);
    EXPECT_FALSE(m.raceDetector()->formatReports().empty());
}

TEST(RaceDetector, DetectorIsPurelyObservational)
{
    RacyOut on = runRacyCounter(true, true);
    RacyOut off = runRacyCounter(false, true);
    ASSERT_TRUE(on.run.snap.halted);
    // The detector adds statistics of its own, so only the machine
    // state is a twin.
    EXPECT_EQ(compareExact(on.run.snap, off.run.snap), "");
}

TEST(RaceDetector, ReportsAreIdenticalUnderCycleSkip)
{
    RacyOut skip = runRacyCounter(true, true);
    RacyOut tick = runRacyCounter(true, false);
    ASSERT_TRUE(skip.run.snap.halted);
    EXPECT_EQ(compareRuns(skip.run, tick.run), "");
    EXPECT_EQ(skip.races, tick.races);
    EXPECT_EQ(skip.reports, tick.reports) << "reports are cycle-stamped: "
                                             "skipping must be exact";
}

TEST(RaceDetector, FineGrainSyncPipelineIsRaceFree)
{
    workloads::FineGrainSync w = workloads::buildFineGrainSync();
    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.detectRaces = true;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &w.prog);
    for (int i = 0; i < w.items; ++i)
        m.memory().setFull(w.buf + Addr(i), false);
    m.run(10'000'000);

    ASSERT_TRUE(m.halted());
    ASSERT_FALSE(m.console().empty());
    EXPECT_EQ(m.console().back(),
              Word(fixnum(int32_t(w.expectedSum))));
    ASSERT_NE(m.raceDetector(), nullptr);
    EXPECT_EQ(m.raceDetector()->statRaces.value(), 0.0)
        << m.raceDetector()->formatReports();
    // Every buffer handoff went through f/e discipline.
    EXPECT_GE(m.raceDetector()->statSyncWords.value(), double(w.items));
}

TEST(RaceDetector, StallStressFlagsOnlyTheUnlockedSpinRead)
{
    // The workload locks every counter *write*, but node 0's final
    // wait loop polls the counter without the lock — a real (benign)
    // read/write race Eraser reports; the lock cell itself is f/e
    // traffic and stays exempt.
    Program prog = testutil::buildStallStress(4);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.detectRaces = true;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    testutil::bootStallStress(m, prog);
    m.run(20'000'000);

    ASSERT_TRUE(m.halted());
    ASSERT_NE(m.raceDetector(), nullptr);
    const auto &reports = m.raceDetector()->reports();
    ASSERT_GE(reports.size(), 1u)
        << "the unlocked wait-loop read must be flagged";
    for (const auto &r : reports)
        EXPECT_EQ(r.addr, testutil::kStressCount)
            << m.raceDetector()->formatReports();
}

TEST(RaceDetector, FuturesWorkloadIsRaceFree)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Eager;
    Program prog = mult::compileProgram(workloads::fibSource(9), copts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.wordsPerNode = 1u << 20;
    p.detectRaces = true;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    AlewifeMachine m(p, &prog);
    m.run(80'000'000);

    ASSERT_TRUE(m.halted());
    ASSERT_FALSE(m.console().empty());
    EXPECT_EQ(m.console().back(), Word(fixnum(34)));
    ASSERT_NE(m.raceDetector(), nullptr);
    EXPECT_EQ(m.raceDetector()->statRaces.value(), 0.0)
        << "future/steal traffic misclassified as races:\n"
        << m.raceDetector()->formatReports();
}

} // namespace
} // namespace april
