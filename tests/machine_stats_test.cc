/**
 * @file
 * The statistics tree of a full machine run: every subsystem reports
 * through one nested stats::Group dump (processors, caches,
 * controllers, network), and the derived utilization formula holds.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "machine/alewife_machine.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

TEST(MachineStats, DumpCoversEverySubsystem)
{
    mult::CompileOptions copts;
    copts.futures = mult::CompileOptions::FutureMode::Eager;
    Program prog = mult::compileProgram(workloads::fibSource(9), copts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(50'000'000);
    ASSERT_TRUE(m.halted());

    std::ostringstream os;
    m.dump(os);
    std::string out = os.str();
    for (const char *key :
         {"alewife.network.packets", "alewife.network.latency",
          "alewife.ctrl0.cache.hits", "alewife.ctrl3.remoteMisses",
          "alewife.proc0.cycles", "alewife.proc0.utilization",
          "alewife.proc2.contextSwitches"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(MachineStats, UtilizationFormulaIsConsistent)
{
    mult::CompileOptions copts;
    Program prog = mult::compileProgram("(define (main) (+ 1 2))", copts);

    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(1'000'000);
    ASSERT_TRUE(m.halted());

    // Utilization is defined on the cycle accountant (§7.5): the
    // fraction of cycles doing useful work, pipeline hazards included
    // (the paper's U counts issue slots the thread itself occupies).
    Processor &proc = m.proc(0);
    double useful = proc.bucketCycles(profile::Bucket::Useful);
    double hazard = proc.bucketCycles(profile::Bucket::Hazard);
    EXPECT_NEAR(proc.statUtilization.value(),
                (useful + hazard) / proc.statCycles.value(), 1e-12);
    EXPECT_GT(proc.statUtilization.value(), 0.0);
    EXPECT_LE(proc.statUtilization.value(), 1.0);
    // Useful cycles never exceed completed instructions and together
    // the buckets account for every cycle.
    EXPECT_LE(useful, proc.statInsts.value());
    proc.verifyCycleAccounting();
}

TEST(MachineStats, ResetClearsTheWholeTree)
{
    mult::CompileOptions copts;
    Program prog = mult::compileProgram("(define (main) 7)", copts);

    AlewifeParams p;
    p.network = {.dim = 1, .radix = 2};
    AlewifeMachine m(p, &prog);
    m.run(1'000'000);
    ASSERT_TRUE(m.halted());
    EXPECT_GT(m.proc(0).statCycles.value(), 0.0);

    m.resetStats();
    EXPECT_EQ(m.proc(0).statCycles.value(), 0.0);
    EXPECT_EQ(m.network().statPackets.value(), 0.0);
    EXPECT_EQ(m.controller(0).cacheRef().statHits.value(), 0.0);
}

} // namespace
} // namespace april
