/**
 * @file
 * End-to-end comparison of the two context-switch designs the paper
 * weighs (Section 6.1): the SPARC-based trap handler (11 cycles) and
 * the custom-APRIL hardware switch (4 cycles). Results must agree;
 * the hardware switch must never be slower; and because switches are
 * rare in a cache-based machine, the advantage must be modest — the
 * argument that justifies shipping the cheap trap-based design.
 */

#include <gtest/gtest.h>

#include "machine/alewife_machine.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

using FM = mult::CompileOptions::FutureMode;

struct SwitchRun
{
    Word result = 0;
    uint64_t cycles = 0;
    double switches = 0;
};

SwitchRun
runSwitchMode(const std::string &src, ProcParams::SwitchMode mode)
{
    mult::CompileOptions copts;
    copts.futures = FM::Eager;
    rt::RuntimeOptions ropts;
    ropts.hardwareSwitch = mode == ProcParams::SwitchMode::Hardware;
    Program prog = mult::compileProgram(src, copts, ropts);

    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};
    p.proc.switchMode = mode;
    p.controller.cache = {.lineWords = 4, .numLines = 512, .assoc = 4};
    AlewifeMachine m(p, &prog);
    m.run(200'000'000);
    EXPECT_TRUE(m.halted());

    SwitchRun r;
    r.result = m.console().back();
    r.cycles = m.cycle();
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        r.switches += m.proc(n).statSwitches.value() +
                      m.proc(n)
                          .statTraps[size_t(TrapKind::RemoteMiss)]
                          .value();
    }
    return r;
}

TEST(HardwareSwitch, ResultsAgreeAcrossSwitchDesigns)
{
    std::string src = workloads::fibSource(12);
    SwitchRun trap = runSwitchMode(src, ProcParams::SwitchMode::TrapHandler);
    SwitchRun hw = runSwitchMode(src, ProcParams::SwitchMode::Hardware);
    EXPECT_EQ(trap.result, hw.result);
    EXPECT_EQ(tagged::toInt(trap.result), workloads::fibExpected(12));
}

TEST(HardwareSwitch, FourCycleSwitchIsNoSlower)
{
    std::string src = workloads::fibSource(13);
    SwitchRun trap = runSwitchMode(src, ProcParams::SwitchMode::TrapHandler);
    SwitchRun hw = runSwitchMode(src, ProcParams::SwitchMode::Hardware);
    EXPECT_LE(hw.cycles, trap.cycles + trap.cycles / 20)
        << "hardware switching must not lose";
    // ... and the advantage is modest, because "the switching
    // frequency is expected to be small in a cache-based system"
    // (Section 8): well under 2x end to end.
    EXPECT_GT(double(hw.cycles), 0.5 * double(trap.cycles));
}

TEST(HardwareSwitch, QueensAgreesToo)
{
    std::string src = workloads::queensSource(5);
    SwitchRun trap = runSwitchMode(src, ProcParams::SwitchMode::TrapHandler);
    SwitchRun hw = runSwitchMode(src, ProcParams::SwitchMode::Hardware);
    EXPECT_EQ(trap.result, hw.result);
    EXPECT_EQ(tagged::toInt(hw.result), workloads::queensExpected(5));
}

} // namespace
} // namespace april
