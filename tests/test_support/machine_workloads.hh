/**
 * @file
 * Shared full-machine test workloads. The stall-stress program mixes
 * long arithmetic stalls with contended full/empty locking so both the
 * cycle-skipping fast path and the coherence protocol are genuinely
 * exercised; cycle_skip_test.cc and trace_test.cc run it differentially
 * (skip on vs. off) and must record identical runs (recordRun).
 */

#ifndef APRIL_TESTS_TEST_SUPPORT_MACHINE_WORKLOADS_HH
#define APRIL_TESTS_TEST_SUPPORT_MACHINE_WORKLOADS_HH

#include "machine/alewife_machine.hh"
#include "workloads/handwritten.hh"

namespace april::testutil
{

constexpr Addr kStressLock = 400;
constexpr Addr kStressCount = 404;
constexpr int kStressIters = 30;

/**
 * All nodes hammer a shared f/e-locked counter; a DIV per iteration
 * adds long stall windows so the skip path genuinely engages between
 * bursts of coherence traffic. Node 0 spins until every increment has
 * landed, prints the total and halts the machine.
 */
inline Program
buildStallStress(uint32_t nodes)
{
    using tagged::fixnum;
    using tagged::ptr;

    Assembler as;
    as.bind("worker");
    as.movi(1, ptr(kStressLock, Tag::Other));
    as.movi(2, ptr(kStressCount, Tag::Other));
    as.movi(3, 0);                      // iteration count
    as.movi(7, fixnum(84));             // DIV operands (future-free)
    as.movi(8, fixnum(4));
    as.bind("loop");
    as.div(9, 7, 8);                    // long stall: skippable window
    as.bind("acq");
    as.ldenw(4, 1, 0);
    as.jRaw(Cond::EMPTY, "acq");
    as.nop();
    as.ldnw(5, 2, 0);
    as.addi(5, 5, int32_t(fixnum(1)));
    as.stnw(5, 2, 0);
    as.stfnw(reg::r0, 1, 0);            // release: set full
    as.addiR(3, 3, 1);
    as.cmpiR(3, kStressIters);
    as.jRaw(Cond::LT, "loop");
    as.nop();
    // Node 0 waits for the full count, reports it, stops the machine;
    // the other nodes simply halt their cores.
    as.ldio(6, int(IoReg::NodeId));
    as.cmpiR(6, 0);
    as.jRaw(Cond::NE, "done");
    as.nop();
    as.bind("wait");
    as.ldnw(5, 2, 0);
    as.cmpiR(5, int32_t(fixnum(int32_t(nodes) * kStressIters)));
    as.jRaw(Cond::NE, "wait");
    as.nop();
    as.stio(int(IoReg::ConsoleOut), 5);
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("done");
    as.halt();

    workloads::emitSwitchStubs(as);
    return as.finish();
}

/** Point every core of @p m at the stall-stress entry and handlers. */
inline void
bootStallStress(AlewifeMachine &m, const Program &prog)
{
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        workloads::bootCoherentNode(m.proc(n), prog);
    m.memory().write(kStressCount, tagged::fixnum(0));
}

} // namespace april::testutil

#endif // APRIL_TESTS_TEST_SUPPORT_MACHINE_WORKLOADS_HH
