/**
 * @file
 * Coherence + synchronization stress: all nodes of a mesh hammer the
 * same shared structures through their caches. Lost updates, stale
 * reads or broken lock atomicity would corrupt the final counts.
 */

#include <gtest/gtest.h>

#include "machine/alewife_machine.hh"
#include "workloads/handwritten.hh"

namespace april
{
namespace
{

using namespace tagged;

constexpr Addr kLock = 400;     ///< f/e lock word (homed on node 0)
constexpr Addr kCount = 404;    ///< shared counter (separate line)
constexpr int kIters = 60;

Program
buildIncrementers(bool use_tas)
{
    Assembler as;
    as.bind("worker");
    as.movi(1, ptr(kLock, Tag::Other));
    as.movi(2, ptr(kCount, Tag::Other));
    as.movi(3, 0);                      // iteration count
    as.bind("loop");
    if (use_tas) {
        // Encore-style test&set spin lock.
        as.bind("acq");
        as.tas(4, 1, 0);
        as.jRaw(Cond::NE, "acq");
        as.nop();
    } else {
        // APRIL f/e lock: one consuming load per probe.
        as.bind("acq");
        as.ldenw(4, 1, 0);
        as.jRaw(Cond::EMPTY, "acq");
        as.nop();
    }
    as.ldnw(5, 2, 0);                   // counter (cached, coherent)
    as.addi(5, 5, int32_t(fixnum(1)));
    as.stnw(5, 2, 0);
    if (use_tas)
        as.stnw(reg::r0, 1, 0);         // release: store 0
    else
        as.stfnw(reg::r0, 1, 0);        // release: set full
    as.addiR(3, 3, 1);
    as.cmpiR(3, kIters);
    as.jRaw(Cond::LT, "loop");
    as.nop();
    as.halt();

    workloads::emitSwitchStubs(as);
    return as.finish();
}

int64_t
runStress(bool use_tas, int dim, int radix, uint32_t *inv_out = nullptr)
{
    Program prog = buildIncrementers(use_tas);
    AlewifeParams p;
    p.network = {.dim = dim, .radix = radix};
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    AlewifeMachine m(p, &prog);
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        workloads::bootCoherentNode(m.proc(n), prog);
    m.memory().write(kCount, fixnum(0));
    for (uint64_t c = 0; c < 20'000'000; ++c) {
        m.tick();
        bool all = true;
        for (uint32_t n = 0; n < m.numNodes(); ++n)
            all &= m.proc(n).halted();
        if (all)
            break;
    }
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        EXPECT_TRUE(m.proc(n).halted()) << "node " << n << " stuck";
    }
    if (inv_out) {
        *inv_out = 0;
        for (uint32_t n = 0; n < m.numNodes(); ++n)
            *inv_out += uint32_t(m.controller(n).statInvSent.value());
    }
    return toInt(m.coherentRead(kCount));
}

TEST(CoherenceStress, FeLockCounterFourNodes)
{
    uint32_t invs = 0;
    EXPECT_EQ(runStress(false, 2, 2, &invs), 4 * kIters);
    EXPECT_GT(invs, 0u) << "write sharing must invalidate";
}

TEST(CoherenceStress, FeLockCounterEightNodes)
{
    EXPECT_EQ(runStress(false, 3, 2), 8 * kIters);
}

TEST(CoherenceStress, TasLockCounterFourNodes)
{
    EXPECT_EQ(runStress(true, 2, 2), 4 * kIters);
}

TEST(CoherenceStress, TasLockCounterNineNodes)
{
    EXPECT_EQ(runStress(true, 2, 3), 9 * kIters);
}

} // namespace
} // namespace april
