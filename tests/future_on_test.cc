/**
 * @file
 * The `future-on` placement construct (Section 2.2): "works just like
 * a normal future but allows the specification of the node on which
 * to schedule the future ... to experiment with techniques for
 * enhancing locality."
 */

#include <gtest/gtest.h>

#include "test_support/mult_run.hh"

namespace april
{
namespace
{

using testutil::runMult;
using tagged::fixnum;
using FM = mult::CompileOptions::FutureMode;

TEST(FutureOn, ValueIsNormalFuture)
{
    mult::CompileOptions c;
    c.futures = FM::Eager;
    auto r = runMult(
        "(define (work x) (* x x))"
        "(define (main) (touch (future-on 1 (work 7))))",
        c, 2);
    EXPECT_EQ(r.result, fixnum(49));
    EXPECT_EQ(r.spawns, 1u);
}

TEST(FutureOn, ErasedInSequentialMode)
{
    auto r = runMult(
        "(define (work x) (* x x))"
        "(define (main) (touch (future-on 1 (work 7))))");
    EXPECT_EQ(r.result, fixnum(49));
    EXPECT_EQ(r.spawns, 0u);
}

TEST(FutureOn, PlacementReachesTheNamedNode)
{
    // With stealing effectively idle (the target is told to do the
    // work directly), the task must run on node 2: its processor
    // executes the work loop, and the spawn lands on its queue.
    mult::CompileOptions c;
    c.futures = FM::Eager;
    Program prog = mult::compileProgram(
        "(define (spin n acc)"
        "  (if (= n 0) acc (spin (- n 1) (+ acc 1))))"
        "(define (main) (touch (future-on 2 (spin 200 0))))",
        c);

    PerfectMachineParams mp;
    mp.numNodes = 4;
    PerfectMachine machine(mp, &prog);
    machine.run(10'000'000);
    ASSERT_TRUE(machine.halted());
    EXPECT_EQ(machine.console().back(), fixnum(200));
    // Node 2 did the spinning: clearly more work than nodes 1 and 3.
    double n2 = machine.proc(2).statInsts.value();
    EXPECT_GT(n2, 1000.0);
}

TEST(FutureOn, DistributesAcrossAllNodes)
{
    // Round-robin placement of 8 tasks over 4 nodes.
    mult::CompileOptions c;
    c.futures = FM::Eager;
    auto r = runMult(
        "(define (work x) (* x 3))"
        "(define (go i acc)"
        "  (if (= i 8) acc"
        "      (go (+ i 1)"
        "          (+ acc (touch (future-on (remainder i 4)"
        "                                   (work i)))))))"
        "(define (main) (go 0 0))",
        c, 4);
    int expect = 0;
    for (int i = 0; i < 8; ++i)
        expect += 3 * i;
    EXPECT_EQ(r.result, fixnum(expect));
    EXPECT_EQ(r.spawns, 8u);
}

TEST(FutureOn, WorksUnderLazyMode)
{
    // Placement forces an eager task even when the ambient strategy
    // is lazy (a marker cannot target a node).
    mult::CompileOptions c;
    c.futures = FM::Lazy;
    auto r = runMult(
        "(define (work x) (+ x 1))"
        "(define (main) (touch (future-on 1 (work 41))))",
        c, 2);
    EXPECT_EQ(r.result, fixnum(42));
    EXPECT_EQ(r.spawns, 1u);
}

TEST(FutureOn, BadArityIsFatal)
{
    Assembler as;
    mult::Compiler compiler(as, {});
    EXPECT_THROW(
        compiler.compileSource("(define (main) (future-on 1))"),
        FatalError);
}

} // namespace
} // namespace april
