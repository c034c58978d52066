/**
 * @file
 * Futures end to end: eager (normal) task creation, lazy task
 * creation with continuation stealing, blocking touches, and
 * multiprocessor execution with work stealing — the machinery behind
 * Table 3.
 */

#include <gtest/gtest.h>

#include "test_support/mult_run.hh"

namespace april
{
namespace
{

using testutil::runMult;
using testutil::RunResult;
using tagged::fixnum;
using FM = mult::CompileOptions::FutureMode;

const std::string kFib =
    "(define (fib n)"
    "  (if (< n 2) n (+ (future (fib (- n 1)))"
    "                   (future (fib (- n 2))))))"
    "(define (main) (fib 12))";

mult::CompileOptions
mode(FM m, bool sw = false)
{
    mult::CompileOptions c;
    c.futures = m;
    c.softwareChecks = sw;
    return c;
}

TEST(Futures, EagerSingleProcessor)
{
    auto r = runMult(kFib, mode(FM::Eager), 1);
    EXPECT_EQ(r.result, fixnum(144));
    EXPECT_GT(r.spawns, 100u) << "every future creates a task";
    EXPECT_GT(r.blocks, 0u) << "touches of queued tasks must block";
}

TEST(Futures, EagerTwoProcessors)
{
    auto r = runMult(kFib, mode(FM::Eager), 2);
    EXPECT_EQ(r.result, fixnum(144));
    EXPECT_GT(r.steals, 0u) << "the idle processor steals tasks";
}

TEST(Futures, EagerFourProcessorsSpeedup)
{
    auto r1 = runMult(kFib, mode(FM::Eager), 1);
    auto r4 = runMult(kFib, mode(FM::Eager), 4);
    EXPECT_EQ(r4.result, fixnum(144));
    EXPECT_LT(r4.cycles, r1.cycles)
        << "4 processors must beat 1 on parallel fib";
}

TEST(Futures, LazySingleProcessorNeverSpawns)
{
    // The whole point of lazy task creation: on one processor the
    // program degenerates to sequential calls — no futures, no tasks,
    // no blocks (Section 3.2).
    auto r = runMult(kFib, mode(FM::Lazy), 1);
    EXPECT_EQ(r.result, fixnum(144));
    EXPECT_EQ(r.spawns, 0u);
    EXPECT_EQ(r.steals, 0u);
    EXPECT_EQ(r.blocks, 0u);
}

TEST(Futures, LazyOverheadIsSmall)
{
    // Paper: lazy task creation costs ~1.5x sequential for fib
    // (Table 3, Apr-lazy column "1" vs "T seq").
    auto seq = runMult(kFib, mode(FM::Erase), 1);
    auto lazy = runMult(kFib, mode(FM::Lazy), 1);
    double ratio = double(lazy.cycles) / double(seq.cycles);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 2.5) << "lazy must be far cheaper than eager";
}

TEST(Futures, EagerOverheadIsLarge)
{
    // Paper: normal task creation costs ~14x sequential for fib on
    // APRIL (Table 3). Require eager >> lazy without pinning exact
    // constants.
    auto seq = runMult(kFib, mode(FM::Erase), 1);
    auto eager = runMult(kFib, mode(FM::Eager), 1);
    auto lazy = runMult(kFib, mode(FM::Lazy), 1);
    EXPECT_GT(double(eager.cycles) / double(seq.cycles), 4.0);
    EXPECT_GT(eager.cycles, 2 * lazy.cycles);
}

TEST(Futures, LazyTwoProcessorsStealsAndAgrees)
{
    auto r = runMult(kFib, mode(FM::Lazy), 2);
    EXPECT_EQ(r.result, fixnum(144));
    EXPECT_GT(r.steals, 0u) << "idle processor must steal a marker";
}

TEST(Futures, LazyFourProcessorsSpeedup)
{
    const std::string fib16 =
        "(define (fib n)"
        "  (if (< n 2) n (+ (future (fib (- n 1)))"
        "                   (future (fib (- n 2))))))"
        "(define (main) (fib 16))";
    auto r1 = runMult(fib16, mode(FM::Lazy), 1);
    auto r4 = runMult(fib16, mode(FM::Lazy), 4);
    EXPECT_EQ(r1.result, fixnum(987));
    EXPECT_EQ(r4.result, fixnum(987));
    EXPECT_LT(double(r4.cycles), 0.6 * double(r1.cycles));
}

TEST(Futures, EagerSixteenProcessors)
{
    auto r = runMult(kFib, mode(FM::Eager), 16);
    EXPECT_EQ(r.result, fixnum(144));
}

TEST(Futures, LazySixteenProcessors)
{
    auto r = runMult(kFib, mode(FM::Lazy), 16);
    EXPECT_EQ(r.result, fixnum(144));
}

TEST(Futures, EncoreEagerSingleProcessor)
{
    // The Encore baseline: software checks + TAS synchronization.
    auto r = runMult(kFib, mode(FM::Eager, true), 1);
    EXPECT_EQ(r.result, fixnum(144));
    EXPECT_GT(r.spawns, 100u);
}

TEST(Futures, EncoreEagerFourProcessors)
{
    auto r = runMult(kFib, mode(FM::Eager, true), 4);
    EXPECT_EQ(r.result, fixnum(144));
}

TEST(Futures, EncoreIsSlowerThanApril)
{
    // Table 3: the Encore implementation of futures costs about twice
    // APRIL's at every processor count.
    auto april = runMult(kFib, mode(FM::Eager), 1);
    auto encore = runMult(kFib, mode(FM::Eager, true), 1);
    EXPECT_GT(encore.cycles, april.cycles);
}

TEST(Futures, FutureValueFlowsThroughDataStructures)
{
    // Futures are first-class: storing into a cons and touching later
    // must work via the memory-instruction future trap (car of a
    // future-valued pair reference).
    auto r = runMult(
        "(define (slow x) (+ x 1))"
        "(define (main)"
        "  (let ((p (cons (future (slow 41)) nil)))"
        "    (touch (car p))))",
        mode(FM::Eager), 2);
    EXPECT_EQ(r.result, fixnum(42));
}

TEST(Futures, NestedFuturesResolveInOrder)
{
    auto r = runMult(
        "(define (add1 x) (+ x 1))"
        "(define (main)"
        "  (touch (future (add1 (touch (future (add1 40)))))))",
        mode(FM::Eager), 2);
    EXPECT_EQ(r.result, fixnum(42));
}

TEST(Futures, LiftedFutureBodyCapturesFreeVariables)
{
    // (future <non-call>) exercises lambda lifting.
    auto r = runMult(
        "(define (main)"
        "  (let ((a 30) (b 12))"
        "    (touch (future (+ a b)))))",
        mode(FM::Eager), 2);
    EXPECT_EQ(r.result, fixnum(42));

    r = runMult(
        "(define (main)"
        "  (let ((a 30) (b 12))"
        "    (touch (future (+ a b)))))",
        mode(FM::Lazy), 2);
    EXPECT_EQ(r.result, fixnum(42));
}

TEST(Futures, ParallelVectorFill)
{
    // Data-structure writes from parallel tasks, joined by touches.
    const std::string src =
        "(define (work i) (* i i))"
        "(define (fill v i n)"
        "  (if (= i n) 0"
        "      (begin (vector-set! v i (future (work i)))"
        "             (fill v (+ i 1) n))))"
        "(define (sum v i n)"
        "  (if (= i n) 0 (+ (touch (vector-ref v i)) (sum v (+ i 1) n))))"
        "(define (main)"
        "  (let ((v (make-vector 20 0)))"
        "    (begin (fill v 0 20) (sum v 0 20))))";
    int expect = 0;
    for (int i = 0; i < 20; ++i)
        expect += i * i;
    auto r = runMult(src, mode(FM::Eager), 4);
    EXPECT_EQ(r.result, fixnum(expect));
    auto l = runMult(src, mode(FM::Lazy), 4);
    EXPECT_EQ(l.result, fixnum(expect));
}

TEST(Futures, DeterministicAcrossSeedsInResult)
{
    // Scheduling is seed-dependent; results must not be.
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Program prog = mult::compileProgram(kFib, mode(FM::Lazy));

        PerfectMachineParams mp;
        mp.numNodes = 3;
        mp.seed = seed;
        PerfectMachine machine(mp, &prog);
        machine.run(50'000'000);
        ASSERT_TRUE(machine.halted());
        EXPECT_EQ(machine.console().back(), fixnum(144));
    }
}

} // namespace
} // namespace april
