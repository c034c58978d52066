/**
 * @file
 * Full-system integration: Mul-T programs with futures running on the
 * complete ALEWIFE machine — APRIL cores, caches, directory
 * coherence, and the mesh network all engaged (the configuration of
 * Figure 4 with every simulator enabled).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"
#include "machine/workload.hh"
#include "mult/compiler.hh"
#include "runtime/layout.hh"
#include "workloads/workloads.hh"

namespace april
{
namespace
{

using namespace tagged;
using FM = mult::CompileOptions::FutureMode;

struct FullRig
{
    FullRig(const std::string &source, FM futures, int dim, int radix)
    {
        mult::CompileOptions copts;
        copts.futures = futures;
        prog = mult::compileProgram(source, copts);

        AlewifeParams p;
        p.network = {.dim = dim, .radix = radix};
        p.wordsPerNode = 1u << 20;
        // Small caches stress the protocol harder.
        p.controller.cache = {.lineWords = 4, .numLines = 512,
                              .assoc = 4};
        machine = std::make_unique<AlewifeMachine>(p, &prog);
    }

    Word
    run(uint64_t max_cycles = 80'000'000)
    {
        machine->run(max_cycles);
        if (!machine->halted()) {
            panic("ALEWIFE run did not finish; node0 at ",
                  prog.symbolAt(machine->proc(0).pc()));
        }
        return machine->console().back();
    }

    Program prog;
    std::unique_ptr<AlewifeMachine> machine;
};

TEST(AlewifeIntegration, SequentialProgramOnOneNodeMachine)
{
    FullRig rig("(define (fact n) (if (< n 2) 1 (* n (fact (- n 1)))))"
                "(define (main) (fact 10))",
                FM::Erase, 1, 2);
    EXPECT_EQ(rig.run(), fixnum(3628800));
}

TEST(AlewifeIntegration, CacheHitsDominateSequentialRuns)
{
    FullRig rig("(define (sum n acc)"
                "  (if (= n 0) acc (sum (- n 1) (+ acc n))))"
                "(define (main) (sum 200 0))",
                FM::Erase, 1, 2);
    EXPECT_EQ(rig.run(), fixnum(200 * 201 / 2));
    auto &cache = rig.machine->controller(0).cacheRef();
    EXPECT_GT(cache.statHits.value(), 10 * cache.statMisses.value())
        << "the working set must live in the cache";
}

TEST(AlewifeIntegration, EagerFibOnFourNodes)
{
    FullRig rig(workloads::fibSource(10), FM::Eager, 2, 2);
    EXPECT_EQ(rig.run(), fixnum(55));
    // Real coherence traffic flowed.
    EXPECT_GT(rig.machine->network().statPackets.value(), 100.0);
}

TEST(AlewifeIntegration, LazyFibOnFourNodes)
{
    FullRig rig(workloads::fibSource(10), FM::Lazy, 2, 2);
    EXPECT_EQ(rig.run(), fixnum(55));
}

TEST(AlewifeIntegration, RemoteMissesForceContextSwitches)
{
    // Shared data (a vector homed on node 0) read by tasks running on
    // other nodes: those vector-refs are trap-on-miss flavors, so the
    // controller forces context switches while lines migrate.
    const std::string src =
        "(define (sum-range v i n acc)"
        "  (if (= i n) acc"
        "      (sum-range v (+ i 1) n (+ acc (vector-ref v i)))))"
        "(define (fill v i n)"
        "  (if (= i n) 0"
        "      (begin (vector-set! v i i) (fill v (+ i 1) n))))"
        // Spawn 16 chunk-summing futures up front so idle nodes can
        // steal work whose data is homed on node 0.
        "(define (spawn-all v r i)"
        "  (if (= i 16) 0"
        "      (begin"
        "        (vector-set! r i (future (sum-range v (* i 4)"
        "                                            (+ (* i 4) 4) 0)))"
        "        (spawn-all v r (+ i 1)))))"
        "(define (join r i acc)"
        "  (if (= i 16) acc"
        "      (join r (+ i 1) (+ acc (touch (vector-ref r i))))))"
        "(define (main)"
        "  (let ((v (make-vector 64 0)) (r (make-vector 16 0)))"
        "    (begin (fill v 0 64)"
        "           (spawn-all v r 0)"
        "           (join r 0 0))))";
    FullRig rig(src, FM::Eager, 2, 2);
    int64_t expect = 0;
    for (int i = 0; i < 64; ++i)
        expect += i;
    EXPECT_EQ(rig.run(), fixnum(int32_t(expect)));
    double switches = 0;
    for (uint32_t n = 0; n < rig.machine->numNodes(); ++n) {
        switches += rig.machine->proc(n)
                        .statTraps[size_t(TrapKind::RemoteMiss)]
                        .value();
    }
    EXPECT_GT(switches, 0.0)
        << "remote requests must trigger the switch trap";
}

TEST(AlewifeIntegration, QueensOnFourNodes)
{
    FullRig rig(workloads::queensSource(5), FM::Eager, 2, 2);
    EXPECT_EQ(rig.run(), fixnum(workloads::queensExpected(5)));
}

TEST(AlewifeIntegration, SpeedupOverOneNode)
{
    // The whole point: multithreading + caches tolerate real memory
    // latency. A 4-node machine must beat a (2-node minimum-mesh)
    // machine on parallel fib despite coherence overheads. Compare
    // against a machine where only node 0 ever gets the root work.
    FullRig one(workloads::fibSource(13), FM::Lazy, 1, 2);
    Word r1 = one.run();
    uint64_t c1 = one.machine->cycle();

    FullRig four(workloads::fibSource(13), FM::Lazy, 2, 2);
    Word r4 = four.run();
    uint64_t c4 = four.machine->cycle();

    EXPECT_EQ(r1, r4);
    EXPECT_LT(double(c4), 0.9 * double(c1));
}

TEST(AlewifeIntegration, FreshMachineMemoryIsMostlyAbsent)
{
    // Construction writes each node's run-time block and nothing else,
    // so the driver's default 16 x 2M-word image (256 MB if dense)
    // holds one page per node (DESIGN.md §7.11).
    Program prog = mult::compileProgram(workloads::fibSource(5), {});
    PerfectMachineParams p;
    p.numNodes = 16;
    p.wordsPerNode = DriverOptions{}.wordsPerNode;
    PerfectMachine m(p, &prog);
    EXPECT_EQ(m.memory().sizeWords(), Addr(16u << 21));
    EXPECT_GE(m.memory().residentPages(), 1u);
    EXPECT_LE(m.memory().residentPages(), size_t(p.numNodes));
}

TEST(AlewifeIntegration, RuntimeCountersReadModifiedLines)
{
    // A run-time counter word can still sit in a dirty cache line when
    // the machine halts. The driver's counters must read it there, as
    // the coherent snapshot does, not from the backing store alone.
    const std::string source =
        workloads::makeFib(workloads::SuiteSizes{}).source;
    DriverOptions o = DriverOptions::april(FM::Lazy, 16);
    o.alewife = true;
    o.wordsPerNode = 1u << 20;
    DriverResult r = runMultProgram(source, o);

    // The same run, on a machine the test can inspect.
    Program prog = mult::compileProgram(source, o.compile);
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 4};
    p.wordsPerNode = o.wordsPerNode;
    AlewifeMachine m(p, &prog);
    m.run(o.maxCycles);
    ASSERT_TRUE(m.halted());
    ASSERT_EQ(m.cycle(), r.cycles);

    MachineSnapshot snap = snapshotMachine(m);
    auto counter = [&](int slot) {
        uint64_t total = 0;
        for (uint32_t n = 0; n < m.numNodes(); ++n) {
            Addr a = m.memory().nodeBase(n) + rt::nodeBlockOff +
                     Addr(slot);
            total += snap.memory.at(a).data;
        }
        return total;
    };
    EXPECT_GT(r.steals, 0u);
    EXPECT_EQ(r.steals, counter(rt::nb::statSteals));
    EXPECT_EQ(r.spawns, counter(rt::nb::statSpawns));
}

/** compareRuns names each output that differs, one line apiece, and
 *  nothing else; identical records compare as "". */
TEST(RunRecord, CompareRunsNamesEveryDifferingOutput)
{
    workloads::Workload w = workloads::fromSpec("fib:6");
    w.options.wordsPerNode = 1u << 16;
    w.options.traceEvents = w.options.cohTrace = w.options.taskTrace = true;
    w.options.profile = true;
    w.options.statsInterval = 1024;
    std::unique_ptr<Machine> m = makeMachine(w.prog, w.options, w.boot);
    m->run(w.options.maxCycles);
    ASSERT_TRUE(m->halted());
    const RunRecord a = recordRun(*m);
    EXPECT_EQ(compareRuns(a, recordRun(*m)), "");

    RunRecord b = a;
    b.snap.cycle += 1;
    std::string report = compareRuns(a, b);
    EXPECT_EQ(report.rfind("snapshot differs: 1 divergence(s):\ncycle: ", 0),
              0u)
        << report;
    EXPECT_EQ(report.find(" differs at byte "), std::string::npos);

    const std::pair<const char *, std::string RunOutputs::*> outputs[] = {
        {"stats JSON", &RunOutputs::stats},
        {"cycle breakdown", &RunOutputs::breakdown},
        {"trace JSON", &RunOutputs::trace},
        {"coherence-transaction trace", &RunOutputs::cohTrace},
        {"task-trace report", &RunOutputs::taskTrace},
        {"profile", &RunOutputs::profile},
        {"interval series", &RunOutputs::series},
    };
    for (const auto &[name, field] : outputs) {
        b = a;
        std::string &bytes = b.outputs.*field;
        ASSERT_FALSE(bytes.empty()) << name;
        size_t at = bytes.size() / 2;
        bytes[at] ^= 1;
        report = compareRuns(a, b);
        std::string line = name + (" differs at byte " + std::to_string(at));
        EXPECT_EQ(report.rfind(line + " ", 0), 0u) << report;
        EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 1)
            << report;
    }
}

} // namespace
} // namespace april
