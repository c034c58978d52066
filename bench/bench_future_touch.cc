/**
 * @file
 * Section 6.2 microbenchmark: the future-touch trap.
 *
 * Measures, with the real run-time handler installed:
 *  - the resolved fast path (paper: 23 cycles), and
 *  - APRIL tag-trap detection vs Encore-style software checks on a
 *    touch-heavy loop (the Table 3 "T seq vs Mul-T seq" asymmetry).
 */

#include <benchmark/benchmark.h>

#include "machine/driver.hh"
#include "mem/memory.hh"
#include "proc/perfect_port.hh"
#include "proc/processor.hh"
#include "runtime/runtime.hh"

namespace
{

using namespace april;
using namespace april::tagged;

constexpr Addr kFut = 4096;

/** Cycles for one strict add on operand r1 preloaded with `value`. */
uint64_t
cyclesForAdd(Word value, bool resolved)
{
    Assembler as;
    rt::Runtime runtime;
    runtime.emit(as);
    as.bind(rt::sym::userMain);
    as.bind("bench$main");
    as.movi(1, value);
    as.movi(2, fixnum(10));
    as.add(3, 1, 2);
    as.halt();
    Program prog = as.finish();

    SharedMemory mem({.numNodes = 1, .wordsPerNode = 1u << 18});
    rt::Runtime::initNode(mem, 0);
    mem.writeFe(kFut + rt::fut::value, fixnum(32), resolved);
    PerfectMemPort port(&mem);
    SimpleIoPort io;
    Processor proc({}, &prog, &port, &io);
    rt::Runtime::bootProcessor(proc, rt::BootEntries::of(prog), mem, 0, 1);
    proc.setPcChain(prog.entry("bench$main"),
                    prog.entry("bench$main") + 1);
    proc.run(100000);
    return proc.cycle();
}

void
BM_FutureTouch_Resolved(benchmark::State &state)
{
    uint64_t trap = 0, clean = 0;
    for (auto _ : state) {
        trap = cyclesForAdd(ptr(kFut, Tag::Future), true);
        clean = cyclesForAdd(fixnum(32), true);
    }
    state.counters["touch_cycles"] = double(trap - clean);
}

BENCHMARK(BM_FutureTouch_Resolved);

/** A touch-heavy Mul-T loop under both detection schemes. */
void
BM_Detection(benchmark::State &state, bool software)
{
    const std::string src =
        "(define (sum v i n acc)"
        "  (if (= i n) acc"
        "      (sum v (+ i 1) n (+ acc (touch (vector-ref v i))))))"
        "(define (fill v i n)"
        "  (if (= i n) 0"
        "      (begin (vector-set! v i i) (fill v (+ i 1) n))))"
        "(define (main)"
        "  (let ((v (make-vector 64 0)))"
        "    (begin (fill v 0 64) (sum v 0 64 0))))";
    uint64_t cycles = 0;
    for (auto _ : state) {
        DriverOptions o;
        o.compile.softwareChecks = software;
        if (software)
            o.proc.tasExtraCycles = 9;
        DriverResult r = runMultProgram(src, o);
        cycles = r.cycles;
    }
    state.counters["sim_cycles"] = double(cycles);
}

void
BM_Detection_AprilTags(benchmark::State &state)
{
    BM_Detection(state, false);
}

void
BM_Detection_EncoreSoftware(benchmark::State &state)
{
    BM_Detection(state, true);
}

BENCHMARK(BM_Detection_AprilTags);
BENCHMARK(BM_Detection_EncoreSoftware);

} // namespace

int
main(int argc, char **argv)
{
    QuietScope quiet_scope;
    uint64_t trap = cyclesForAdd(ptr(kFut, Tag::Future), true);
    uint64_t clean = cyclesForAdd(fixnum(32), true);
    std::printf("Section 6.2: future-touch trap microbenchmark\n");
    std::printf("  resolved-touch cost: %llu cycles (paper: 23)\n\n",
                (unsigned long long)(trap - clean));
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
