/**
 * @file
 * Regenerates Table 3: "Execution time for Mul-T benchmarks".
 *
 * Rows: each benchmark (fib, factor, queens, speech) on three
 * systems — the Encore Multimax baseline (software future detection +
 * test&set synchronization), APRIL with normal (eager) task creation,
 * and APRIL with lazy task creation. Columns: "T seq" (optimized
 * sequential code, the normalization basis), "Mul-T seq" (sequential
 * code compiled by the parallel compiler) and parallel runs on
 * 1..16 processors.
 *
 * As in the paper, the parallel columns run the processor simulator
 * without the cache and network simulators (perfect shared memory).
 * The paper's measured values are printed underneath each row for
 * comparison; absolute agreement is not expected (different compiler,
 * different sequential code quality), but the qualitative structure —
 * software-detection overhead near 2x, eager-task overhead an order
 * of magnitude over lazy, parallel scaling of all three systems —
 * must reproduce.
 *
 * Usage: bench_table3_mult [--quick]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine/driver.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using FM = mult::CompileOptions::FutureMode;

struct PaperRow
{
    // Values from Table 3; -1 marks columns the paper does not report.
    double mult_seq;
    double p1, p2, p4, p8, p16;
};

struct PaperEntry
{
    const char *name;
    PaperRow encore;
    PaperRow april;
    PaperRow lazy;
};

const PaperEntry kPaper[] = {
    {"fib",
     {1.8, 28.9, 16.3, 9.2, 5.1, -1},
     {1.0, 14.2, 7.1, 3.6, 1.8, 0.97},
     {1.0, 1.5, 0.78, 0.44, 0.29, 0.19}},
    {"factor",
     {1.4, 1.9, 0.96, 0.50, 0.26, -1},
     {1.0, 1.8, 0.90, 0.45, 0.23, 0.12},
     {1.0, 1.0, 0.52, 0.26, 0.14, 0.09}},
    {"queens",
     {1.8, 2.1, 1.0, 0.54, 0.31, -1},
     {1.0, 1.4, 0.67, 0.33, 0.18, 0.10},
     {1.0, 1.0, 0.51, 0.26, 0.13, 0.07}},
    {"speech",
     {2.0, 2.3, 1.2, 0.62, 0.36, -1},
     {1.0, 1.2, 0.60, 0.31, 0.17, 0.10},
     {1.0, 1.0, 0.52, 0.27, 0.15, 0.09}},
};

uint64_t
runOne(const workloads::Benchmark &b, const DriverOptions &opts)
{
    DriverResult r = runMultProgram(b.source, opts);
    int64_t got = tagged::toInt(r.result);
    if (got != b.expected) {
        fatal("table3: ", b.name, " returned ", got, ", expected ",
              b.expected);
    }
    return r.cycles;
}

void
printRow(const char *system, double mult_seq,
         const std::vector<double> &vals, const PaperRow &paper)
{
    std::printf("  %-8s  measured: %5.2f |", system, mult_seq);
    for (double v : vals)
        std::printf(" %6.2f", v);
    std::printf("\n");
    std::printf("  %-8s  paper:    %5.2f |", "", paper.mult_seq);
    const double pv[] = {paper.p1, paper.p2, paper.p4, paper.p8,
                         paper.p16};
    for (double v : pv) {
        if (v < 0)
            std::printf("      -");
        else
            std::printf(" %6.2f", v);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);

    workloads::SuiteSizes sizes;
    if (session.quick) {
        sizes.fibN = 11;
        sizes.factorLo = 500;
        sizes.factorHi = 540;
        sizes.queensN = 6;
        sizes.speechLayers = 6;
        sizes.speechWidth = 6;
    }

    const std::vector<uint32_t> procs = {1, 2, 4, 8, 16};
    const workloads::Benchmark benches[] = {
        workloads::makeFib(sizes), workloads::makeFactor(sizes),
        workloads::makeQueens(sizes), workloads::makeSpeech(sizes)};

    std::printf("Table 3: Execution time for Mul-T benchmarks\n");
    std::printf("(normalized to T running sequential code; columns: "
                "Mul-T seq | 1 2 4 8 16 processors)\n\n");

    for (size_t bi = 0; bi < 4; ++bi) {
        const auto &b = benches[bi];
        const auto &paper = kPaper[bi];

        // The normalization basis: optimized sequential code on one
        // APRIL processor with futures compiled away.
        uint64_t t_seq =
            runOne(b, DriverOptions::april(FM::Erase, 1));

        std::printf("%s  (T seq = %llu cycles)\n", b.name.c_str(),
                    (unsigned long long)t_seq);

        // Encore: sequential with checks, then eager futures.
        {
            uint64_t seq =
                runOne(b, DriverOptions::encore(FM::Erase, 1));
            std::vector<double> vals;
            for (uint32_t p : procs) {
                if (p > 8)
                    break;      // the paper reports Encore up to 8
                uint64_t c =
                    runOne(b, DriverOptions::encore(FM::Eager, p));
                vals.push_back(double(c) / double(t_seq));
            }
            printRow("Encore", double(seq) / double(t_seq), vals,
                     paper.encore);
        }

        // APRIL with normal (eager) task creation. "Mul-T seq" on
        // APRIL equals "T seq": tag hardware makes checks free.
        {
            uint64_t seq = runOne(b, DriverOptions::april(FM::Erase, 1));
            std::vector<double> vals;
            for (uint32_t p : procs) {
                uint64_t c =
                    runOne(b, DriverOptions::april(FM::Eager, p));
                vals.push_back(double(c) / double(t_seq));
            }
            printRow("APRIL", double(seq) / double(t_seq), vals,
                     paper.april);
        }

        // APRIL with lazy task creation.
        {
            std::vector<double> vals;
            for (uint32_t p : procs) {
                uint64_t c =
                    runOne(b, DriverOptions::april(FM::Lazy, p));
                vals.push_back(double(c) / double(t_seq));
            }
            printRow("Apr-lazy", 1.0, vals, paper.lazy);
        }
        std::printf("\n");
    }
    return 0;
}
