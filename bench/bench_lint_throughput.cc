/**
 * @file
 * Throughput benchmark for the static analyzer: programs per second
 * through buildCfg + the forward dataflow solve + the full check
 * suite, measured over freshly generated fuzz programs (a few hundred
 * instructions each) and over the big runtime + Mul-T workload images
 * (a few thousand). Lint gating the corpus and examples in CI is only
 * viable while this stays far from the critical path.
 *
 * Writes one machine-readable JSON object to stdout and to
 * BENCH_lint_throughput.json.
 *
 * Usage: bench_lint_throughput [--quick] [seed]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "analysis/checks.hh"
#include "common/random.hh"
#include "fuzz/generator.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;

struct Totals
{
    uint64_t programs = 0;
    uint64_t insts = 0;
    uint64_t findings = 0;
    double seconds = 0;
};

/** Time analyzeProgram over a pre-built (program, options) set. */
Totals
timeAnalysis(const std::vector<std::pair<Program,
                                         analysis::AnalysisOptions>> &set,
             uint64_t rounds)
{
    Totals t;
    bench::Lap lap;
    for (uint64_t r = 0; r < rounds; ++r) {
        for (const auto &[prog, opts] : set) {
            analysis::AnalysisResult res =
                analysis::analyzeProgram(prog, opts);
            ++t.programs;
            t.insts += res.reachableInsts;
            t.findings += res.findings.size();
        }
    }
    t.seconds = lap.seconds();
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv, {.number = "seed"});
    const bool quick = session.quick;
    const uint64_t seed = session.number.value_or(0x11A71990ULL);

    // Small programs: generated fuzz cases under the fuzz profile.
    std::vector<std::pair<Program, analysis::AnalysisOptions>> small;
    uint64_t num_small = quick ? 16 : 64;
    for (uint64_t i = 0; i < num_small; ++i) {
        Program prog =
            fuzz::buildProgram(fuzz::sampleCase(deriveSeed(seed, i)));
        analysis::AnalysisOptions opts = fuzz::lintOptions(prog);
        small.emplace_back(std::move(prog), std::move(opts));
    }
    Totals fuzzTotals = timeAnalysis(small, quick ? 4 : 16);

    // Big images: runtime + compiled Mul-T benchmark, every symbol a
    // root (the april-lint --workloads profile).
    std::vector<std::pair<Program, analysis::AnalysisOptions>> big;
    {
        workloads::SuiteSizes sizes;
        Program prog = mult::compileProgram(
            workloads::makeQueens(sizes).source, {});
        analysis::AnalysisOptions opts = analysis::allSymbolRoots(prog);
        big.emplace_back(std::move(prog), std::move(opts));
    }
    Totals bigTotals = timeAnalysis(big, quick ? 8 : 32);

    double fuzz_per_sec = double(fuzzTotals.programs) / fuzzTotals.seconds;
    double big_per_sec = double(bigTotals.programs) / bigTotals.seconds;
    double insts_per_sec =
        double(fuzzTotals.insts + bigTotals.insts) /
        (fuzzTotals.seconds + bigTotals.seconds);
    std::printf("lint throughput: %.1f fuzz programs/sec "
                "(%llu analyzed), %.1f workload images/sec "
                "(%llu analyzed), %.0f reachable insts/sec overall\n",
                fuzz_per_sec, (unsigned long long)fuzzTotals.programs,
                big_per_sec, (unsigned long long)bigTotals.programs,
                insts_per_sec);

    session.emit("lint_throughput", [&](json::Writer &w) {
        w.field("fuzz_programs", fuzzTotals.programs)
            .field("fuzz_per_sec", fuzz_per_sec)
            .field("workload_images", bigTotals.programs)
            .field("workload_per_sec", big_per_sec)
            .field("insts_per_sec", insts_per_sec)
            .field("findings", fuzzTotals.findings + bigTotals.findings);
    });
    return 0;
}
