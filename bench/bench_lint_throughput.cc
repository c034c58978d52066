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

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/checks.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fuzz/generator.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;

struct Lap
{
    uint64_t programs = 0;
    uint64_t insts = 0;
    uint64_t findings = 0;
    double seconds = 0;
};

/** Time analyzeProgram over a pre-built (program, options) set. */
Lap
timeAnalysis(const std::vector<std::pair<Program,
                                         analysis::AnalysisOptions>> &set,
             uint64_t rounds)
{
    Lap lap;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < rounds; ++r) {
        for (const auto &[prog, opts] : set) {
            analysis::AnalysisResult res =
                analysis::analyzeProgram(prog, opts);
            ++lap.programs;
            lap.insts += res.reachableInsts;
            lap.findings += res.findings.size();
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    lap.seconds = std::chrono::duration<double>(t1 - t0).count();
    return lap;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    uint64_t seed = 0x11A71990ULL;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            seed = std::stoull(argv[i], nullptr, 0);
    }
    QuietScope quiet_scope;

    // Small programs: generated fuzz cases under the fuzz profile.
    std::vector<std::pair<Program, analysis::AnalysisOptions>> small;
    uint64_t num_small = quick ? 16 : 64;
    for (uint64_t i = 0; i < num_small; ++i) {
        Program prog =
            fuzz::buildProgram(fuzz::sampleCase(deriveSeed(seed, i)));
        analysis::AnalysisOptions opts = fuzz::lintOptions(prog);
        small.emplace_back(std::move(prog), std::move(opts));
    }
    Lap fuzzLap = timeAnalysis(small, quick ? 4 : 16);

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
    Lap bigLap = timeAnalysis(big, quick ? 8 : 32);

    double fuzz_per_sec = double(fuzzLap.programs) / fuzzLap.seconds;
    double big_per_sec = double(bigLap.programs) / bigLap.seconds;
    double insts_per_sec =
        double(fuzzLap.insts + bigLap.insts) /
        (fuzzLap.seconds + bigLap.seconds);
    std::printf("lint throughput: %.1f fuzz programs/sec "
                "(%llu analyzed), %.1f workload images/sec "
                "(%llu analyzed), %.0f reachable insts/sec overall\n",
                fuzz_per_sec, (unsigned long long)fuzzLap.programs,
                big_per_sec, (unsigned long long)bigLap.programs,
                insts_per_sec);

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"lint_throughput\",\"quick\":%s,"
                  "\"fuzz_programs\":%llu,\"fuzz_per_sec\":%.1f,"
                  "\"workload_images\":%llu,\"workload_per_sec\":%.1f,"
                  "\"insts_per_sec\":%.0f,\"findings\":%llu}",
                  quick ? "true" : "false",
                  (unsigned long long)fuzzLap.programs, fuzz_per_sec,
                  (unsigned long long)bigLap.programs, big_per_sec,
                  insts_per_sec,
                  (unsigned long long)(fuzzLap.findings +
                                       bigLap.findings));
    std::printf("\n%s\n", buf);
    std::ofstream f("BENCH_lint_throughput.json");
    f << buf << "\n";
    return 0;
}
