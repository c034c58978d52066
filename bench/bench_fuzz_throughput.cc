/**
 * @file
 * Throughput benchmark for the differential fuzzing harness: how many
 * randomized APRIL programs per second can the three-way cross-check
 * (ALEWIFE skip-on, ALEWIFE skip-off, perfect-memory oracle) sustain?
 * Any oracle divergence is a hard failure.
 *
 * Also reports the trap mix the generated programs actually drive
 * through the ALEWIFE machine (context switches, full/empty faults,
 * future touches), to show the harness stresses the interesting
 * paths rather than executing straight-line arithmetic.
 *
 * Writes one machine-readable JSON object to stdout and to
 * BENCH_fuzz_throughput.json.
 *
 * Usage: bench_fuzz_throughput [--quick] [seed]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "fuzz/differential.hh"
#include "machine/alewife_machine.hh"

namespace
{

using namespace april;
using namespace april::fuzz;

struct Totals
{
    uint64_t cases = 0;
    uint64_t divergences = 0;
    uint64_t alewifeCycles = 0;
    uint64_t perfectCycles = 0;
    double seconds = 0;
};

/** Per-kind trap totals across a sample of generated programs. */
struct TrapMix
{
    uint64_t counts[size_t(TrapKind::NumKinds)] = {};
    uint64_t insts = 0;
};

TrapMix
sampleTrapMix(uint64_t base_seed, uint64_t cases)
{
    TrapMix mix;
    for (uint64_t i = 0; i < cases; ++i) {
        FuzzCase c = sampleCase(deriveSeed(base_seed, i));
        Program prog = buildProgram(c);
        AlewifeParams p;
        p.network.dim = c.dim;
        p.network.radix = c.radix;
        p.wordsPerNode = c.wordsPerNode;
        p.proc.numFrames = c.numFrames;
        p.seed = c.seed;
        p.bootRuntime = false;
        AlewifeMachine m(p, &prog);
        applyMemInit(c, m.memory());
        for (uint32_t n = 0; n < m.numNodes(); ++n)
            bootFuzzProcessor(m.proc(n), prog);
        m.run(4'000'000);
        for (uint32_t n = 0; n < m.numNodes(); ++n) {
            for (size_t k = 0; k < size_t(TrapKind::NumKinds); ++k)
                mix.counts[k] +=
                    uint64_t(m.proc(n).statTraps[k].value());
            mix.insts += uint64_t(m.proc(n).statInsts.value());
        }
    }
    return mix;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    uint64_t seed = 0xB15D1FFULL;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            seed = std::stoull(argv[i], nullptr, 0);
    }
    uint64_t cases = quick ? 40 : 300;
    QuietScope quiet_scope;

    Totals t;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < cases; ++i) {
        FuzzCase c = sampleCase(deriveSeed(seed, i));
        DiffResult r = runDifferential(c);
        ++t.cases;
        t.alewifeCycles += r.alewifeCycles;
        t.perfectCycles += r.perfectCycles;
        if (!r.ok) {
            ++t.divergences;
            std::fprintf(stderr, "divergence at case %llu:\n%s\n",
                         (unsigned long long)i,
                         reproText(c, r).c_str());
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    t.seconds = std::chrono::duration<double>(t1 - t0).count();

    TrapMix mix = sampleTrapMix(seed, quick ? 10 : 50);

    double per_sec = double(t.cases) / t.seconds;
    std::printf("fuzz throughput: %llu cases in %.2fs = %.1f "
                "programs/sec (%llu alewife cycles simulated 2x, "
                "%llu oracle cycles)\n",
                (unsigned long long)t.cases, t.seconds, per_sec,
                (unsigned long long)t.alewifeCycles,
                (unsigned long long)t.perfectCycles);
    std::printf("trap mix over %llu sampled ALEWIFE instructions:\n",
                (unsigned long long)mix.insts);
    for (size_t k = 1; k < size_t(TrapKind::NumKinds); ++k) {
        if (mix.counts[k])
            std::printf("  %-14s %8llu\n", trapKindName(TrapKind(k)),
                        (unsigned long long)mix.counts[k]);
    }

    std::string json = "{\"bench\":\"fuzz_throughput\",\"quick\":";
    json += quick ? "true" : "false";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ",\"cases\":%llu,\"divergences\":%llu,"
                  "\"seconds\":%.6f,\"programs_per_sec\":%.1f,"
                  "\"alewife_cycles\":%llu,\"perfect_cycles\":%llu,"
                  "\"sampled_insts\":%llu,\"traps\":{",
                  (unsigned long long)t.cases,
                  (unsigned long long)t.divergences, t.seconds,
                  per_sec, (unsigned long long)t.alewifeCycles,
                  (unsigned long long)t.perfectCycles,
                  (unsigned long long)mix.insts);
    json += buf;
    bool first = true;
    for (size_t k = 1; k < size_t(TrapKind::NumKinds); ++k) {
        if (!mix.counts[k])
            continue;
        std::snprintf(buf, sizeof buf, "%s\"%s\":%llu",
                      first ? "" : ",", trapKindName(TrapKind(k)),
                      (unsigned long long)mix.counts[k]);
        json += buf;
        first = false;
    }
    json += "}}";
    std::printf("\n%s\n", json.c_str());
    std::ofstream f("BENCH_fuzz_throughput.json");
    f << json << "\n";

    if (t.divergences) {
        std::fprintf(stderr, "FAIL: %llu divergence(s)\n",
                     (unsigned long long)t.divergences);
        return 1;
    }
    return 0;
}
