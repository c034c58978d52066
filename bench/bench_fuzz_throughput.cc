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

#include <cstdio>
#include <string>

#include "common/random.hh"
#include "fuzz/differential.hh"
#include "harness.hh"
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
        for (uint32_t n = 0; n < m.numNodes(); ++n)
            for (size_t k = 0; k < size_t(TrapKind::NumKinds); ++k)
                mix.counts[k] +=
                    uint64_t(m.proc(n).statTraps[k].value());
        mix.insts += m.instructions();
    }
    return mix;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv, {.number = "seed"});
    const bool quick = session.quick;
    const uint64_t seed = session.number.value_or(0xB15D1FFULL);
    uint64_t cases = quick ? 40 : 300;

    Totals t;
    bench::Lap lap;
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
    t.seconds = lap.seconds();

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

    session.emit("fuzz_throughput", [&](json::Writer &w) {
        w.field("cases", t.cases)
            .field("divergences", t.divergences)
            .field("seconds", t.seconds)
            .field("programs_per_sec", per_sec)
            .field("alewife_cycles", t.alewifeCycles)
            .field("perfect_cycles", t.perfectCycles)
            .field("sampled_insts", mix.insts)
            .key("traps")
            .beginObject();
        for (size_t k = 1; k < size_t(TrapKind::NumKinds); ++k)
            if (mix.counts[k])
                w.field(trapKindName(TrapKind(k)), mix.counts[k]);
        w.endObject();
    });

    if (t.divergences) {
        std::fprintf(stderr, "FAIL: %llu divergence(s)\n",
                     (unsigned long long)t.divergences);
        return 1;
    }
    return 0;
}
