/**
 * @file
 * Simulator-throughput benchmark for the cycle-skipping engine.
 *
 * Three fixed workloads, each run with cycle-skipping on and off:
 *
 *  - alewife_stall16: 16 ALEWIFE nodes in lockstep on a DIV-heavy
 *    compute loop — long windows where every core is stalled, the
 *    best case for fast-forwarding (and the shape of Section 3's
 *    multi-cycle-operation latency).
 *  - alewife_coherent16: 16 nodes hammering an f/e-locked shared
 *    counter with a DIV per iteration — coherence traffic keeps the
 *    controllers and network busy, so skipping only wins the stall
 *    windows between protocol bursts.
 *  - perfect16: a future-heavy Mul-T fib on 16 perfect-memory nodes
 *    through the standard driver.
 *
 * Reports host-side simulated-cycles/sec and instructions/sec for
 * each mode, timed in alternation (bench::alternating), verifies the
 * runs are cycle-identical, and writes the results as one
 * machine-readable JSON object to stdout and to BENCH_sim_speed.json.
 *
 * Usage: bench_sim_speed [--quick]
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/workload.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using namespace tagged;
using bench::Timing;

struct WorkloadResult
{
    std::string name;
    Timing on;
    Timing off;
    bool identical = false;     ///< cycle counts and insts match
};

/** Time @p once(skip), one run returning its Timing, with skipping
 *  on and off in alternation for at least @p min_seconds each. */
template <typename Once>
WorkloadResult
skipOnOff(const char *name, double min_seconds, Once once)
{
    auto [on, off] = bench::alternating(
        min_seconds, [&] { return once(true); },
        [&] { return once(false); });
    return {name, on, off};
}

const uint64_t kBudget = 2'000'000'000;     ///< cycles per machine

WorkloadResult
runStall16(uint32_t iters, double min_seconds)
{
    Program prog = workloads::buildStallLoop(iters);
    auto make = [&](bool skip) {
        AlewifeParams p;
        p.network = {.dim = 2, .radix = 4};         // 16 nodes
        p.wordsPerNode = 1u << 16;
        p.bootRuntime = false;
        p.cycleSkip = skip;
        auto m = std::make_unique<AlewifeMachine>(p, &prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            m->proc(n).reset(prog.entry("worker"));
        return m;
    };
    return skipOnOff("alewife_stall16", min_seconds, [&](bool skip) {
        return bench::runToHalt(*make(skip), kBudget, "alewife_stall16");
    });
}

WorkloadResult
runCoherent16(uint32_t iters, double min_seconds)
{
    const workloads::Workload w =
        workloads::fromSpec("coherent16:" + std::to_string(iters));
    auto make = [&](bool skip) {
        DriverOptions o = w.options;
        o.hostThreads = 1;
        o.cycleSkip = skip;
        return makeMachine(w.prog, o, w.boot);
    };
    return skipOnOff("alewife_coherent16", min_seconds, [&](bool skip) {
        return bench::runToHalt(*make(skip), kBudget, "alewife_coherent16");
    });
}

WorkloadResult
runPerfect16(int fib_n, double min_seconds)
{
    auto once = [&](bool skip) {
        DriverOptions opts = DriverOptions::april(
            mult::CompileOptions::FutureMode::Eager, 16);
        opts.cycleSkip = skip;
        bench::Lap lap;
        DriverResult d =
            runMultProgram(workloads::fibSource(fib_n), opts);
        double seconds = lap.seconds();
        if (d.result != Word(fixnum(
                int32_t(workloads::fibExpected(fib_n)))))
            fatal("bench_sim_speed: wrong fib result");
        return Timing{d.cycles, d.instructions, seconds};
    };
    return skipOnOff("perfect16", min_seconds, once);
}

void
writeMode(json::Writer &w, std::string_view key, const Timing &t)
{
    w.key(key)
        .beginObject()
        .field("sim_cycles", t.cycles)
        .field("insts", t.insts)
        .field("seconds", t.seconds)
        .field("cycles_per_sec", t.cyclesPerSec())
        .field("insts_per_sec", t.instsPerSec())
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);
    const bool quick = session.quick;

    // Host seconds each mode of a workload runs for at least. One run
    // takes 10 ms (perfect16) to 1 s (coherent16), and on a shared
    // host consecutive runs of one simulation differ by up to 2x.
    const double min_seconds = quick ? 0.5 : 4.0;
    std::vector<WorkloadResult> results;
    results.push_back(runStall16(quick ? 2'000 : 50'000, min_seconds));
    results.push_back(runCoherent16(quick ? 30 : 200, min_seconds));
    results.push_back(runPerfect16(quick ? 10 : 13, min_seconds));

    bool ok = true;
    std::printf("%-20s %14s %14s %14s %9s\n", "workload",
                "cyc/s (skip)", "cyc/s (tick)", "insts/s (skip)",
                "speedup");
    for (WorkloadResult &r : results) {
        r.identical = r.on.cycles == r.off.cycles &&
                      r.on.insts == r.off.insts;
        if (!r.identical) {
            std::fprintf(stderr,
                         "%s: cycle-skipping diverged! on=%llu/%llu "
                         "off=%llu/%llu\n",
                         r.name.c_str(),
                         (unsigned long long)r.on.cycles,
                         (unsigned long long)r.on.insts,
                         (unsigned long long)r.off.cycles,
                         (unsigned long long)r.off.insts);
            ok = false;
        }
        std::printf("%-20s %14.0f %14.0f %14.0f %8.2fx\n",
                    r.name.c_str(), r.on.cyclesPerSec(),
                    r.off.cyclesPerSec(), r.on.instsPerSec(),
                    r.off.seconds / r.on.seconds);
    }

    session.emit("sim_speed", [&](json::Writer &w) {
        w.key("workloads").beginArray();
        for (const WorkloadResult &r : results) {
            w.beginObject()
                .field("name", r.name)
                .field("identical", r.identical)
                .field("cycles_speedup", r.off.seconds / r.on.seconds);
            writeMode(w, "skip_on", r.on);
            writeMode(w, "skip_off", r.off);
            w.endObject();
        }
        w.endArray();
    });

    // The stall-heavy workload is the acceptance gate: fast-forwarding
    // must at least double simulated-cycles/sec there.
    double gate = results[0].off.seconds / results[0].on.seconds;
    if (gate < 2.0) {
        std::fprintf(stderr,
                     "FAIL: stall-heavy speedup %.2fx < 2x\n", gate);
        ok = false;
    }

    // And skipping must never cost measurable time, even on
    // coherence-bound workloads where few windows are skippable: the
    // per-iteration skip probe has to stay cheap. 2% tolerance in
    // full mode; quick runs are short enough that even alternated
    // means jitter by ~15% on a busy host, so the smoke budget is
    // only tight enough to catch a broken probe path.
    double budget = quick ? 0.85 : 0.98;
    for (const WorkloadResult &r : results) {
        double ratio = r.off.seconds / r.on.seconds;
        if (ratio < budget) {
            std::fprintf(stderr,
                         "FAIL: %s with skipping on is %.1f%% slower "
                         "than plain ticking (>%.0f%% budget)\n",
                         r.name.c_str(), (1 / ratio - 1) * 100,
                         (1 / budget - 1) * 100);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
