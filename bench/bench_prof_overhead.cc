/**
 * @file
 * Profiler-overhead benchmark: the observability layer must observe,
 * not perturb.
 *
 * Two fixed workloads (an f/e-locked ALEWIFE counter loop with a DIV
 * stall per iteration, and a future-heavy Mul-T fib through the
 * standard driver), each run with profiling off and on (PC sampling +
 * interval stats snapshots). The gate is twofold:
 *
 *  - bit-identical simulation: cycle counts, instruction counts and
 *    the full statistics JSON must match exactly between the two
 *    modes — sampling clamps cycle-skip windows at snapshot
 *    boundaries, which is required to be cycle-exact (§7.5);
 *  - wall-clock overhead of profiling < 10% on the ALEWIFE workload.
 *    Each mode is timed in alternation with its untraced baseline,
 *    run by run, over at least 100 ms per mode (bench::alternating),
 *    so host-speed swings hit both alike even on --quick's short
 *    runs.
 *
 * Writes BENCH_prof_overhead.json next to BENCH_sim_speed.json.
 *
 * Usage: bench_prof_overhead [--quick]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/snapshot.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using namespace tagged;

struct Measurement : bench::Timing
{
    std::string stats;          ///< stats JSON
    std::string profile;        ///< profile JSON when sampling
};

/**
 * Whether @p b simulated exactly what @p a did: cycles, instructions,
 * statistics and, when both sampled, the profile. Otherwise print
 * FAIL, @p what and the differences on stderr.
 */
bool
sameSimulation(const Measurement &a, const Measurement &b,
               const std::string &what)
{
    bool stats = a.stats == b.stats;
    bool prof = a.profile.empty() || b.profile.empty() ||
                a.profile == b.profile;
    if (a.cycles == b.cycles && a.insts == b.insts && stats && prof)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s (cycles %llu vs %llu, insts %llu vs %llu, "
                 "stats %s, profile %s)\n",
                 what.c_str(), (unsigned long long)a.cycles,
                 (unsigned long long)b.cycles,
                 (unsigned long long)a.insts,
                 (unsigned long long)b.insts,
                 stats ? "equal" : "DIFFER", prof ? "equal" : "DIFFER");
    return false;
}

struct WorkloadResult
{
    std::string name;
    Measurement off;            ///< profiling disabled
    Measurement on;             ///< PC sampling + interval snapshots
    bool identical = false;

    double overhead() const { return on.seconds / off.seconds - 1.0; }
};

Measurement
runAlewifeOnce(const workloads::CoherentLoop &coh, uint32_t nodes,
               bool profile, uint32_t host_threads = 1,
               bool coh_trace = false, bool task_trace = false)
{
    const Program &prog = coh.prog;
    AlewifeParams p;
    p.network = {.dim = 2, .radix = 2};                 // 4 nodes
    p.wordsPerNode = 1u << 16;
    p.bootRuntime = false;
    p.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    p.profile = profile;
    p.profilePeriod = 64;
    p.statsInterval = profile ? 4096 : 0;
    p.hostThreads = host_threads;
    p.cohTrace = coh_trace;
    p.taskTrace = task_trace;
    AlewifeMachine m(p, &prog);
    for (uint32_t n = 0; n < nodes; ++n)
        workloads::bootCoherentNode(m.proc(n), prog);
    m.memory().write(coh.count, fixnum(0));

    bench::Timing timing =
        bench::runToHalt(m, 2'000'000'000, "alewife workload");
    RunRecord run = recordRun(m);
    return {timing, run.outputs.stats, run.outputs.profile};
}

Measurement
runDriverOnce(int fib_n, bool profile)
{
    DriverOptions opts = DriverOptions::april(
        mult::CompileOptions::FutureMode::Eager, 8);
    opts.profile = profile;
    opts.statsInterval = profile ? 4096 : 0;
    bench::Lap lap;
    DriverResult d = runMultProgram(workloads::fibSource(fib_n), opts);
    double seconds = lap.seconds();
    if (d.result != Word(fixnum(int32_t(workloads::fibExpected(fib_n)))))
        fatal("bench_prof_overhead: wrong fib result");
    return {{d.cycles, d.instructions, seconds}, d.outputs.stats, {}};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);
    const bool quick = session.quick;
    // Host seconds each mode of a timed pair runs for at least.
    const double min_seconds = 0.1;

    uint32_t iters = quick ? 100 : 2'000;
    int fib_n = quick ? 10 : 13;
    workloads::CoherentLoop coh = workloads::buildCoherentLoop(4, iters);

    auto untraced = [&] { return runAlewifeOnce(coh, 4, false); };
    std::vector<WorkloadResult> results;
    auto paired = [&](const char *name, auto off, auto on) {
        auto [a, b] = bench::alternating(min_seconds, off, on);
        results.push_back({name, std::move(a), std::move(b)});
    };
    paired("alewife_coherent4", untraced,
           [&] { return runAlewifeOnce(coh, 4, true); });
    paired("perfect8_fib", [&] { return runDriverOnce(fib_n, false); },
           [&] { return runDriverOnce(fib_n, true); });

    bool ok = true;
    std::printf("%-20s %12s %12s %9s %10s\n", "workload", "off (s)",
                "on (s)", "overhead", "identical");
    for (WorkloadResult &r : results) {
        r.identical = sameSimulation(
            r.off, r.on, r.name + ": profiling changed the simulation");
        ok = ok && r.identical;
        std::printf("%-20s %12.4f %12.4f %8.1f%% %10s\n",
                    r.name.c_str(), r.off.seconds, r.on.seconds,
                    100.0 * r.overhead(),
                    r.identical ? "yes" : "NO");
    }

    // Observability composes with the parallel engine: the profiled
    // run sharded over 4 host threads must produce byte-identical
    // profile JSON and stats to the profiled sequential run.
    {
        Measurement seq = runAlewifeOnce(coh, 4, true, 1);
        bool same = sameSimulation(
            seq, runAlewifeOnce(coh, 4, true, 4),
            "profiled run at 4 host threads diverged from sequential");
        ok = ok && same;
        std::printf("%-20s %12s %12s %9s %10s\n",
                    "profiled threads=4", "-", "-", "-",
                    same ? "yes" : "NO");
    }

    // Coherence-transaction tracing must observe, not perturb: the
    // same workload with cohTrace on must reproduce the untraced
    // simulation digest exactly.
    const Measurement &off = results[0].off;
    {
        bool same = sameSimulation(
            off, runAlewifeOnce(coh, 4, false, 1, true),
            "coherence tracing changed the simulation");
        ok = ok && same;
        std::printf("%-20s %12s %12s %9s %10s\n", "cohTrace on", "-",
                    "-", "-", same ? "yes" : "NO");
    }

    // Task tracing must also observe, not perturb: the same workload
    // with taskTrace on must reproduce the untraced simulation digest
    // exactly, and the event-recording overhead must stay under the
    // same 10% budget the profiler is held to.
    {
        auto [base, traced] = bench::alternating(min_seconds, untraced, [&] {
            return runAlewifeOnce(coh, 4, false, 1, false, true);
        });
        bool same = sameSimulation(off, traced,
                                   "task tracing changed the simulation");
        ok = ok && same;
        double ovh = traced.seconds / base.seconds - 1.0;
        std::printf("%-20s %12.4f %12.4f %8.1f%% %10s\n",
                    "taskTrace on", base.seconds, traced.seconds,
                    100.0 * ovh, same ? "yes" : "NO");
        if (ovh >= 0.10) {
            std::fprintf(stderr,
                         "FAIL: task tracing overhead %.1f%% >= 10%%\n",
                         100.0 * ovh);
            ok = false;
        }
    }

    session.emit("prof_overhead", [&](json::Writer &w) {
        w.key("workloads").beginArray();
        for (const WorkloadResult &r : results)
            w.beginObject()
                .field("name", r.name)
                .field("identical", r.identical)
                .field("overhead", r.overhead())
                .field("off_seconds", r.off.seconds)
                .field("on_seconds", r.on.seconds)
                .field("sim_cycles", r.on.cycles)
                .endObject();
        w.endArray();
    });

    // Acceptance gate: sampling overhead < 10% on the machine that
    // matters (the ALEWIFE run; the driver run is reported only).
    if (results[0].overhead() >= 0.10) {
        std::fprintf(stderr, "FAIL: profiling overhead %.1f%% >= 10%%\n",
                     100.0 * results[0].overhead());
        ok = false;
    }
    return ok ? 0 : 1;
}
