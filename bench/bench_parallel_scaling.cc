/**
 * @file
 * Host-side scaling of the parallel execution engine (DESIGN.md
 * §7.6): simulated-cycles/sec at 1..8 host worker threads on two
 * 16-node ALEWIFE workloads, with a twin check (compareRuns) proving
 * every thread count simulated exactly the same machine.
 *
 *  - alewife_coherent16: the shared f/e-locked counter loop of
 *    bench_sim_speed — coherence traffic keeps every controller and
 *    the network busy, so the quantum barrier is the only serial
 *    part. The scaling gate lives here.
 *  - alewife_stall16: the DIV-heavy lockstep loop — with
 *    cycle-skipping on, most of the run fast-forwards at the barrier,
 *    so this bounds how much the engine can lose when there is
 *    little concurrent work per quantum.
 *
 * Every thread count above one is timed in alternation with the
 * sequential run (bench::alternating), so a swing in host speed hits
 * both sides of its scaling ratio alike. Every configuration must
 * record the same run as the sequential one (the engine's
 * bit-identical contract); the run fails on any difference. The
 * throughput
 * gate — >= 3x cycles/sec at 4 threads on alewife_coherent16 with
 * skipping off — only arms when the host actually has 4 or more
 * cores; on smaller hosts the numbers are still reported and the
 * twin check still gates.
 *
 * Writes BENCH_parallel_scaling.json.
 *
 * Usage: bench_parallel_scaling [--quick]
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "machine/snapshot.hh"
#include "machine/workload.hh"
#include "workloads/handwritten.hh"

namespace
{

using namespace april;

struct Point : bench::Timing
{
    uint32_t threads = 0;
    bool skip = false;
    double scaling = 0;         ///< alternated sequential seconds
                                ///< over these
    bool identical = false;     ///< a twin of the sequential run
};

/** The 16-node machine of the coherent counter loop, running the
 *  DIV loop on the default caches with every core at "worker". */
workloads::Workload
stallWorkload(const workloads::Workload &coherent, uint32_t iters)
{
    workloads::Workload w;
    w.name = "alewife_stall16";
    w.prog = workloads::buildStallLoop(iters);
    w.options = coherent.options;
    w.options.controller = {};
    w.boot = [](Machine &m, const Program &prog) {
        for (uint32_t n = 0; n < m.numNodes(); ++n)
            m.proc(n).reset(prog.entry("worker"));
    };
    return w;
}

/** One timed run; @p record receives what it simulated. */
Point
timeRun(const workloads::Workload &w, uint32_t threads, bool skip,
        RunRecord *record)
{
    DriverOptions o = w.options;
    o.hostThreads = threads;
    o.cycleSkip = skip;
    std::unique_ptr<Machine> machine = makeMachine(w.prog, o, w.boot);
    auto *m = dynamic_cast<AlewifeMachine *>(machine.get());
    Point pt{bench::runToHalt(*m, 2'000'000'000, w.name)};
    pt.threads = m->hostThreads();
    *record = recordRun(*m);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv);
    const bool quick = session.quick;

    const double min_seconds = quick ? 0.05 : 1.0;
    uint32_t cores = std::thread::hardware_concurrency();
    std::vector<workloads::Workload> workloads;
    workloads.push_back(
        workloads::fromSpec(quick ? "coherent16:40" : "coherent16:400"));
    workloads[0].name = "alewife_coherent16";
    workloads.push_back(
        stallWorkload(workloads[0], quick ? 3'000 : 50'000));

    bool ok = true;
    std::vector<std::vector<Point>> series(workloads.size());

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const workloads::Workload &w = workloads[wi];
        const bool coherent = wi == 0;
        std::printf("%s\n%8s %6s %14s %14s %9s\n", w.name.c_str(),
                    "threads", "skip", "sim cycles", "cyc/s",
                    "scaling");
        double gate_scaling = 0;
        for (bool skip : {false, true}) {
            RunRecord ref;
            for (uint32_t threads : {1u, 2u, 4u, 8u}) {
                RunRecord record;
                Point pt;
                if (threads == 1) {
                    pt = timeRun(w, 1, skip, &ref);
                    record = ref;
                    pt.scaling = 1;
                } else {
                    RunRecord seq_record;
                    auto [seq, par] = bench::alternating(
                        min_seconds,
                        [&] { return timeRun(w, 1, skip, &seq_record); },
                        [&] { return timeRun(w, threads, skip, &record); });
                    pt = par;
                    pt.scaling = seq.seconds / par.seconds;
                }
                pt.skip = skip;
                std::string diff = compareRuns(ref, record);
                pt.identical = diff.empty();
                if (!pt.identical) {
                    std::fprintf(stderr,
                                 "FAIL: %s threads=%u skip=%d diverged "
                                 "from the sequential run\n%s",
                                 w.name.c_str(), threads, int(skip),
                                 diff.c_str());
                    ok = false;
                }
                if (coherent && !skip && threads == 4)
                    gate_scaling = pt.scaling;
                std::printf("%8u %6s %14llu %14.0f %8.2fx\n",
                            pt.threads, skip ? "on" : "off",
                            (unsigned long long)pt.cycles,
                            pt.cyclesPerSec(), pt.scaling);
                series[wi].push_back(pt);
            }
        }
        std::printf("\n");

        // The throughput gate: 4 threads must be >= 3x sequential on
        // the coherence-bound workload — when the host can run 4
        // workers at all.
        if (coherent) {
            if (cores >= 4 && gate_scaling < 3.0) {
                std::fprintf(stderr,
                             "FAIL: %s at 4 threads scales %.2fx < 3x "
                             "on a %u-core host\n",
                             w.name.c_str(), gate_scaling, cores);
                ok = false;
            } else if (cores < 4) {
                std::printf("(scaling gate skipped: host has only %u "
                            "core%s)\n\n",
                            cores, cores == 1 ? "" : "s");
            }
        }
    }

    session.emit("parallel_scaling", [&](json::Writer &w) {
        w.field("host_cores", cores).key("workloads").beginArray();
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            w.beginObject()
                .field("name", workloads[wi].name)
                .key("points")
                .beginArray();
            for (const Point &pt : series[wi])
                w.beginObject()
                    .field("threads", pt.threads)
                    .field("skip", pt.skip)
                    .field("sim_cycles", pt.cycles)
                    .field("insts", pt.insts)
                    .field("seconds", pt.seconds)
                    .field("cycles_per_sec", pt.cyclesPerSec())
                    .field("scaling", pt.scaling)
                    .field("identical", pt.identical)
                    .endObject();
            w.endArray().endObject();
        }
        w.endArray();
    });
    return ok ? 0 : 1;
}
