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
 * each mode, verifies the runs are cycle-identical, and writes the
 * results as one machine-readable JSON object to stdout and to
 * BENCH_sim_speed.json.
 *
 * Usage: bench_sim_speed [--quick]
 */

#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "machine/alewife_machine.hh"
#include "machine/driver.hh"
#include "machine/workload.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;
using namespace tagged;

// ---------------------------------------------------------------------
// Workload programs
// ---------------------------------------------------------------------

/** Lockstep DIV loop on every node; node 0 stops the machine. */
Program
buildStallLoop(uint32_t iters)
{
    Assembler as;
    as.bind("worker");
    as.movi(1, Word(iters));            // raw loop counter
    as.movi(2, fixnum(84));             // DIV operands (future-free)
    as.movi(3, fixnum(4));
    as.bind("loop");
    as.div(4, 2, 3);                    // multi-cycle stall
    as.subiR(1, 1, 1);
    as.jRaw(Cond::NE, "loop");
    as.nop();
    as.ldio(5, int(IoReg::NodeId));
    as.cmpiR(5, 0);
    as.jRaw(Cond::NE, "done");
    as.nop();
    as.stio(int(IoReg::MachineHalt), reg::r0);
    as.bind("done");
    as.halt();
    return as.finish();
}


// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

struct Measurement
{
    uint64_t simCycles = 0;
    uint64_t insts = 0;
    double seconds = 0;

    double cyclesPerSec() const { return double(simCycles) / seconds; }
    double instsPerSec() const { return double(insts) / seconds; }
};

struct WorkloadResult
{
    std::string name;
    Measurement on;
    Measurement off;
    bool identical = false;     ///< cycle counts and insts match
};

template <typename MakeMachine>
Measurement
timeAlewife(MakeMachine make, bool skip, uint64_t budget)
{
    auto machine = make(skip);
    auto t0 = std::chrono::steady_clock::now();
    machine->run(budget);
    auto t1 = std::chrono::steady_clock::now();
    if (!machine->halted())
        fatal("bench_sim_speed: workload did not finish in ", budget,
              " cycles");
    Measurement m;
    m.simCycles = machine->cycle();
    for (uint32_t n = 0; n < machine->numNodes(); ++n)
        m.insts += uint64_t(machine->proc(n).statInsts.value());
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

WorkloadResult
runStall16(uint32_t iters)
{
    Program prog = buildStallLoop(iters);
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
    WorkloadResult r;
    r.name = "alewife_stall16";
    r.on = timeAlewife(make, true, 2'000'000'000);
    r.off = timeAlewife(make, false, 2'000'000'000);
    return r;
}

WorkloadResult
runCoherent16(uint32_t iters)
{
    const workloads::Workload w =
        workloads::fromSpec("coherent16:" + std::to_string(iters));
    auto make = [&](bool skip) {
        DriverOptions o = w.options;
        o.hostThreads = 1;
        o.cycleSkip = skip;
        return makeMachine(w.prog, o, w.boot);
    };
    WorkloadResult r;
    r.name = "alewife_coherent16";
    r.on = timeAlewife(make, true, 2'000'000'000);
    r.off = timeAlewife(make, false, 2'000'000'000);
    return r;
}

WorkloadResult
runPerfect16(int fib_n)
{
    auto once = [&](bool skip) {
        DriverOptions opts = DriverOptions::april(
            mult::CompileOptions::FutureMode::Eager, 16);
        opts.cycleSkip = skip;
        auto t0 = std::chrono::steady_clock::now();
        DriverResult d =
            runMultProgram(workloads::fibSource(fib_n), opts);
        auto t1 = std::chrono::steady_clock::now();
        if (d.result != Word(fixnum(
                int32_t(workloads::fibExpected(fib_n)))))
            fatal("bench_sim_speed: wrong fib result");
        Measurement m;
        m.simCycles = d.cycles;
        m.insts = d.instructions;
        m.seconds = std::chrono::duration<double>(t1 - t0).count();
        return m;
    };
    WorkloadResult r;
    r.name = "perfect16";
    r.on = once(true);
    r.off = once(false);
    return r;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

std::string
jsonMode(const Measurement &m)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"sim_cycles\":%llu,\"insts\":%llu,"
                  "\"seconds\":%.6f,\"cycles_per_sec\":%.0f,"
                  "\"insts_per_sec\":%.0f}",
                  (unsigned long long)m.simCycles,
                  (unsigned long long)m.insts, m.seconds,
                  m.cyclesPerSec(), m.instsPerSec());
    return buf;
}

std::string
toJson(const std::vector<WorkloadResult> &results, bool quick)
{
    std::string out = "{\"bench\":\"sim_speed\",\"quick\":";
    out += quick ? "true" : "false";
    out += ",\"workloads\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        char head[128];
        std::snprintf(head, sizeof head,
                      "%s{\"name\":\"%s\",\"identical\":%s,"
                      "\"cycles_speedup\":%.2f,",
                      i ? "," : "", r.name.c_str(),
                      r.identical ? "true" : "false",
                      r.off.seconds / r.on.seconds);
        out += head;
        out += "\"skip_on\":" + jsonMode(r.on);
        out += ",\"skip_off\":" + jsonMode(r.off) + "}";
    }
    out += "]}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    QuietScope quiet_scope;

    // Min-of-reps wall clock per mode: quick runs are fractions of a
    // second, where scheduler noise alone swings ratios by +-10%.
    int reps = 3;
    auto bestOf = [&](const std::function<WorkloadResult()> &make) {
        WorkloadResult r = make();
        for (int i = 1; i < reps; ++i) {
            WorkloadResult again = make();
            r.on.seconds = std::min(r.on.seconds, again.on.seconds);
            r.off.seconds = std::min(r.off.seconds, again.off.seconds);
        }
        return r;
    };
    std::vector<std::function<WorkloadResult()>> makers;
    makers.push_back([&] { return runStall16(quick ? 2'000 : 50'000); });
    makers.push_back([&] { return runCoherent16(quick ? 30 : 200); });
    makers.push_back([&] { return runPerfect16(quick ? 10 : 13); });
    std::vector<WorkloadResult> results;
    for (auto &make : makers)
        results.push_back(bestOf(make));

    bool ok = true;
    std::printf("%-20s %14s %14s %14s %9s\n", "workload",
                "cyc/s (skip)", "cyc/s (tick)", "insts/s (skip)",
                "speedup");
    for (WorkloadResult &r : results) {
        r.identical = r.on.simCycles == r.off.simCycles &&
                      r.on.insts == r.off.insts;
        if (!r.identical) {
            std::fprintf(stderr,
                         "%s: cycle-skipping diverged! on=%llu/%llu "
                         "off=%llu/%llu\n",
                         r.name.c_str(),
                         (unsigned long long)r.on.simCycles,
                         (unsigned long long)r.on.insts,
                         (unsigned long long)r.off.simCycles,
                         (unsigned long long)r.off.insts);
            ok = false;
        }
        std::printf("%-20s %14.0f %14.0f %14.0f %8.2fx\n",
                    r.name.c_str(), r.on.cyclesPerSec(),
                    r.off.cyclesPerSec(), r.on.instsPerSec(),
                    r.off.seconds / r.on.seconds);
    }

    std::string json = toJson(results, quick);
    std::printf("\n%s\n", json.c_str());
    std::ofstream f("BENCH_sim_speed.json");
    f << json << "\n";

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
    // full mode, with one re-measure to ride out host scheduling
    // noise; quick runs are fractions of a second, where min-of-reps
    // wall clocks still jitter by ~15% on a busy host, so the smoke
    // budget is only tight enough to catch a broken probe path.
    double budget = quick ? 0.85 : 0.98;
    for (size_t i = 0; i < results.size(); ++i) {
        double ratio = results[i].off.seconds / results[i].on.seconds;
        if (ratio < budget) {
            WorkloadResult again = bestOf(makers[i]);
            ratio = std::max(ratio,
                             again.off.seconds / again.on.seconds);
        }
        if (ratio < budget) {
            std::fprintf(stderr,
                         "FAIL: %s with skipping on is %.1f%% slower "
                         "than plain ticking (>%.0f%% budget)\n",
                         results[i].name.c_str(), (1 / ratio - 1) * 100,
                         (1 / budget - 1) * 100);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
