/**
 * @file
 * Latency-tolerance bench (EXPERIMENTS.md X11): APRIL's thesis is
 * that multiple hardware task frames let a node overlap useful work
 * with a remote access or an unresolved future. The task plane
 * quantifies that as a tolerance score
 *
 *     score = min(1, max(criticalPath, totalWork/P) / T_actual)
 *
 * (1.0 = every stall cycle was hidden behind useful work).
 *
 * Methodology — two choices matter, both diagnosed with the task
 * plane itself (DESIGN.md 7.10):
 *
 *  1. The sweep runs the switch-spinning future-touch policy
 *     (RuntimeOptions::spinTouch) on a mesh with 8-cycle hops.
 *     Under the default unload-blocking policy the *software*
 *     already tolerates nearly all latency at one frame — a blocked
 *     task costs only its unload/reload, so extra frames have
 *     nothing left to hide. Switch-spinning is the regime the
 *     paper's frame count addresses: a waiting task occupies its
 *     frame, and only the other frames can cover the wait.
 *
 *  2. Scores are normalized to a per-workload *common* lower bound,
 *     the max of the per-run bounds across the sweep. Lazy task
 *     creation realizes a different future DAG under every schedule
 *     (more steals => more, shallower tasks), so the per-run bound
 *     is schedule-dependent and per-run scores are not comparable:
 *     speech at 4 frames runs 8% faster than at 1 frame while its
 *     realized bound collapses to a third. Against the common bound
 *     the score is monotone in actual time, which is what a frames
 *     sweep must compare.
 *
 * Both pathologies the sweep first exposed are now fixed in the
 * runtime (yielding exponential backoff on fruitless steal rounds;
 * demand-driven stealing gated on nb::busyFrames), and this bench is
 * the regression fence for them.
 *
 * Gate (full mode): the suite-level score — the summed common
 * bounds over the summed actual cycles — improves monotonically
 * across frames 1 -> 2 -> 4 over the four Table-3 workloads: every
 * step must be non-decreasing within a 3% relative tolerance (lazy
 * task creation realizes a different DAG per schedule, so any single
 * intermediate point carries a few percent of schedule noise), and
 * the full 1 -> 4 sweep must improve strictly by at least 2%.
 * Per-workload scores are reported (and written to
 * BENCH_task_tolerance.json) but not individually gated: fib and
 * queens are compute-local after a steal and have little latency to
 * tolerate, so their scores stay roughly flat by design.
 *
 * Quick mode shrinks the workloads and only checks score validity;
 * the monotonicity margins are only established at full size.
 *
 * Usage: bench_task_tolerance [--quick | --scan]
 *   --scan prints a config x workload x frames survey (no gate),
 *   the knob used to diagnose the scheduler pathologies above.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "machine/alewife_machine.hh"
#include "mult/compiler.hh"
#include "task/task_trace.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;

struct Point
{
    uint32_t frames = 0;
    uint64_t cycles = 0;
    double rawScore = 0;    ///< against this run's realized DAG
    double normScore = 0;   ///< against the sweep's common bound
    double lowerBound = 0;
    uint64_t exposed = 0;
    uint64_t switches = 0;
};

struct Sweep
{
    std::string name;
    std::vector<Point> points;
    double commonBound = 0;
};

Point
runOnce(const std::string &source, uint32_t frames, bool lazy = true,
        int radix = 2, uint32_t lines = 4096, uint32_t assoc = 4,
        uint32_t hop = 8, uint32_t mem = 10, bool spin_touch = true)
{
    mult::CompileOptions copts;
    copts.futures = lazy ? mult::CompileOptions::FutureMode::Lazy
                         : mult::CompileOptions::FutureMode::Eager;
    Program prog = mult::compileProgram(source, copts,
                                        {.spinTouch = spin_touch});

    AlewifeParams p;
    p.network = {.dim = 2, .radix = radix, .hopCycles = hop};
    p.controller.cache = {.lineWords = 4, .numLines = lines,
                          .assoc = assoc};
    p.controller.memLatency = mem;
    p.proc.numFrames = frames;
    p.taskTrace = true;
    AlewifeMachine m(p, &prog);
    bench::runToHalt(m, 400'000'000, "bench_task_tolerance workload");

    task::AnalyzeParams ap;
    ap.numNodes = m.numNodes();
    ap.totalCycles = m.cycle();
    task::Report r = task::analyze(*m.taskTracer(), ap);

    Point pt;
    pt.frames = frames;
    pt.cycles = m.cycle();
    pt.rawScore = r.score;
    pt.lowerBound = r.lowerBound;
    pt.exposed = r.exposed;
    pt.switches = r.switches;
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Session session(argc, argv, {.scan = true});
    const bool quick = session.quick;

    if (session.scan) {
        struct Cfg { const char *tag; bool lazy; int radix;
                     uint32_t lines, assoc, hop, mem; };
        const Cfg cfgs[] = {
            {"lazy 2x2", true, 2, 4096, 4, 1, 10},
            {"lazy 2x2 hop8", true, 2, 4096, 4, 8, 10},
        };
        struct WSpec { const char *name; std::string src; };
        const WSpec ws[] = {
            {"fib:12", workloads::fibSource(12)},
            {"factor", workloads::factorSource(1000, 1040)},
            {"queens:6", workloads::queensSource(6)},
            {"speech", workloads::speechSource(8, 12)},
        };
        for (const Cfg &c : cfgs)
            for (const WSpec &w : ws) {
                std::printf("%-16s %-9s:", c.tag, w.name);
                for (uint32_t f : {1u, 2u, 4u}) {
                    Point pt = runOnce(w.src, f, c.lazy, c.radix,
                                       c.lines, c.assoc, c.hop, c.mem);
                    std::printf("  f%u %.4f (%llu cyc)", f, pt.rawScore,
                                (unsigned long long)pt.cycles);
                }
                std::printf("\n");
                std::fflush(stdout);
            }
        return 0;
    }

    struct Spec { const char *name; std::string source; };
    std::vector<Spec> specs = {
        {"fib", workloads::fibSource(quick ? 10 : 12)},
        {"factor", workloads::factorSource(1000, quick ? 1016 : 1040)},
        {"queens", workloads::queensSource(quick ? 5 : 6)},
        {"speech", workloads::speechSource(quick ? 4 : 8,
                                           quick ? 8 : 12)},
    };
    std::vector<uint32_t> kFrames =
        quick ? std::vector<uint32_t>{1, 4} : std::vector<uint32_t>{1, 2, 4};

    bool ok = true;
    std::vector<Sweep> sweeps;
    std::printf("%-10s %7s %12s %8s %8s %12s %10s\n", "workload",
                "frames", "cycles", "score", "raw", "exposed",
                "switches");
    for (const Spec &s : specs) {
        Sweep sw;
        sw.name = s.name;
        for (uint32_t f : kFrames) {
            Point pt = runOnce(s.source, f);
            if (pt.rawScore <= 0 || pt.rawScore > 1) {
                std::fprintf(stderr,
                             "FAIL: %s f%u score %.4f out of (0,1]\n",
                             s.name, f, pt.rawScore);
                ok = false;
            }
            if (pt.lowerBound > sw.commonBound)
                sw.commonBound = pt.lowerBound;
            sw.points.push_back(pt);
        }
        for (Point &pt : sw.points) {
            pt.normScore = sw.commonBound / double(pt.cycles);
            if (pt.normScore > 1)
                pt.normScore = 1;
            std::printf("%-10s %7u %12llu %8.4f %8.4f %12llu %10llu\n",
                        sw.name.c_str(), pt.frames,
                        (unsigned long long)pt.cycles, pt.normScore,
                        pt.rawScore, (unsigned long long)pt.exposed,
                        (unsigned long long)pt.switches);
        }
        sweeps.push_back(std::move(sw));
    }

    // Suite-level score per frame count: total common bound over total
    // actual cycles across the four workloads.
    std::vector<std::pair<uint32_t, double>> suite;
    for (size_t j = 0; j < kFrames.size(); ++j) {
        double bound = 0, actual = 0;
        for (const Sweep &sw : sweeps) {
            bound += sw.commonBound;
            actual += double(sw.points[j].cycles);
        }
        double sc = bound / actual;
        if (sc > 1)
            sc = 1;
        suite.emplace_back(kFrames[j], sc);
        std::printf("%-10s %7u %12.0f %8.4f\n", "suite", kFrames[j],
                    actual, sc);
    }
    if (!quick) {
        // Each step: non-decreasing within schedule noise (lazy task
        // creation realizes a different DAG per schedule; a single
        // intermediate point can dip a couple of percent).
        for (size_t j = 1; j < suite.size(); ++j) {
            if (suite[j].second < suite[j - 1].second * 0.97) {
                std::fprintf(stderr,
                             "FAIL: suite score regressed from "
                             "%u to %u frames (%.4f -> %.4f)\n",
                             suite[j - 1].first, suite[j].first,
                             suite[j - 1].second, suite[j].second);
                ok = false;
            }
        }
        // End to end: the frames sweep must buy real tolerance.
        if (suite.back().second < suite.front().second * 1.02) {
            std::fprintf(stderr,
                         "FAIL: suite score did not improve from %u "
                         "to %u frames (%.4f -> %.4f, need >= +2%%)\n",
                         suite.front().first, suite.back().first,
                         suite.front().second, suite.back().second);
            ok = false;
        }
    }

    session.emit("task_tolerance", [&](json::Writer &w) {
        w.key("workloads").beginArray();
        for (const Sweep &sw : sweeps) {
            w.beginObject()
                .field("name", sw.name)
                .field("commonBound", sw.commonBound)
                .key("points")
                .beginArray();
            for (const Point &pt : sw.points)
                w.beginObject()
                    .field("frames", pt.frames)
                    .field("cycles", pt.cycles)
                    .field("score", pt.normScore)
                    .field("rawScore", pt.rawScore)
                    .field("exposed", pt.exposed)
                    .field("switches", pt.switches)
                    .endObject();
            w.endArray().endObject();
        }
        w.endArray().key("suite").beginArray();
        for (const auto &[frames, score] : suite)
            w.beginObject()
                .field("frames", frames)
                .field("score", score)
                .endObject();
        w.endArray();
    });
    return ok ? 0 : 1;
}
