/**
 * @file
 * april — run a workload on an APRIL machine and report where its
 * cycles, coherence traffic and tasks went.
 *
 * Modes:
 *
 *   april run SPEC [options]
 *       Build the workload SPEC names (machine/workload.hh: fib[:n],
 *       factor[:lo:hi], queens[:n], speech[:layers:width] on a 2x2
 *       ALEWIFE, coherent16[:iters] on a 4x4 one, wide[:nodes] on a
 *       square mesh), run it to MachineHalt and check its answer.
 *       Each of --prof, --coh and --task turns one observability
 *       plane on, prints its text report and writes its report JSON
 *       to the file given after '='. Profile and task reports are
 *       taken at the halt; the coherence report and --perfetto come
 *       last, after raw workloads have drained their in-flight
 *       traffic (only when --coh is on).
 *
 *   april check prof|coh|task FILE [--schema=SCHEMA.json]
 *       Validate a report JSON file against its checked-in schema
 *       (tools/april_<kind>_schema.json) plus the kind's invariants:
 *       sum(buckets) == cycles per node (prof), the invalidation
 *       balance (coh), work conservation and score range (task).
 *
 *   april diff prof|task A.json B.json
 *       Compare two report JSON files of one kind.
 *
 * Exit codes: 0 ok; 1 wrong answer, or a verify/check violation;
 * 2 usage or run failure.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/json_parse.hh"
#include "common/logging.hh"
#include "machine/coh_report.hh"
#include "machine/snapshot.hh"
#include "machine/workload.hh"
#include "profile/report.hh"

#include "cli_common.hh"

namespace
{

using namespace april;
using json::Json;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: april run SPEC [options]\n"
        "       april check prof|coh|task FILE [--schema=SCHEMA.json]\n"
        "       april diff prof|task A.json B.json\n"
        "\n"
        "SPEC: fib[:n] factor[:lo:hi] queens[:n] speech[:layers:width]\n"
        "      coherent16[:iters] wide[:nodes]\n"
        "machine:\n"
        "  --perfect          perfect shared memory instead of ALEWIFE\n"
        "                     (Mul-T workloads only)\n"
        "  --nodes=N          node count with --perfect (default 4)\n"
        "  --threads=N        host worker threads for ALEWIFE (default\n"
        "                     1; every output is bit-identical at any\n"
        "                     count)\n"
        "  --frames=N         task frames per processor (default 4)\n"
        "  --max-cycles=N     run budget (default 200000000)\n"
        "  --no-skip          tick every cycle (differential runs)\n"
        "  --dir=SCHEME       fullmap (default) or limited directory\n"
        "  --dir-pointers=N   hardware pointers for --dir=limited\n"
        "                     (default 4)\n"
        "  --spin-touch       switch-spin on unresolved future touches\n"
        "                     instead of unload-blocking\n"
        "reports:\n"
        "  --prof[=FILE]      profile: cycle breakdown + hotspots\n"
        "  --coh[=FILE]       coherence report (ALEWIFE only)\n"
        "  --task[=FILE]      task report: latency tolerance, critical\n"
        "                     path, runtime health\n"
        "  --folded=FILE      folded-stack hotspot lines (implies --prof)\n"
        "  --counters=FILE    Perfetto counter tracks (implies --prof)\n"
        "  --series=FILE      stats time series as CSV (implies --prof)\n"
        "  --period=N         PC sample period (default 64)\n"
        "  --interval=N       time-series period (default 4096)\n"
        "  --top=N            rows per top-N table (default 8 for the\n"
        "                     profile, 10 for the coherence report)\n"
        "  --txns=FILE        raw transaction-span JSON (implies --coh)\n"
        "  --no-trace         --coh from census + telemetry only\n"
        "  --verify           check the invalidation balance and span\n"
        "                     causality; exit 1 on violation (implies\n"
        "                     --coh)\n"
        "  --perfetto=FILE    Chrome trace, other planes stitched in\n"
        "  --stats=FILE       statistics tree JSON\n");
    return 2;
}

// --- check mode ------------------------------------------------------

/** Accounting invariant: per-node bucket sums equal cycle counts. */
void
checkProfile(const Json &profile, std::vector<std::string> &errors)
{
    if (!profile.has("nodes"))
        return;
    const auto &nodes = profile.at("nodes").array;
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Json &node = nodes[i];
        if (!node.has("buckets") || !node.has("cycles"))
            continue;
        double sum = 0;
        for (const auto &[name, v] : node.at("buckets").object)
            sum += v.number;
        if (sum != node.at("cycles").number) {
            errors.push_back("/nodes/" + std::to_string(i) +
                             ": bucket sum " + std::to_string(sum) +
                             " != cycles " +
                             std::to_string(node.at("cycles").number));
        }
        if (!node.has("frames"))
            continue;
        double frame_sum = 0;
        for (const Json &row : node.at("frames").array)
            for (const Json &v : row.array)
                frame_sum += v.number;
        if (frame_sum != node.at("cycles").number) {
            errors.push_back("/nodes/" + std::to_string(i) +
                             ": frame matrix sum " +
                             std::to_string(frame_sum) + " != cycles");
        }
    }
}

/** Balance invariant over a coherence report: invAcked <= invSent
 *  and the ok bit agrees. */
void
checkBalance(const Json &report, std::vector<std::string> &errors)
{
    if (!report.has("balance"))
        return;
    const Json &b = report.at("balance");
    double sent = b.at("invSent").number;
    double acked = b.at("invAcked").number;
    if (acked > sent) {
        errors.push_back("/balance: invAcked " + std::to_string(acked) +
                         " exceeds invSent " + std::to_string(sent));
    }
    if (b.at("ok").number != (acked <= sent ? 1 : 0))
        errors.push_back("/balance: ok bit disagrees with counts");
}

/** Work conservation, score range and critical-chain referential
 *  integrity over a task report. */
void
checkTask(const Json &report, std::vector<std::string> &errors)
{
    if (report.has("tasks") && report.has("totalWork")) {
        double sum = 0;
        for (const Json &t : report.at("tasks").array)
            sum += t.at("work").number;
        if (sum != report.at("totalWork").number) {
            errors.push_back("/totalWork: task work sums to " +
                             std::to_string(sum) + ", report says " +
                             std::to_string(
                                 report.at("totalWork").number));
        }
    }
    if (report.has("score")) {
        double s = report.at("score").number;
        if (s < 0.0 || s > 1.0)
            errors.push_back("/score: " + std::to_string(s) +
                             " outside [0, 1]");
    }
    if (report.has("criticalChain") && report.has("tasks")) {
        for (const Json &id : report.at("criticalChain").array) {
            bool found = false;
            for (const Json &t : report.at("tasks").array) {
                if (t.at("id").number == id.number) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                errors.push_back("/criticalChain: task " +
                                 std::to_string(id.number) +
                                 " not in /tasks");
            }
        }
    }
}

int
runCheck(const std::string &kind, const std::string &file,
         const std::string &schema)
{
    std::string schema_path =
        schema.empty() ? "../tools/april_" + kind + "_schema.json"
                       : schema;
    if (kind == "prof") {
        return cli::checkReport("april", file, schema_path,
                                "schema + invariants", checkProfile);
    }
    if (kind == "coh") {
        return cli::checkReport("april", file, schema_path,
                                "schema + balance", checkBalance);
    }
    if (kind == "task") {
        return cli::checkReport("april", file, schema_path,
                                "schema + invariants", checkTask);
    }
    return usage();
}

// --- diff mode -------------------------------------------------------

/** Per-node bucket deltas and utilization movement. */
void
diffProfile(const Json &a, const Json &b)
{
    std::printf("total cycles: %.0f -> %.0f (%+.1f%%)\n",
                a.at("totalCycles").number, b.at("totalCycles").number,
                a.at("totalCycles").number
                    ? 100.0 * (b.at("totalCycles").number -
                               a.at("totalCycles").number)
                          / a.at("totalCycles").number
                    : 0.0);
    const auto &nodes_a = a.at("nodes").array;
    const auto &nodes_b = b.at("nodes").array;
    size_t n = std::min(nodes_a.size(), nodes_b.size());
    if (nodes_a.size() != nodes_b.size()) {
        std::printf("node count differs: %zu vs %zu (comparing first "
                    "%zu)\n",
                    nodes_a.size(), nodes_b.size(), n);
    }
    for (size_t i = 0; i < n; ++i) {
        const Json &na = nodes_a[i];
        const Json &nb = nodes_b[i];
        std::printf("node %.0f: utilization %.3f -> %.3f\n",
                    na.at("node").number, na.at("utilization").number,
                    nb.at("utilization").number);
        for (const auto &[bucket, va] : na.at("buckets").object) {
            double vb = nb.at("buckets").has(bucket)
                ? nb.at("buckets").at(bucket).number
                : 0.0;
            if (va.number == vb)
                continue;
            std::printf("  %-10s %12.0f -> %12.0f (%+.0f)\n",
                        bucket.c_str(), va.number, vb, vb - va.number);
        }
    }
}

/** Cycle/score movement, task and steal count deltas. */
void
diffTask(const Json &a, const Json &b)
{
    auto row = [&](const char *key, const char *label) {
        double va = a.at(key).number;
        double vb = b.at(key).number;
        std::printf("%-16s %12.0f -> %12.0f (%+.0f)\n", label, va, vb,
                    vb - va);
    };
    row("totalCycles", "total cycles");
    row("totalWork", "total work");
    row("criticalPath", "critical path");
    row("exposed", "exposed");
    row("waitTotal", "wait total");
    row("spawns", "spawns");
    row("steals", "steals");
    std::printf("%-16s %12.4f -> %12.4f (%+.4f)\n", "score",
                a.at("score").number, b.at("score").number,
                b.at("score").number - a.at("score").number);
    size_t ta = a.at("tasks").array.size();
    size_t tb = b.at("tasks").array.size();
    std::printf("%-16s %12zu -> %12zu (%+lld)\n", "tasks", ta, tb,
                (long long)tb - (long long)ta);
}

int
runDiff(const std::string &kind, const std::string &file_a,
        const std::string &file_b)
{
    if (kind != "prof" && kind != "task")
        return usage();
    Json a = json::parseJson(cli::readFile("april", file_a));
    Json b = json::parseJson(cli::readFile("april", file_b));
    std::printf("diff %s -> %s\n", file_a.c_str(), file_b.c_str());
    if (kind == "prof")
        diffProfile(a, b);
    else
        diffTask(a, b);
    return 0;
}

// --- run mode --------------------------------------------------------

struct RunOptions
{
    std::string spec;
    bool perfect = false;
    uint32_t nodes = 0;             ///< 0: the workload's own
    uint32_t threads = 1;
    uint32_t frames = 4;
    uint64_t maxCycles = 200'000'000;
    bool cycleSkip = true;
    coh::DirScheme dirScheme = coh::DirScheme::FullMap;
    uint32_t dirPointers = 4;
    bool spinTouch = false;
    bool prof = false;
    bool coh = false;
    bool task = false;
    bool cohSpans = true;           ///< cleared by --no-trace
    bool verify = false;
    uint64_t period = 64;
    uint64_t interval = 4096;
    size_t top = 0;                 ///< 0: each report's own default
    std::string profFile;
    std::string cohFile;
    std::string taskFile;
    std::string foldedFile;
    std::string countersFile;
    std::string seriesFile;
    std::string txnsFile;
    std::string perfettoFile;
    std::string statsFile;
};

/** "--name" turns @p on; "--name=FILE" also names its output. */
bool
planeFlag(const std::string &arg, const std::string &name, bool &on,
          std::string &file)
{
    if (arg == name) {
        on = true;
        return true;
    }
    if (const char *v = cli::optValue(arg, (name + "=").c_str())) {
        on = true;
        file = v;
        return true;
    }
    return false;
}

/** Parse the arguments after "run"; false on any bad one. */
bool
parseRun(int argc, char **argv, RunOptions &o)
{
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto opt = [&](const char *prefix) {
            return cli::optValue(arg, prefix);
        };
        const char *v = nullptr;
        bool ok = true;
        if (arg == "--perfect")
            o.perfect = true;
        else if (arg == "--no-skip")
            o.cycleSkip = false;
        else if (arg == "--spin-touch")
            o.spinTouch = true;
        else if (arg == "--no-trace")
            o.cohSpans = false;
        else if (arg == "--verify")
            o.verify = true;
        else if (planeFlag(arg, "--prof", o.prof, o.profFile) ||
                 planeFlag(arg, "--coh", o.coh, o.cohFile) ||
                 planeFlag(arg, "--task", o.task, o.taskFile))
            ;
        else if ((v = opt("--nodes=")))
            ok = cli::parsePositive(v, o.nodes);
        else if ((v = opt("--threads=")))
            ok = cli::parsePositive(v, o.threads);
        else if ((v = opt("--frames=")))
            ok = cli::parsePositive(v, o.frames);
        else if ((v = opt("--max-cycles=")))
            ok = cli::parsePositive(v, o.maxCycles);
        else if ((v = opt("--period=")))
            ok = cli::parsePositive(v, o.period);
        else if ((v = opt("--interval=")))
            ok = cli::parsePositive(v, o.interval);
        else if ((v = opt("--top=")))
            ok = cli::parsePositive(v, o.top);
        else if ((v = opt("--dir-pointers=")))
            ok = cli::parseU32(v, o.dirPointers);
        else if ((v = opt("--dir="))) {
            std::string s = v;
            ok = s == "fullmap" || s == "limited";
            o.dirScheme = s == "limited" ? coh::DirScheme::LimitedPtr
                                         : coh::DirScheme::FullMap;
        } else if ((v = opt("--folded=")))
            o.foldedFile = v;
        else if ((v = opt("--counters=")))
            o.countersFile = v;
        else if ((v = opt("--series=")))
            o.seriesFile = v;
        else if ((v = opt("--txns=")))
            o.txnsFile = v;
        else if ((v = opt("--perfetto=")))
            o.perfettoFile = v;
        else if ((v = opt("--stats=")))
            o.statsFile = v;
        else if (o.spec.empty() && arg.rfind("--", 0) != 0)
            o.spec = arg;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "april: bad argument '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (o.spec.empty())
        return false;
    o.prof = o.prof || !o.foldedFile.empty() || !o.countersFile.empty() ||
             !o.seriesFile.empty();
    o.coh = o.coh || o.verify || !o.txnsFile.empty();
    if (o.coh && o.perfect) {
        std::fprintf(stderr, "april: --coh needs the ALEWIFE machine\n");
        return false;
    }
    if (o.nodes && !o.perfect) {
        std::fprintf(stderr, "april: --nodes needs --perfect\n");
        return false;
    }
    return true;
}

/** The coherence gate: invalidation balance (exact once drained)
 *  and span causality. */
bool
verifyCoherence(AlewifeMachine &m, bool drained)
{
    uint64_t inv_sent = 0;
    uint64_t inv_acked = 0;
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        inv_sent += uint64_t(m.controller(n).statInvSent.value());
        inv_acked += uint64_t(m.controller(n).statInvAcks.value());
    }
    bool balance_ok =
        drained ? inv_acked == inv_sent : inv_acked <= inv_sent;
    if (!balance_ok) {
        std::fprintf(stderr,
                     "april: invalidation balance violated: sent %llu, "
                     "acked %llu%s\n",
                     (unsigned long long)inv_sent,
                     (unsigned long long)inv_acked,
                     drained ? " (drained)" : "");
        return false;
    }
    if (coh::TxnTracer *t = m.txnTracer()) {
        std::string err = checkCohInvariants(*t);
        if (!err.empty()) {
            std::fprintf(stderr, "april: span causality violated: %s\n",
                         err.c_str());
            return false;
        }
    }
    std::printf("verify: ok (balance%s + span causality)\n",
                drained ? ", drained" : "");
    return true;
}

int
runWorkload(const RunOptions &o)
{
    workloads::Workload w =
        workloads::fromSpec(o.spec, {.spinTouch = o.spinTouch});
    if (w.boot && o.perfect) {
        std::fprintf(stderr,
                     "april: %s runs on its own ALEWIFE mesh (no "
                     "--perfect)\n",
                     w.name.c_str());
        return 2;
    }

    DriverOptions &d = w.options;
    d.alewife = !o.perfect;
    if (o.nodes)
        d.nodes = o.nodes;
    d.hostThreads = o.threads;
    d.proc.numFrames = o.frames;
    d.cycleSkip = o.cycleSkip;
    d.controller.dirScheme = o.dirScheme;
    d.controller.dirPointers = o.dirPointers;
    d.traceEvents = !o.perfettoFile.empty();
    d.cohTrace = o.coh && o.cohSpans;
    d.taskTrace = o.task;
    d.profile = o.prof;
    d.profilePeriod = o.period;
    d.statsInterval = o.prof ? o.interval : 0;
    std::unique_ptr<Machine> m = makeMachine(w.prog, d, w.boot);
    auto *alewife = dynamic_cast<AlewifeMachine *>(m.get());

    m->run(o.maxCycles);
    if (!m->halted()) {
        std::fprintf(stderr, "april: %s did not halt in %llu cycles\n",
                     o.spec.c_str(), (unsigned long long)o.maxCycles);
        return 2;
    }
    m->verifyCycleAccounting();
    const int64_t answer = w.answer(*m);

    uint32_t radix = 1;
    while (uint64_t(radix) * radix < m->numNodes())
        ++radix;
    std::string on = alewife ? std::to_string(radix) + "x" +
                                   std::to_string(radix) + " ALEWIFE"
                             : "perfect shared memory";
    std::printf("%s on %s: result %lld (expected %lld), %llu cycles",
                o.spec.c_str(), on.c_str(), (long long)answer,
                (long long)w.expected, (unsigned long long)m->cycle());
    if (alewife && alewife->hostThreads() > 1)
        std::printf(" (%u host threads)", alewife->hostThreads());
    std::printf("\n\n");

    auto write = [](const std::string &path, auto &&writer) {
        cli::writeReportFile("april", path, writer);
    };
    // A file straight from a row of the output table, then the fixed
    // tail april run has always put after that row.
    auto writeRow = [&](const std::string &path,
                        std::string RunOutputs::*row, const char *tail) {
        write(path, [&](std::ostream &os) {
            runOutput(row).write(*m, os);
            os << tail;
        });
    };
    // Taken at the halt: the reports cover the run up to MachineHalt,
    // not however long leftover workers keep spinning afterwards.
    if (o.prof) {
        profile::ProfileSource src = m->profileSource();
        profile::writeProfileText(std::cout, src, o.top ? o.top : 8);
        auto line = [&](void (*writer)(std::ostream &,
                                       const profile::ProfileSource &)) {
            return [&src, writer](std::ostream &os) {
                writer(os, src);
                os << "\n";
            };
        };
        writeRow(o.profFile, &RunOutputs::profile, "\n");
        write(o.foldedFile, line(profile::writeFolded));
        write(o.countersFile, line(profile::writeCounterTrace));
        writeRow(o.seriesFile, &RunOutputs::series, "\n");
    }
    if (o.task) {
        task::writeReportText(std::cout, m->taskReport());
        writeRow(o.taskFile, &RunOutputs::taskTrace, "\n");
    }
    writeRow(o.statsFile, &RunOutputs::stats, "\n");

    // Raw workloads go fully silent after the halt, so drain the
    // in-flight coherence traffic: the invalidation balance must then
    // hold exactly. Runtime-booted workloads never quiesce (idle
    // workers spin forever) and are reported at the committed halt.
    bool drained = false;
    if (o.coh) {
        if (w.boot)
            drained = m->quiesce(1'000'000);
        CohReportOptions ropt;
        ropt.topLines = ropt.topSharers = ropt.topTxns = ropt.topPairs =
            o.top ? o.top : 10;
        writeCohReportText(std::cout, *alewife, ropt);
        write(o.cohFile, [&](std::ostream &os) {
            writeCohReportJson(os, *alewife, ropt);
        });
        writeRow(o.txnsFile, &RunOutputs::cohTrace, "");
    }
    writeRow(o.perfettoFile, &RunOutputs::trace, "");

    int rc = 0;
    if (o.verify && !verifyCoherence(*alewife, drained))
        rc = 1;
    if (answer != w.expected) {
        std::fprintf(stderr, "april: %s answered %lld, expected %lld\n",
                     o.spec.c_str(), (long long)answer,
                     (long long)w.expected);
        rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (mode == "run") {
            RunOptions o;
            if (!parseRun(argc - 2, argv + 2, o))
                return usage();
            return runWorkload(o);
        }
        if (mode == "check" && (args.size() == 2 || args.size() == 3)) {
            std::string schema;
            if (args.size() == 3) {
                const char *v = cli::optValue(args[2], "--schema=");
                if (!v)
                    return usage();
                schema = v;
            }
            return runCheck(args[0], args[1], schema);
        }
        if (mode == "diff" && args.size() == 3)
            return runDiff(args[0], args[1], args[2]);
        return usage();
    } catch (const SimError &) {
        return 2;       // fatal()/panic() already reported it
    } catch (const std::exception &e) {
        std::fprintf(stderr, "april: %s\n", e.what());
        return 2;
    }
}
