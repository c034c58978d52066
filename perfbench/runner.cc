/**
 * @file
 * Benchmark runner: one workload, closed loop, in this process.
 *
 * A pass runs the workload's programs one after another through the
 * public compile -> assemble -> construct -> run -> serialize calls,
 * each on a freshly constructed machine with one host thread, under
 * each of the workload's machine seeds derived from --seed. Passes
 * repeat until the next one would overrun --seconds; the reported
 * end-to-end metrics are medians over passes. Every host timing except
 * wall_s is process CPU time (CLOCK_PROCESS_CPUTIME_ID), which leaves
 * out time lost to being descheduled on a shared host. A fixed
 * reference workload timed between passes measures how fast the host
 * runs; reported host times are scaled to a nominal host speed by it.
 *
 * Each program is one op. It fails when its answer differs from the
 * C++ oracle, it does not halt within the cycle budget, the cycle
 * accounting does not verify, an observed plane dropped events, its
 * stats digest differs from the first pass's, or anything throws.
 *
 * With --trace 1 the runner also keeps spans (name, start, end,
 * parent, program; start/end in process CPU seconds), writes them to
 * --spans as JSON at exit, and reports the per-layer metrics instead.
 * Traced passes alternate with untraced ones so the span overhead is
 * measured in the same process.
 *
 * Output: one "program ..." line per program and machine seed with its
 * simulated cycles and the FNV-1a digest of its stats JSON, then one
 * JSON result line. Per-pass host times go to standard error.
 * Exit status: 0 when every op passed, 1 when one failed, 2 on usage
 * errors.
 *
 * Usage: perfbench_runner --workload NAME [--seed N] [--seconds S]
 *                         [--trace 0|1] [--spans FILE]
 */

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/digest.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "machine/alewife_machine.hh"
#include "machine/perfect_machine.hh"
#include "mult/compiler.hh"
#include "profile/report.hh"
#include "runtime/layout.hh"
#include "runtime/runtime.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;

// ---------------------------------------------------------------------
// Host clocks and memory
// ---------------------------------------------------------------------

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Current resident set in MB (0 when /proc is unavailable). */
double
rssMb()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    if (!(statm >> size >> resident))
        return 0;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is in KB
}

// ---------------------------------------------------------------------
// Host-speed reference
//
// A fixed piece of work that no change to the simulator can move: some
// branchy integer work in a table that fits in L2 (like the
// interpreter's run) and faulting in fresh pages (like a machine's
// construction). Its CPU time tracks how fast the host runs right now.
// ---------------------------------------------------------------------

/// CPU seconds the reference takes on the nominal host, about what it
/// took on the quiet tuning host. Host times are reported at this speed.
constexpr double kRefNominalS = 0.032;

/// Work table of the compute reference: static, so the child that runs
/// it allocates nothing, and untouched (not resident) in this process.
uint32_t refTable[1u << 16];

/** CPU seconds of fixed branchy integer work over a 256 KB table. */
double
refCompute()
{
    uint32_t seed = 12345;
    for (uint32_t &v : refTable)
        v = seed = seed * 1664525u + 1013904223u;
    uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
    const double t0 = cpuNow();
    for (int i = 0; i < 1'500'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint32_t v = refTable[x & 0xffff];
        switch (v & 7) {
          case 0: acc += v; break;
          case 1: acc ^= uint64_t(v) << 3; break;
          case 2: acc -= v >> 2; break;
          case 3: acc = acc * 3 + v; break;
          case 4: acc += x >> 40; break;
          default: acc ^= v; break;
        }
        refTable[(x >> 20) & 0xffff] = v + uint32_t(acc);
    }
    const double t = cpuNow() - t0;
    refTable[0] = uint32_t(acc);
    return t;
}

/** CPU seconds to fault in and release 32 MB of fresh pages. */
double
refFault()
{
    const size_t bytes = size_t(32) << 20;
    const size_t page = size_t(sysconf(_SC_PAGESIZE));
    const double t0 = cpuNow();
    void *mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        return 0;
    for (size_t off = 0; off < bytes; off += page)
        static_cast<volatile char *>(mem)[off] = 1;
    munmap(mem, bytes);
    return cpuNow() - t0;
}

struct HostRef
{
    double compute = 0;
    double fault = 0;

    double total() const { return compute + fault; }
};

/**
 * Time the reference work in a child process, so it leaves this
 * process's heap and peak RSS alone. Each part is the mean of five
 * repetitions: the mean, unlike the fastest, slows when the host does.
 */
HostRef
measureHostRef()
{
    int fd[2];
    if (pipe(fd) != 0)
        fatal("perfbench: pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        fatal("perfbench: fork failed");
    if (pid == 0) {
        close(fd[0]);
        HostRef r;
        for (int i = 0; i < 5; ++i) {
            r.compute += refCompute() / 5;
            r.fault += refFault() / 5;
        }
        const bool ok = write(fd[1], &r, sizeof r) == ssize_t(sizeof r);
        _exit(ok ? 0 : 1);
    }
    close(fd[1]);
    HostRef r;
    const bool ok = read(fd[0], &r, sizeof r) == ssize_t(sizeof r);
    close(fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !(r.compute > 0) || !(r.fault > 0))
        fatal("perfbench: host reference failed");
    return r;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct SpanRec
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::string program;
};

/**
 * Times every call it wraps; keeps the span only while recording is
 * on, so untraced passes pay for the clock reads alone.
 */
class Timeline
{
  public:
    bool recording = false;
    std::string program;            ///< stamped on every new span

    /** Run @p fn as span @p name; @return its CPU seconds. */
    template <typename Fn>
    double
    span(const char *name, Fn &&fn)
    {
        int id = -1;
        const int saved = current;
        const double t0 = cpuNow();
        if (recording) {
            id = int(recs.size());
            recs.push_back({name, t0, t0, current, program});
            current = id;
        }
        struct Restore
        {
            int &cur;
            int saved;
            ~Restore() { cur = saved; }
        } restore{current, saved};
        fn();
        const double t1 = cpuNow();
        if (id >= 0)
            recs[size_t(id)].end = t1;
        return t1 - t0;
    }

    const std::vector<SpanRec> &spans() const { return recs; }

  private:
    std::vector<SpanRec> recs;
    int current = -1;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Machine { Perfect, Alewife, Coherent };

struct WorkloadSpec
{
    const char *name;
    Machine machine;
    bool observed;      ///< trace, cohTrace, taskTrace, profile on
    /// Machine seeds per pass, all derived from --seed. Steal-victim
    /// choices move a Table-3 program's cycles by a few percent from
    /// seed to seed; running each program under several seeds per
    /// pass keeps that from swamping the host timings. The observed
    /// workload runs two, so that three or more of its passes fit in a
    /// 28 s run.
    uint64_t seedsPerPass;
};

const WorkloadSpec kWorkloads[] = {
    {"table3_perfect16", Machine::Perfect, false, 4},
    {"table3_alewife16", Machine::Alewife, false, 4},
    {"coherent16", Machine::Coherent, false, 4},
    {"table3_alewife16_observed", Machine::Alewife, true, 2},
};

constexpr uint32_t kNodes = 16;
/// Table-3 machines use DriverOptions' default memory (2M words/node).
constexpr uint32_t kTable3Words = 1u << 21;
constexpr uint32_t kCoherentWords = 1u << 16;
constexpr uint32_t kCoherentIters = 100;
/// Cycle budget per program: about 10x the longest program's run.
constexpr uint64_t kMaxCycles = 10'000'000;

/** Per-program sums: layer seconds, sizes, simulated counts. */
using Sums = std::map<std::string, double>;

/** Keys combined across programs by max instead of sum. */
bool
isPeak(const std::string &key)
{
    return key == "machine.construct_rss_mb" ||
           key == "coherence.inbox_peak";
}

void
accumulate(Sums &into, const Sums &from)
{
    for (const auto &[k, v] : from) {
        double &dst = into[k];
        dst = isPeak(k) ? std::max(dst, v) : dst + v;
    }
}

/** What the program being run needs to know about its pass. */
struct Context
{
    Machine machine = Machine::Perfect;
    bool observed = false;
    uint64_t machineSeed = 0;
    Timeline tl;
};

double
statValue(const stats::Group &g, const std::string &path)
{
    const stats::Info *info = g.resolve(path);
    if (!info)
        fatal("perfbench: no statistic ", path);
    return info->summaryValue();
}

/** Sum and sample count of a mean-valued statistic. */
std::pair<double, double>
statMean(const stats::Group &g, const std::string &path)
{
    const stats::Info *info = g.resolve(path);
    if (auto *a = dynamic_cast<const stats::Average *>(info))
        return {a->sum(), double(a->count())};
    if (auto *h = dynamic_cast<const stats::Histogram *>(info))
        return {h->mean() * double(h->count()), double(h->count())};
    fatal("perfbench: ", path, " is not a mean-valued statistic");
}

/** The word at @p a as the coherent image holds it: a Modified copy
 *  in some cache wins over the backing store. */
Word
coherentRead(AlewifeMachine &m, Addr a)
{
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        cache::Cache &c = m.controller(n).cacheRef();
        const cache::CacheLine *line = c.find(c.lineOf(a));
        if (line && line->state == cache::LineState::Modified)
            return line->words[c.offsetOf(a)].data;
    }
    return m.memory().read(a);
}

/** A run-time counter summed over nodes. AlewifeMachine::runtimeCounter
 *  reads the backing store only, which misses counts still sitting in
 *  Modified cache lines, so the ALEWIFE sum reads coherently. */
uint64_t
runtimeCount(PerfectMachine &m, int slot)
{
    return m.runtimeCounter(slot);
}

uint64_t
runtimeCount(AlewifeMachine &m, int slot)
{
    uint64_t total = 0;
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        total += coherentRead(
            m, m.memory().nodeBase(n) + rt::nodeBlockOff + Addr(slot));
    }
    return total;
}

/** Simulated cycles, instructions and the utilization numerator:
 *  end-to-end inputs read on every pass. */
template <typename M>
void
simCounts(M &m, Sums &s)
{
    s["sim.cycles"] += double(m.cycle());
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        Processor &p = m.proc(n);
        s["sim.insts"] += p.statInsts.value();
        s["sim.node_cycles"] += p.statCycles.value();
        s["sim.useful_hazard"] +=
            double(p.bucketCycles(profile::Bucket::Useful) +
                   p.bucketCycles(profile::Bucket::Hazard));
    }
}

/** The always-on stats tree, summed over nodes (traced passes). */
template <typename M>
void
layerCounts(const Context &ctx, M &m, Sums &s)
{
    constexpr bool alewife = std::is_same_v<M, AlewifeMachine>;
    static const std::pair<const char *, const char *> kProc[] = {
        {"proc.insts", "insts"},
        {"proc.cycles_useful", "cyclesUseful"},
        {"proc.cycles_switch", "cyclesSwitch"},
        {"proc.cycles_trap", "cyclesTrap"},
        {"proc.cycles_local_miss", "cyclesLocalMiss"},
        {"proc.cycles_idle", "cyclesIdle"},
        {"proc.cycles_hazard", "cyclesHazard"},
        {"proc.context_switches", "contextSwitches"},
        {"proc.traps_remote_miss", "trapsRemoteMiss"},
        {"proc.traps_future", "trapsFutureCompute"},
        {"proc.traps_future", "trapsFutureMemory"},
        {"proc.traps_fe", "trapsFeEmpty"},
        {"proc.traps_fe", "trapsFeFull"},
    };
    static const std::pair<const char *, const char *> kCtrl[] = {
        {"cache.hits", "cache.hits"},
        {"cache.misses", "cache.misses"},
        {"cache.evictions", "cache.evictions"},
        {"coherence.local_misses", "localMisses"},
        {"coherence.remote_misses", "remoteMisses"},
        {"coherence.invalidations", "invalidations"},
        {"coherence.writebacks", "writebacks"},
    };
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        const std::string proc = "proc" + std::to_string(n) + ".";
        for (const auto &[key, stat] : kProc)
            s[key] += statValue(m, proc + stat);
        if constexpr (!alewife)
            continue;
        const std::string ctrl = "ctrl" + std::to_string(n) + ".";
        for (const auto &[key, stat] : kCtrl)
            s[key] += statValue(m, ctrl + stat);
        auto [sum, count] = statMean(m, ctrl + "remoteLatency");
        s["coherence.remote_latency_sum"] += sum;
        s["coherence.remote_latency_n"] += count;
        s["coherence.inbox_peak"] = std::max(
            s["coherence.inbox_peak"], statValue(m, ctrl + "inboxPeak"));
    }
    if constexpr (alewife) {
        s["network.packets"] += statValue(m, "network.packets");
        s["network.flit_hops"] += statValue(m, "network.flitHops");
        auto [lsum, lcount] = statMean(m, "network.latency");
        auto [hsum, hcount] = statMean(m, "network.hops");
        s["network.latency_sum"] += lsum;
        s["network.latency_n"] += lcount;
        s["network.hops_sum"] += hsum;
        s["network.hops_n"] += hcount;
    }
    if (ctx.machine == Machine::Coherent)
        return;     // no Mul-T runtime, so no node block to read
    s["runtime.spawns"] += double(runtimeCount(m, rt::nb::statSpawns));
    s["runtime.steals"] += double(runtimeCount(m, rt::nb::statSteals));
    s["runtime.blocks"] += double(runtimeCount(m, rt::nb::statBlocks));
    s["runtime.resumes"] += double(runtimeCount(m, rt::nb::statResumes));
}

/** One program's outcome. */
struct ProgramRun
{
    std::string name;
    uint64_t machineSeed = 0;
    std::string error;          ///< empty when the op passed
    uint64_t cycles = 0;
    uint64_t digest = 0;        ///< FNV-1a of the stats JSON
    Sums sums;
};

/** Serialize @p write into a string under span @p name; record its
 *  seconds and, when @p mbKey is set, its size. */
template <typename Fn>
void
writePlane(Context &ctx, ProgramRun &r, const char *name,
           const char *secondsKey, const char *mbKey, Fn &&write)
{
    std::string out;
    r.sums[secondsKey] += ctx.tl.span(name, [&] {
        std::ostringstream os;
        write(os);
        out = os.str();
    });
    if (mbKey)
        r.sums[mbKey] += double(out.size()) / 1048576.0;
    if (out.empty())
        r.error = std::string(name) + " wrote nothing";
}

/**
 * The shared tail of every program: run, check, serialize, verify,
 * count, destroy. @p check returns an error string for a wrong answer.
 */
template <typename M, typename Check>
void
finishProgram(Context &ctx, std::unique_ptr<M> &m, ProgramRun &r,
              Check &&check)
{
    r.sums["machine.run_s"] +=
        ctx.tl.span("machine.run", [&] { m->run(kMaxCycles); });
    if (!m->halted()) {
        r.error = "did not halt within " + std::to_string(kMaxCycles) +
                  " cycles";
        return;
    }
    r.error = check(*m);
    if (!r.error.empty())
        return;
    r.cycles = m->cycle();
    simCounts(*m, r.sums);

    std::string json;
    r.sums["machine.stats_json_s"] += ctx.tl.span("machine.stats_json", [&] {
        std::ostringstream os;
        m->dumpJson(os);
        json = os.str();
    });
    Digest d;
    d.addString(json);
    r.digest = d.value();

    r.sums["profile.verify_s"] += ctx.tl.span(
        "profile.verify", [&] { m->verifyCycleAccounting(); });

    if (ctx.observed) {
        writePlane(ctx, r, "trace.write", "trace.write_s", "trace.json_mb",
                   [&](std::ostream &os) { m->writeTrace(os); });
        if constexpr (std::is_same_v<M, AlewifeMachine>) {
            writePlane(ctx, r, "coherence.txn_write",
                       "coherence.txn_write_s", "coherence.txn_json_mb",
                       [&](std::ostream &os) { m->writeCohTrace(os); });
            r.sums["obs.coh_dropped"] += statValue(*m, "cohTraceDropped");
        }
        writePlane(ctx, r, "task.write", "task.write_s", nullptr,
                   [&](std::ostream &os) { m->writeTaskTrace(os); });
        writePlane(ctx, r, "profile.write", "profile.write_s", nullptr,
                   [&](std::ostream &os) {
                       profile::writeProfileJson(os, m->profileSource());
                   });
        r.sums["obs.trace_dropped"] += statValue(*m, "traceDropped");
        r.sums["obs.task_dropped"] += statValue(*m, "taskTraceDropped");
        if (r.sums["obs.trace_dropped"] + r.sums["obs.coh_dropped"] +
                r.sums["obs.task_dropped"] > 0 && r.error.empty())
            r.error = "an observability plane dropped events";
    }

    if (ctx.tl.recording)
        ctx.tl.span("bench.counts",
                    [&] { layerCounts(ctx, *m, r.sums); });
    r.sums["machine.destroy_s"] +=
        ctx.tl.span("machine.destroy", [&] { m.reset(); });
}

/** Mul-T front end: runtime + program into one image. */
Program
compileMulT(Context &ctx, const std::string &source, ProgramRun &r)
{
    Assembler as;
    r.sums["mult.compile_s"] += ctx.tl.span("mult.compile", [&] {
        rt::Runtime runtime(rt::RuntimeOptions{});
        runtime.emit(as);
        mult::CompileOptions copts;
        copts.futures = mult::CompileOptions::FutureMode::Lazy;
        mult::Compiler compiler(as, copts);
        compiler.compileSource(source);
    });
    Program prog;
    r.sums["isa.assemble_s"] +=
        ctx.tl.span("isa.assemble", [&] { prog = as.finish(); });
    return prog;
}

/** Run @p build as the construct span; record its resident growth. */
template <typename Fn>
void
construct(Context &ctx, ProgramRun &r, Fn &&build)
{
    const double rss0 = rssMb();
    r.sums["machine.construct_s"] += ctx.tl.span("machine.construct", build);
    r.sums["machine.construct_rss_mb"] = rssMb() - rss0;
}

void
runTable3(Context &ctx, const workloads::Benchmark &b, ProgramRun &r)
{
    const Program prog = compileMulT(ctx, b.source, r);
    auto check = [&](auto &m) -> std::string {
        if (m.console().empty())
            return "no boot output";
        const int64_t got = tagged::toInt(m.console().back());
        if (got != b.expected) {
            return "answer " + std::to_string(got) + ", expected " +
                   std::to_string(b.expected);
        }
        return {};
    };
    if (ctx.machine == Machine::Perfect) {
        PerfectMachineParams mp;
        mp.numNodes = kNodes;
        mp.wordsPerNode = kTable3Words;
        mp.seed = ctx.machineSeed;
        std::unique_ptr<PerfectMachine> m;
        construct(ctx, r, [&] {
            m = std::make_unique<PerfectMachine>(mp, &prog);
        });
        finishProgram(ctx, m, r, check);
        return;
    }
    AlewifeParams ap;
    ap.network = {.dim = 2, .radix = 4};
    ap.wordsPerNode = kTable3Words;
    ap.seed = ctx.machineSeed;
    ap.hostThreads = 1;
    // The planes keep their default event caps; an op that overflows
    // one fails, since it would measure a truncated plane.
    ap.traceEvents = ap.cohTrace = ap.taskTrace = ap.profile = ctx.observed;
    std::unique_ptr<AlewifeMachine> m;
    construct(ctx, r,
              [&] { m = std::make_unique<AlewifeMachine>(ap, &prog); });
    finishProgram(ctx, m, r, check);
}

void
runCoherent(Context &ctx, ProgramRun &r)
{
    workloads::CoherentLoop loop;
    r.sums["isa.assemble_s"] += ctx.tl.span("isa.assemble", [&] {
        loop = workloads::buildCoherentLoop(kNodes, kCoherentIters);
    });
    AlewifeParams ap;
    ap.network = {.dim = 2, .radix = 4};
    ap.wordsPerNode = kCoherentWords;
    ap.bootRuntime = false;
    ap.seed = ctx.machineSeed;
    ap.hostThreads = 1;
    ap.controller.cache = {.lineWords = 4, .numLines = 64, .assoc = 2};
    std::unique_ptr<AlewifeMachine> m;
    construct(ctx, r, [&] {
        m = std::make_unique<AlewifeMachine>(ap, &loop.prog);
        for (uint32_t n = 0; n < m->numNodes(); ++n)
            workloads::bootCoherentNode(m->proc(n), loop.prog);
        m->memory().write(loop.count, tagged::fixnum(0));
    });
    finishProgram(ctx, m, r, [&](AlewifeMachine &mm) -> std::string {
        const int32_t want = int32_t(loop.nodes * loop.iters);
        const int32_t got = tagged::toInt(coherentRead(mm, loop.count));
        if (got != want) {
            return "counter " + std::to_string(got) + ", expected " +
                   std::to_string(want);
        }
        return {};
    });
}

// ---------------------------------------------------------------------
// Passes and metrics
// ---------------------------------------------------------------------

struct Pass
{
    bool traced = false;
    bool observed = false;
    double wall = 0;
    double cpu = 0;
    double covered = 0;     ///< CPU seconds inside layer spans
    Sums sums;              ///< host times are the keys ending in "_s"
    std::vector<ProgramRun> programs;

    /** Scale every host time of the pass by @p k. */
    void
    scaleHostTimes(double k)
    {
        wall *= k;
        cpu *= k;
        covered *= k;
        for (auto &[key, v] : sums)
            if (key.ends_with("_s"))
                v *= k;
    }
};

class Runner
{
  public:
    Runner(const WorkloadSpec &spec, uint64_t seed)
    {
        ctx.machine = spec.machine;
        for (uint64_t i = 0; i < spec.seedsPerPass; ++i)
            machineSeeds.push_back(deriveSeed(seed, i));
        if (spec.machine != Machine::Coherent) {
            const workloads::SuiteSizes sizes;
            table3 = {workloads::makeFib(sizes),
                      workloads::makeFactor(sizes),
                      workloads::makeQueens(sizes),
                      workloads::makeSpeech(sizes)};
        }
    }

    /** One pass over the workload's programs. */
    Pass
    runPass(bool traced, bool observed)
    {
        ctx.observed = observed;
        ctx.tl.recording = traced;

        Pass p;
        p.traced = traced;
        p.observed = observed;
        const size_t first = ctx.tl.spans().size();
        const double w0 = wallNow();
        p.cpu = ctx.tl.span("pass", [&] {
            for (uint64_t seed : machineSeeds) {
                if (ctx.machine == Machine::Coherent) {
                    p.programs.push_back(runGuarded(
                        "coherent16", seed,
                        [&](auto &r) { runCoherent(ctx, r); }));
                }
                for (const auto &b : table3) {
                    p.programs.push_back(runGuarded(
                        b.name, seed,
                        [&](auto &r) { runTable3(ctx, b, r); }));
                }
            }
        });
        p.wall = wallNow() - w0;
        for (const auto &r : p.programs)
            accumulate(p.sums, r.sums);
        // Layer spans are the children of program spans; the runner's
        // own stats reads are not a layer of the simulator.
        const auto &spans = ctx.tl.spans();
        for (size_t i = first; i < spans.size(); ++i) {
            const int parent = spans[i].parent;
            if (parent >= 0 && spans[size_t(parent)].name == "program" &&
                spans[i].name != "bench.counts")
                p.covered += spans[i].end - spans[i].start;
        }
        ctx.tl.recording = false;
        return p;
    }

    const Timeline &timeline() const { return ctx.tl; }

  private:
    template <typename Fn>
    ProgramRun
    runGuarded(const std::string &name, uint64_t machineSeed, Fn &&fn)
    {
        ProgramRun r;
        r.name = name;
        r.machineSeed = ctx.machineSeed = machineSeed;
        ctx.tl.program = name;
        try {
            ctx.tl.span("program", [&] { fn(r); });
        } catch (const std::exception &e) {
            r.error = e.what();
        }
        ctx.tl.program.clear();
        return r;
    }

    Context ctx;
    std::vector<uint64_t> machineSeeds;
    std::vector<workloads::Benchmark> table3;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over @p passes of @p f. */
template <typename F>
double
medianOf(const std::vector<const Pass *> &passes, F &&f)
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(f(*p));
    return median(v);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** A pass sum; 0 when no program of the pass recorded @p key. */
double
sumOf(const Pass &p, const std::string &key)
{
    auto it = p.sums.find(key);
    return it == p.sums.end() ? 0.0 : it->second;
}

/** Compile + assemble + construct: the pass's set-up. */
double
setupSeconds(const Pass &p)
{
    return sumOf(p, "mult.compile_s") + sumOf(p, "isa.assemble_s") +
           sumOf(p, "machine.construct_s");
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::vector<Metric>
endToEnd(const std::vector<const Pass *> &passes)
{
    auto med = [&](auto &&f) { return medianOf(passes, f); };
    return {
        {"setup_s", med(setupSeconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles",
         med([](const Pass &p) { return sumOf(p, "sim.cycles"); }), "cycles"},
        {"sim_utilization",
         med([](const Pass &p) {
             return ratio(sumOf(p, "sim.useful_hazard"),
                          sumOf(p, "sim.node_cycles"));
         }),
         "ratio"},
    };
}

/**
 * Host time and speed of untraced passes. They are per-layer metrics,
 * not end-to-end ones: on a shared host their run-to-run noise can be
 * wider than any bound a regression gate could use (see README.md).
 */
std::vector<Metric>
hostTimes(const std::vector<const Pass *> &passes)
{
    auto med = [&](auto &&f) { return medianOf(passes, f); };
    auto perRunSecond = [&](const char *key) {
        return med([key](const Pass &p) {
            return ratio(sumOf(p, key), sumOf(p, "machine.run_s"));
        });
    };
    return {
        {"host.wall_s", med([](const Pass &p) { return p.wall; }), "s"},
        {"host.cpu_s", med([](const Pass &p) { return p.cpu; }), "s"},
        {"host.run_s",
         med([](const Pass &p) { return sumOf(p, "machine.run_s"); }), "s"},
        {"host.sim_cycles_per_s", perRunSecond("sim.cycles"), "1/s"},
        {"host.sim_insts_per_s", perRunSecond("sim.insts"), "1/s"},
    };
}

std::vector<Metric>
perLayer(const std::vector<const Pass *> &traced,
         const std::vector<const Pass *> &untraced,
         const std::vector<const Pass *> &plain, double refSeconds)
{
    auto med = [&](const std::string &key) {
        return medianOf(traced,
                        [&](const Pass &p) { return sumOf(p, key); });
    };
    auto medRatio = [&](const std::string &num, const std::string &den,
                        double scale = 1.0) {
        return medianOf(traced, [&](const Pass &p) {
            return scale * ratio(sumOf(p, num), sumOf(p, den));
        });
    };
    std::vector<Metric> out;
    for (const char *k :
         {"mult.compile_s", "isa.assemble_s", "machine.construct_s"})
        out.push_back({k, med(k), "s"});
    out.push_back(
        {"machine.construct_rss_mb", med("machine.construct_rss_mb"), "MB"});
    out.push_back({"machine.run_s", med("machine.run_s"), "s"});
    out.push_back({"machine.host_ns_per_node_cycle",
                   medRatio("machine.run_s", "sim.node_cycles", 1e9), "ns"});
    out.push_back({"proc.host_ns_per_inst",
                   medRatio("machine.run_s", "sim.insts", 1e9), "ns"});
    for (const char *k : {"machine.stats_json_s", "profile.verify_s",
                          "machine.destroy_s", "trace.write_s"})
        out.push_back({k, med(k), "s"});
    out.push_back({"trace.json_mb", med("trace.json_mb"), "MB"});
    out.push_back({"coherence.txn_write_s", med("coherence.txn_write_s"),
                   "s"});
    out.push_back({"coherence.txn_json_mb", med("coherence.txn_json_mb"),
                   "MB"});
    out.push_back({"task.write_s", med("task.write_s"), "s"});
    out.push_back({"profile.write_s", med("profile.write_s"), "s"});
    // Observed run() over plain run(); 0 when the workload has no
    // plain passes to compare against.
    const double plainRun = medianOf(
        plain, [](const Pass &p) { return sumOf(p, "machine.run_s"); });
    out.push_back({"obs.run_overhead",
                   plain.empty() ? 0.0
                                 : ratio(med("machine.run_s"), plainRun),
                   "ratio"});
    for (const char *k :
         {"obs.trace_dropped", "obs.coh_dropped", "obs.task_dropped",
          "proc.insts", "proc.cycles_useful", "proc.cycles_switch",
          "proc.cycles_trap", "proc.cycles_local_miss", "proc.cycles_idle",
          "proc.cycles_hazard", "proc.context_switches",
          "proc.traps_remote_miss", "proc.traps_future", "proc.traps_fe",
          "cache.hits", "cache.misses"})
        out.push_back({k, med(k), "count"});
    out.push_back(
        {"cache.hit_ratio",
         medianOf(traced,
                  [&](const Pass &p) {
                      return ratio(sumOf(p, "cache.hits"),
                                   sumOf(p, "cache.hits") +
                                       sumOf(p, "cache.misses"));
                  }),
         "ratio"});
    for (const char *k : {"cache.evictions", "coherence.local_misses",
                          "coherence.remote_misses"})
        out.push_back({k, med(k), "count"});
    out.push_back({"coherence.remote_latency_mean",
                   medRatio("coherence.remote_latency_sum",
                            "coherence.remote_latency_n"),
                   "cycles"});
    for (const char *k :
         {"coherence.invalidations", "coherence.writebacks",
          "coherence.inbox_peak", "network.packets", "network.flit_hops"})
        out.push_back({k, med(k), "count"});
    out.push_back({"network.latency_mean",
                   medRatio("network.latency_sum", "network.latency_n"),
                   "cycles"});
    out.push_back({"network.hops_mean",
                   medRatio("network.hops_sum", "network.hops_n"), "hops"});
    for (const char *k : {"runtime.spawns", "runtime.steals",
                          "runtime.blocks", "runtime.resumes"})
        out.push_back({k, med(k), "count"});
    // Lazy futures spawn no eager tasks, so steals are normalised by
    // the work done instead of by spawns.
    out.push_back({"runtime.steals_per_kinst",
                   medRatio("runtime.steals", "proc.insts", 1e3), "ratio"});
    const double cpuTraced =
        medianOf(traced, [](const Pass &p) { return p.cpu; });
    const double cpuUntraced =
        medianOf(untraced, [](const Pass &p) { return p.cpu; });
    out.push_back({"span.overhead_s", cpuTraced - cpuUntraced, "s"});
    out.push_back({"span.uncovered_share",
                   medianOf(traced,
                            [](const Pass &p) {
                                return ratio(p.cpu - p.covered, p.cpu);
                            }),
                   "ratio"});
    for (const Metric &m : hostTimes(untraced))
        out.push_back(m);
    out.push_back({"host.ref_s", refSeconds, "s"});
    return out;
}

void
writeSpans(const std::string &path, const WorkloadSpec &spec,
           uint64_t seed, const Timeline &tl)
{
    std::ofstream os(path);
    if (!os)
        fatal("perfbench: cannot write ", path);
    os << "{\"workload\":\"" << spec.name << "\",\"seed\":" << seed
       << ",\"clock\":\"process_cpu_s\",\"spans\":[";
    const auto &spans = tl.spans();
    char buf[64];
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start\":";
        std::snprintf(buf, sizeof buf, "%.9f", s.start);
        os << buf << ",\"end\":";
        std::snprintf(buf, sizeof buf, "%.9f", s.end);
        os << buf << ",\"parent\":" << s.parent << ",\"program\":\""
           << s.program << "\"}";
    }
    os << "\n]}\n";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans FILE]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val, &end, 10);
            if (!*val || *end)
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            seconds = std::strtod(val, &end);
            if (!*val || *end || !(seconds > 0) || seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace takes 0 or 1");
            trace = val[0] == '1';
        } else if (arg == "--spans") {
            spansPath = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : kWorkloads)
        if (workload == w.name)
            spec = &w;
    if (!spec)
        usage(("unknown workload '" + workload + "'").c_str());

    // Setting the mmap threshold, here to glibc's initial 128 KB, stops
    // glibc from raising it to the sizes earlier passes freed. Every
    // pass then allocates (and reaches peak RSS) the way the first pass
    // of a fresh process does, not by allocator history.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    QuietScope quiet;
    Runner runner(*spec, seed);

    // Pass kinds cycle in trace mode: traced, untraced (span overhead)
    // and, on the observed workload, plain traced (obs.run_overhead).
    std::vector<std::pair<bool, bool>> kinds = {{trace, spec->observed}};
    if (trace) {
        kinds.push_back({false, spec->observed});
        if (spec->observed)
            kinds.push_back({true, false});
    }
    // Host speed drifts on a shared virtual machine, by up to 2x over
    // tens of minutes on the one this was tuned on, and CPU time does
    // not remove that. So the host reference runs before the first pass
    // and after each one, and every host time is scaled to the nominal
    // host speed by the median reference sample of the run. Standard
    // error gets the raw times.
    std::vector<Pass> passes;
    const double start = wallNow();
    std::vector<double> refs = {measureHostRef().total()};
    double longest = 0;
    while (passes.size() < kinds.size() ||
           wallNow() - start + longest <= seconds) {
        const double w0 = wallNow();
        const auto [traced, observed] = kinds[passes.size() % kinds.size()];
        passes.push_back(runner.runPass(traced, observed));
        const HostRef ref = measureHostRef();
        refs.push_back(ref.total());
        longest = std::max(longest, wallNow() - w0);
        const Pass &p = passes.back();
        std::fprintf(stderr,
                     "pass %zu%s%s wall=%.4f cpu=%.4f setup=%.4f run=%.4f "
                     "ref=%.5f (compute %.5f, fault %.5f)\n",
                     passes.size(), traced ? " traced" : "",
                     observed == spec->observed ? "" : " plain", p.wall,
                     p.cpu, setupSeconds(p), sumOf(p, "machine.run_s"),
                     ref.total(), ref.compute, ref.fault);
    }
    const double refSeconds = median(refs);
    std::fprintf(stderr,
                 "host reference %.5f s (median of %zu), scale %.4f\n",
                 refSeconds, refs.size(), kRefNominalS / refSeconds);
    for (Pass &p : passes)
        p.scaleHostTimes(kRefNominalS / refSeconds);

    // Checks: every op passed, and each configuration's simulated
    // results repeat exactly, pass to pass.
    uint64_t attempted = 0, failed = 0;
    std::map<std::tuple<bool, std::string, uint64_t>,
             std::pair<uint64_t, uint64_t>>
        firstSeen;
    for (Pass &p : passes) {
        for (ProgramRun &r : p.programs) {
            ++attempted;
            if (r.error.empty()) {
                auto [it, fresh] = firstSeen.try_emplace(
                    {p.observed, r.name, r.machineSeed}, r.cycles,
                    r.digest);
                if (!fresh && it->second != std::pair(r.cycles, r.digest))
                    r.error = "simulated results differ between passes";
                else if (fresh) {
                    std::printf("program %s%s seed=%016llx cycles=%llu "
                                "stats_fnv=%016llx\n",
                                r.name.c_str(),
                                p.observed == spec->observed ? ""
                                                             : " (plain)",
                                (unsigned long long)r.machineSeed,
                                (unsigned long long)r.cycles,
                                (unsigned long long)r.digest);
                }
            }
            if (!r.error.empty()) {
                ++failed;
                std::fprintf(stderr, "perfbench: %s (%s): %s\n",
                             r.name.c_str(), spec->name, r.error.c_str());
            }
        }
    }

    std::vector<const Pass *> measured, untraced, plain;
    for (const Pass &p : passes) {
        if (p.observed != spec->observed)
            plain.push_back(&p);
        else if (p.traced == trace)
            measured.push_back(&p);
        else
            untraced.push_back(&p);
    }
    const std::vector<Metric> metrics =
        trace ? perLayer(measured, untraced, plain, refSeconds)
              : endToEnd(measured);
    if (trace && !spansPath.empty())
        writeSpans(spansPath, *spec, seed, runner.timeline());
    if (!trace) {
        for (const Metric &m : hostTimes(measured))
            std::fprintf(stderr, "%s %.6g %s\n", m.name.c_str(), m.value,
                         m.unit);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed ? "false" : "true", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    return failed ? 1 : 0;
}
