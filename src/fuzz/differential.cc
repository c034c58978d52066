#include "fuzz/differential.hh"

#include <memory>
#include <sstream>

#include "machine/alewife_machine.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"
#include "profile/report.hh"

namespace april::fuzz
{

namespace
{

struct AlewifeRun
{
    std::unique_ptr<AlewifeMachine> machine;
    MachineSnapshot snap;
    std::string stats;
    std::string trace;
    std::string cohTrace;       ///< transaction-span JSON (always on)
    std::string taskTrace;      ///< task-plane report JSON (always on)
    std::string breakdown;      ///< profile::cycleBreakdownJson
    std::string error;          ///< hang / failed quiesce
};

/** One machine-shape variant of the dirScheme x mesh axis. */
struct Variant
{
    const char *name = "FullMap";
    coh::DirScheme scheme = coh::DirScheme::FullMap;
    uint32_t ptrs = 4;
    int dim = 0;        ///< 0: the case's own mesh shape
    int radix = 0;
};

/** The settings every machine of case @p c shares. */
void
configure(MachineParams &p, const FuzzCase &c)
{
    p.wordsPerNode = c.wordsPerNode;
    p.proc.numFrames = c.numFrames;
    p.seed = c.seed;
    p.bootRuntime = false;
}

/** Seed @p m's memory and point its cores at the case's entries. */
void
bootCase(Machine &m, const FuzzCase &c, const Program &prog)
{
    applyMemInit(c, m.memory());
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        bootFuzzProcessor(m.proc(n), prog);
}

AlewifeRun
runAlewife(const FuzzCase &c, const Program &prog, bool cycle_skip,
           const DiffOptions &opts, uint32_t host_threads = 1,
           const Variant &v = {})
{
    AlewifeRun run;
    AlewifeParams p;
    configure(p, c);
    p.network.dim = v.dim ? v.dim : c.dim;
    p.network.radix = v.radix ? v.radix : c.radix;
    p.dirScheme = v.scheme;
    p.dirPointers = v.ptrs;
    p.cycleSkip = cycle_skip;
    p.traceEvents = opts.compareTraces;
    // Transaction tracing is always on in the differential: the span
    // log is a deterministic artifact and must be bit-identical
    // across cycle-skip modes and host-thread counts.
    p.cohTrace = true;
    // The task plane rides along too: fuzz programs have no runtime
    // probes, but the processor hook points (future touches, f/e
    // stalls, TAS retries, frame switches) still emit events, and the
    // analyzed report must be bit-identical across the same axes.
    p.taskTrace = true;
    // Likewise the spec-conformance listener: every fuzz program also
    // checks each directory transition against the model checker's
    // rule tables (mc::Conformance).
    p.conformance = true;
    p.hostThreads = host_threads;

    run.machine = std::make_unique<AlewifeMachine>(p, &prog);
    AlewifeMachine &m = *run.machine;
    bootCase(m, c, prog);

    m.run(opts.maxCycles);
    if (!m.halted()) {
        std::ostringstream os;
        os << "alewife(skip=" << cycle_skip << ", " << v.name
           << ") did not halt within " << opts.maxCycles
           << " cycles; node0 pc=" << m.proc(0).pc() << " ["
           << prog.symbolAt(m.proc(0).pc()) << "]";
        run.error = os.str();
        return run;
    }
    if (!m.quiesce(opts.quiesceCycles)) {
        run.error = "alewife machine failed to quiesce after halt";
        return run;
    }

    run.snap = snapshotMachine(m);
    std::ostringstream stats;
    m.dump(stats);
    run.stats = stats.str();
    // quiesce() already panicked if any node's bucket sum diverged
    // from its cycle count; here we pin the full breakdown so the two
    // cycle-skip modes must also agree bucket by bucket, frame by
    // frame (§7.5: skip windows are attributed, never dropped).
    run.breakdown = profile::cycleBreakdownJson(m.profileSource().procs);
    if (opts.compareTraces) {
        std::ostringstream trace;
        m.writeTrace(trace);
        run.trace = trace.str();
    }
    std::ostringstream coh;
    m.writeCohTrace(coh);
    run.cohTrace = coh.str();
    std::ostringstream task_os;
    m.writeTaskTrace(task_os);
    run.taskTrace = task_os.str();
    return run;
}

} // namespace

DiffResult
runDifferential(const FuzzCase &c, const DiffOptions &opts)
{
    DiffResult r;
    Program prog = buildProgram(c);

    AlewifeRun on = runAlewife(c, prog, true, opts);
    if (!on.error.empty()) {
        r.divergence = on.error;
        return r;
    }
    AlewifeRun off = runAlewife(c, prog, false, opts);
    if (!off.error.empty()) {
        r.divergence = off.error;
        return r;
    }
    r.alewifeCycles = on.snap.cycle;

    std::ostringstream div;
    if (!on.snap.coherenceErrors.empty()) {
        div << "coherence violations in the skip-on run:\n";
        for (const std::string &e : on.snap.coherenceErrors)
            div << "  " << e << "\n";
    }

    std::string exact = compareExact(on.snap, off.snap);
    if (!exact.empty())
        div << "cycle-skip ON vs OFF:\n" << exact;
    if (on.stats != off.stats) {
        div << "cycle-skip ON vs OFF: stats dumps differ ("
            << on.stats.size() << " vs " << off.stats.size()
            << " bytes)\n";
    }
    if (on.breakdown != off.breakdown) {
        div << "cycle-skip ON vs OFF: cycle-accounting breakdowns "
               "differ:\n  on:  " << on.breakdown << "\n  off: "
            << off.breakdown << "\n";
    }
    if (on.cohTrace != off.cohTrace) {
        div << "cycle-skip ON vs OFF: coherence-transaction traces "
               "differ (" << on.cohTrace.size() << " vs "
            << off.cohTrace.size() << " bytes)\n";
    }
    if (on.taskTrace != off.taskTrace) {
        div << "cycle-skip ON vs OFF: task-trace reports differ ("
            << on.taskTrace.size() << " vs " << off.taskTrace.size()
            << " bytes)\n";
    }
    if (opts.compareTraces && on.trace != off.trace) {
        div << "cycle-skip ON vs OFF: trace JSON differs ("
            << on.trace.size() << " vs " << off.trace.size()
            << " bytes)\n";
    }

    // The parallel execution engine: same machine, same skip mode,
    // sharded across host worker threads. Must be a bit-for-bit twin
    // of the sequential run (DESIGN.md §7.6).
    if (opts.hostThreads > 1) {
        AlewifeRun par =
            runAlewife(c, prog, true, opts, opts.hostThreads);
        if (!par.error.empty()) {
            r.divergence = par.error;
            return r;
        }
        std::string pexact = compareExact(on.snap, par.snap);
        if (!pexact.empty()) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ":\n" << pexact;
        }
        if (on.stats != par.stats) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ": stats dumps differ (" << on.stats.size()
                << " vs " << par.stats.size() << " bytes)\n";
        }
        if (on.breakdown != par.breakdown) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ": cycle-accounting breakdowns differ\n";
        }
        if (on.cohTrace != par.cohTrace) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ": coherence-transaction traces differ ("
                << on.cohTrace.size() << " vs " << par.cohTrace.size()
                << " bytes)\n";
        }
        if (on.taskTrace != par.taskTrace) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ": task-trace reports differ ("
                << on.taskTrace.size() << " vs "
                << par.taskTrace.size() << " bytes)\n";
        }
        if (opts.compareTraces && on.trace != par.trace) {
            div << "threads=1 vs threads=" << opts.hostThreads
                << ": trace JSON differs (" << on.trace.size()
                << " vs " << par.trace.size() << " bytes)\n";
        }
    }

    // The dirScheme x mesh axis: the limited directory (default and
    // forced-spill pointer counts) and — when the case is a 2x2 mesh —
    // the same four nodes reshaped as a 1-D line, which changes every
    // hop distance. Each variant changes timing only: it must be
    // bit-identical across cycle-skip modes (and host-thread counts)
    // and architecturally identical to the full-map run above.
    if (opts.schemeAxis) {
        std::vector<Variant> variants = {
            {"limited(i=4)", coh::DirScheme::LimitedPtr, 4, 0, 0},
            {"limited(forced-spill)", coh::DirScheme::LimitedPtr, 0, 0,
             0},
        };
        if (c.dim == 2 && c.radix == 2) {
            variants.push_back(
                {"line-mesh+limited(i=1)", coh::DirScheme::LimitedPtr,
                 1, 1, 4});
        }
        for (const Variant &v : variants) {
            AlewifeRun von = runAlewife(c, prog, true, opts, 1, v);
            if (!von.error.empty()) {
                r.divergence = von.error;
                return r;
            }
            AlewifeRun voff = runAlewife(c, prog, false, opts, 1, v);
            if (!voff.error.empty()) {
                r.divergence = voff.error;
                return r;
            }
            std::string vexact = compareExact(von.snap, voff.snap);
            if (!vexact.empty()) {
                div << v.name << " cycle-skip ON vs OFF:\n" << vexact;
            }
            if (von.stats != voff.stats) {
                div << v.name
                    << " cycle-skip ON vs OFF: stats dumps differ\n";
            }
            if (von.breakdown != voff.breakdown) {
                div << v.name
                    << " cycle-skip ON vs OFF: cycle-accounting "
                       "breakdowns differ\n";
            }
            if (von.cohTrace != voff.cohTrace) {
                div << v.name
                    << " cycle-skip ON vs OFF: coherence-transaction "
                       "traces differ\n";
            }
            if (von.taskTrace != voff.taskTrace) {
                div << v.name
                    << " cycle-skip ON vs OFF: task-trace reports "
                       "differ\n";
            }
            if (opts.compareTraces && von.trace != voff.trace) {
                div << v.name
                    << " cycle-skip ON vs OFF: trace JSON differs\n";
            }
            if (opts.hostThreads > 1) {
                AlewifeRun vpar = runAlewife(c, prog, true, opts,
                                             opts.hostThreads, v);
                if (!vpar.error.empty()) {
                    r.divergence = vpar.error;
                    return r;
                }
                std::string ppexact =
                    compareExact(von.snap, vpar.snap);
                if (!ppexact.empty()) {
                    div << v.name << " threads=1 vs threads="
                        << opts.hostThreads << ":\n" << ppexact;
                }
                if (von.stats != vpar.stats ||
                    von.cohTrace != vpar.cohTrace ||
                    von.taskTrace != vpar.taskTrace ||
                    von.breakdown != vpar.breakdown) {
                    div << v.name << " threads=1 vs threads="
                        << opts.hostThreads
                        << ": deterministic artifacts differ\n";
                }
            }
            std::string varch =
                compareArchitectural(on.snap, von.snap);
            if (!varch.empty()) {
                div << "FullMap vs " << v.name << ":\n" << varch;
            }
        }
    }

    // The oracle: perfect memory, same cores, same program.
    PerfectMachineParams pp;
    configure(pp, c);
    pp.numNodes = c.numNodes();
    PerfectMachine oracle(pp, &prog);
    bootCase(oracle, c, prog);
    oracle.run(opts.maxCycles);
    if (!oracle.halted()) {
        std::ostringstream os;
        os << "oracle did not halt within " << opts.maxCycles
           << " cycles; node0 pc=" << oracle.proc(0).pc() << " ["
           << prog.symbolAt(oracle.proc(0).pc()) << "]";
        r.divergence = os.str();
        return r;
    }
    if (!oracle.quiesce(opts.quiesceCycles)) {
        r.divergence = "oracle failed to quiesce after halt";
        return r;
    }
    MachineSnapshot osnap = snapshotMachine(oracle);
    r.perfectCycles = osnap.cycle;

    std::string arch = compareArchitectural(on.snap, osnap);
    if (!arch.empty())
        div << "alewife vs ISA oracle:\n" << arch;

    r.divergence = div.str();
    r.ok = r.divergence.empty();
    return r;
}

namespace
{

/**
 * Can deleting @p item possibly change behavior beyond its own
 * destination register? Uses the ISA dataflow summary: side-effecting
 * or condition-consuming/producing instructions are "live" and only
 * tried in the second, unguided pass.
 */
bool
itemLooksDead(const std::vector<BodyItem> &body, size_t index)
{
    for (const Instruction &inst : instructionsFor(body[index])) {
        OperandInfo oi = operandInfo(inst);
        if (oi.sideEffects || oi.indirectRegs || oi.setsCond)
            return false;
        if (oi.dst < 0)
            continue;
        // Is the destination read again before being overwritten?
        for (size_t j = index + 1; j < body.size(); ++j) {
            bool overwritten = false;
            for (const Instruction &later : instructionsFor(body[j])) {
                OperandInfo lo = operandInfo(later);
                if (lo.indirectRegs)
                    return false;
                for (uint8_t s = 0; s < lo.numSrcs; ++s) {
                    if (lo.srcs[s] == uint8_t(oi.dst))
                        return false;
                }
                if (lo.dst == oi.dst)
                    overwritten = true;
            }
            if (overwritten)
                break;
        }
    }
    return true;
}

/** Delete body item @p index of node @p node (records the drop). */
FuzzCase
withoutItem(const FuzzCase &c, uint32_t node, size_t index)
{
    FuzzCase mutated = c;
    uint32_t orig = mutated.bodies[node][index].origIndex;
    mutated.bodies[node].erase(mutated.bodies[node].begin() +
                               long(index));
    mutated.dropped.emplace_back(node, orig);
    return mutated;
}

} // namespace

FuzzCase
shrinkCase(const FuzzCase &c, const FailPredicate &fails,
           int maxProbes)
{
    FuzzCase best = c;
    int probes = 0;

    // Pass 1: dead-value items (cheap wins, usually most of the body).
    // Pass 2: everything, last-to-first so branch skips over earlier
    // items keep their meaning as long as possible. Repeat both to a
    // fixpoint: deleting one item routinely kills others.
    bool changed = true;
    while (changed && probes < maxProbes) {
        changed = false;
        for (int guided = 1; guided >= 0; --guided) {
            for (uint32_t node = 0; node < best.bodies.size(); ++node) {
                for (size_t i = best.bodies[node].size(); i-- > 0;) {
                    if (probes >= maxProbes)
                        return best;
                    if (guided &&
                        !itemLooksDead(best.bodies[node], i)) {
                        continue;
                    }
                    FuzzCase candidate = withoutItem(best, node, i);
                    ++probes;
                    if (fails(candidate)) {
                        best = std::move(candidate);
                        changed = true;
                    }
                }
            }
        }
    }
    return best;
}

std::string
reproText(const FuzzCase &c, const DiffResult &r)
{
    std::ostringstream os;
    os << "=== APRIL differential fuzzer: divergence ===\n";
    os << r.divergence;
    if (!r.divergence.empty() && r.divergence.back() != '\n')
        os << "\n";
    os << std::hex << "Reproduce with seed 0x" << c.seed << std::dec
       << " (" << c.numNodes() << " nodes, " << c.numFrames
       << " frames";
    if (!c.dropped.empty())
        os << ", " << c.dropped.size() << " items shrunk away";
    os << ").\n";
    os << "Corpus entry (save under tests/corpus/ to pin the "
          "regression):\n\n";
    os << serializeCase(c);
    return os.str();
}

} // namespace april::fuzz
