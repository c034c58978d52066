#include "fuzz/differential.hh"

#include <memory>
#include <sstream>

#include "machine/alewife_machine.hh"
#include "machine/perfect_machine.hh"
#include "machine/snapshot.hh"

namespace april::fuzz
{

namespace
{

/// Cycle budget of every machine; a case that has not halted by then
/// has hung.
constexpr uint64_t kMaxCycles = 4'000'000;
/// Cycles a halted machine gets to drain its coherence traffic.
constexpr uint64_t kQuiesceCycles = 250'000;

/**
 * One recorded ALEWIFE run. The machine lives as long as its record:
 * freeing each machine as soon as it was recorded let malloc hand its
 * memory back and fault it in again for the next one (127,000 page
 * faults in a default 500-program run instead of 6,000).
 */
struct AlewifeRun
{
    std::unique_ptr<AlewifeMachine> machine;
    RunRecord record;
};

/** One machine-shape variant of the dirScheme x mesh axis. */
struct Variant
{
    std::string name = "FullMap";
    coh::DirScheme scheme = coh::DirScheme::FullMap;
    uint32_t ptrs = 4;
    int dim = 0;        ///< 0: the case's own mesh shape
    int radix = 0;
};

/** The shapes case @p c runs in: full map, then, on the scheme axis,
 *  the limited directory (default and forced-spill pointer counts)
 *  and, for a 2x2 mesh, the same four nodes reshaped as a 1-D line,
 *  which changes every hop distance. */
std::vector<Variant>
variantsOf(const FuzzCase &c, const DiffOptions &opts)
{
    std::vector<Variant> variants(1);
    if (!opts.schemeAxis)
        return variants;
    variants.push_back({"limited(i=4)", coh::DirScheme::LimitedPtr, 4});
    variants.push_back(
        {"limited(forced-spill)", coh::DirScheme::LimitedPtr, 0});
    if (c.dim == 2 && c.radix == 2) {
        variants.push_back({"line-mesh+limited(i=1)",
                            coh::DirScheme::LimitedPtr, 1, 1, 4});
    }
    return variants;
}

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

/** Run, halt and drain @p m; @return "" or what went wrong. */
std::string
runToQuiet(Machine &m, const Program &prog, const std::string &what)
{
    m.run(kMaxCycles);
    if (!m.halted()) {
        std::ostringstream os;
        os << what << " did not halt within " << kMaxCycles
           << " cycles; node0 pc=" << m.proc(0).pc() << " ["
           << prog.symbolAt(m.proc(0).pc()) << "]";
        return os.str();
    }
    if (!m.quiesce(kQuiesceCycles))
        return what + " failed to quiesce after halt";
    return "";
}

/**
 * Run case @p c in shape @p v and record it. A hang or failed drain
 * sets @p error instead; once @p error is set, nothing more runs.
 */
AlewifeRun
runAlewife(const FuzzCase &c, const Program &prog, const Variant &v,
           bool cycle_skip, uint32_t host_threads, std::string &error)
{
    AlewifeRun run;
    if (!error.empty())
        return run;
    AlewifeParams p;
    configure(p, c);
    p.network.dim = v.dim ? v.dim : c.dim;
    p.network.radix = v.radix ? v.radix : c.radix;
    p.controller.dirScheme = v.scheme;
    p.controller.dirPointers = v.ptrs;
    p.cycleSkip = cycle_skip;
    p.hostThreads = host_threads;
    // Every deterministic artifact is on, so every pair compares all
    // of them: the machine trace, the transaction spans, the task
    // plane (fuzz programs have no runtime probes, but the processor
    // hook points still emit events). The machine's spec-conformance
    // listener checks each directory transition against the model
    // checker's rule tables (mc::Conformance).
    p.traceEvents = true;
    p.cohTrace = true;
    p.taskTrace = true;

    run.machine = std::make_unique<AlewifeMachine>(p, &prog);
    AlewifeMachine &m = *run.machine;
    bootCase(m, c, prog);
    std::ostringstream what;
    what << "alewife(skip=" << cycle_skip << ", threads=" << host_threads
         << ", " << v.name << ")";
    error = runToQuiet(m, prog, what.str());
    // quiesce() already panicked if any node's bucket sum diverged
    // from its cycle count; the record's breakdown pins the rest, so
    // twins must also agree bucket by bucket, frame by frame (§7.5:
    // skip windows are attributed, never dropped).
    if (error.empty())
        run.record = recordRun(m);
    return run;
}

/** Append a labelled section to @p div when @p diff is non-empty. */
void
note(std::ostream &div, const std::string &label,
     const std::string &diff)
{
    if (!diff.empty())
        div << label << ":\n" << diff;
}

} // namespace

DiffResult
runDifferential(const FuzzCase &c, const DiffOptions &opts)
{
    DiffResult r;
    Program prog = buildProgram(c);
    std::ostringstream div;
    std::string error;

    // Each shape runs skip-on, skip-off and, when hostThreads > 1,
    // sharded over that many host threads (DESIGN.md §7.6); the three
    // runs must be twins. Every shape after the first changes timing
    // only, so it must agree architecturally with the full-map run.
    MachineSnapshot fullmap;
    for (const Variant &v : variantsOf(c, opts)) {
        AlewifeRun on = runAlewife(c, prog, v, true, 1, error);
        AlewifeRun off = runAlewife(c, prog, v, false, 1, error);
        AlewifeRun par;
        if (opts.hostThreads > 1)
            par = runAlewife(c, prog, v, true, opts.hostThreads, error);
        if (!error.empty()) {
            r.divergence = error;
            return r;
        }
        bool base = v.scheme == coh::DirScheme::FullMap;
        std::string prefix = base ? "" : v.name + " ";
        std::string violations;
        for (const std::string &e : on.record.snap.coherenceErrors)
            violations += "  " + e + "\n";
        note(div, prefix + "coherence violations in the skip-on run",
             violations);
        note(div, prefix + "cycle-skip ON vs OFF",
             compareRuns(on.record, off.record));
        if (opts.hostThreads > 1) {
            note(div, prefix + "threads=1 vs threads=" +
                          std::to_string(opts.hostThreads),
                 compareRuns(on.record, par.record));
        }
        if (base) {
            r.alewifeCycles = on.record.snap.cycle;
            fullmap = std::move(on.record.snap);
        } else {
            note(div, "FullMap vs " + v.name,
                 compareArchitectural(fullmap, on.record.snap));
        }
    }

    // The oracle: perfect memory, same cores, same program.
    PerfectMachineParams pp;
    configure(pp, c);
    pp.numNodes = c.numNodes();
    PerfectMachine oracle(pp, &prog);
    bootCase(oracle, c, prog);
    error = runToQuiet(oracle, prog, "oracle");
    if (!error.empty()) {
        r.divergence = error;
        return r;
    }
    MachineSnapshot osnap = snapshotMachine(oracle);
    r.perfectCycles = osnap.cycle;
    note(div, "alewife vs ISA oracle",
         compareArchitectural(fullmap, osnap));

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
