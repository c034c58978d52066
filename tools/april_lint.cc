/**
 * @file
 * april-lint: static analysis gate for APRIL programs.
 *
 * Two operating modes:
 *
 *   april-lint [--strict] FILE.april...
 *       Replay each fuzz-corpus entry (seed + drop list + digest),
 *       rebuild its program, and run the static check suite under the
 *       fuzz lint profile (fz$main entry with only r0 defined, fz$*
 *       handler roots, all vectors installed).
 *
 *   april-lint [--strict] --workloads
 *       Assemble the runtime + the four Table 3 Mul-T benchmarks and
 *       the hand-written fine-grain sync pipeline, and lint each image
 *       under the every-symbol-is-a-root profile; also lint the
 *       LimitLESS directory-handler image (coh$spill / coh$walk) under
 *       the protocol-handler profile, which additionally requires
 *       every handler to restore the frame pointer before RETT.
 *
 * Options:
 *   --strict   gate on Info findings too (default: Warning and up)
 *   --resign   corpus mode: tolerate a listing-digest mismatch and
 *              rewrite the entry with the regenerated digest/listing
 *              (for intentional generator changes; lint still runs)
 *
 * Exit status: 0 clean, 1 findings at or above the gate severity,
 * 2 file/parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checks.hh"
#include "fuzz/generator.hh"
#include "mult/compiler.hh"
#include "workloads/handwritten.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace april;

struct Gate
{
    analysis::Severity min = analysis::Severity::Warning;
    int exitCode = 0;

    /** Lint one program; print findings; fold into the exit code. */
    void
    check(const std::string &name, const Program &prog,
          const analysis::AnalysisOptions &opts)
    {
        analysis::AnalysisResult res = analysis::analyzeProgram(prog, opts);
        uint32_t gated = res.count(min);
        uint32_t info = uint32_t(res.findings.size()) - res.count(
            analysis::Severity::Warning);
        std::printf("%s: %u blocks, %u reachable instructions, "
                    "%u finding(s)%s\n",
                    name.c_str(), res.numBlocks, res.reachableInsts,
                    gated,
                    info && min != analysis::Severity::Info
                        ? (" (+" + std::to_string(info) + " info)").c_str()
                        : "");
        for (const analysis::Finding &f : res.findings) {
            if (f.sev < min)
                continue;
            std::printf("  pc %u (%s): %s [%s] %s\n", f.pc,
                        prog.symbolAt(f.pc).c_str(),
                        analysis::severityName(f.sev),
                        analysis::checkName(f.kind), f.message.c_str());
        }
        if (gated)
            exitCode = std::max(exitCode, 1);
    }
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

int
lintCorpusFile(const std::string &path, Gate &gate, bool resign)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "%s: cannot read\n", path.c_str());
        return 2;
    }
    fuzz::FuzzCase c;
    std::string err = fuzz::parseCase(text, c);
    bool digestDrift = err.find("digest mismatch") != std::string::npos;
    if (!err.empty() && !(resign && digestDrift)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 2;
    }
    if (resign && digestDrift) {
        std::ofstream outf(path, std::ios::binary | std::ios::trunc);
        if (!outf) {
            std::fprintf(stderr, "%s: cannot rewrite\n", path.c_str());
            return 2;
        }
        outf << fuzz::serializeCase(c);
        std::printf("%s: re-signed (generator changed)\n", path.c_str());
    }
    Program prog = fuzz::buildProgram(c);
    gate.check(path, prog, fuzz::lintOptions(prog));
    return 0;
}

/** Lint profile for the LimitLESS directory-handler image: the only
 *  legal entries are the trap-vector symbols, each held to the
 *  protocol-handler frame discipline (internal labels are NOT roots —
 *  nothing enters a handler mid-body). */
analysis::AnalysisOptions
dirHandlerOptions(const workloads::DirHandlers &dh)
{
    analysis::AnalysisOptions opts;
    for (const std::string &name : dh.handlers) {
        analysis::AnalysisOptions::Root r;
        r.pc = dh.prog.entry(name);
        r.name = name;
        r.allRegsDefined = true;
        r.handler = true;
        r.protocolHandler = true;
        opts.roots.push_back(std::move(r));
    }
    opts.installAllHandlers();
    return opts;
}

int
lintWorkloads(Gate &gate)
{
    workloads::SuiteSizes sizes;
    const workloads::Benchmark benches[] = {
        workloads::makeFib(sizes),
        workloads::makeFactor(sizes),
        workloads::makeQueens(sizes),
        workloads::makeSpeech(sizes),
    };
    for (const workloads::Benchmark &b : benches) {
        Program prog = mult::compileProgram(b.source, {});
        gate.check("workload:" + b.name, prog,
                   analysis::allSymbolRoots(prog));
    }
    workloads::FineGrainSync fg = workloads::buildFineGrainSync();
    gate.check("workload:fine_grain_sync", fg.prog,
               analysis::allSymbolRoots(fg.prog));
    workloads::DirHandlers dh = workloads::buildDirHandlers();
    gate.check("workload:dir_handlers", dh.prog,
               dirHandlerOptions(dh));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Gate gate;
    bool resign = false;
    bool doWorkloads = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--strict"))
            gate.min = analysis::Severity::Info;
        else if (!std::strcmp(argv[i], "--resign"))
            resign = true;
        else if (!std::strcmp(argv[i], "--workloads"))
            doWorkloads = true;
        else if (!std::strcmp(argv[i], "--help") ||
                 !std::strcmp(argv[i], "-h")) {
            std::printf("usage: april-lint [--strict] [--resign] "
                        "FILE.april...\n"
                        "       april-lint [--strict] --workloads\n");
            return 0;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (!doWorkloads && files.empty()) {
        std::fprintf(stderr,
                     "april-lint: no inputs (see --help)\n");
        return 2;
    }

    if (doWorkloads)
        lintWorkloads(gate);
    for (const std::string &f : files) {
        int rc = lintCorpusFile(f, gate, resign);
        if (rc)
            gate.exitCode = std::max(gate.exitCode, rc);
    }
    return gate.exitCode;
}
