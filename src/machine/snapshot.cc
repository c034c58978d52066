#include "machine/snapshot.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "machine/alewife_machine.hh"
#include "profile/report.hh"

namespace april
{

namespace
{

ProcSnapshot
snapshotProc(const Processor &p)
{
    ProcSnapshot s;
    s.halted = p.halted();
    s.fp = p.fp();
    s.pc = p.pc();
    s.psr = p.psrWord();
    for (unsigned g = 0; g < reg::numGlobal; ++g)
        s.globals[g] = p.readGlobal(g);
    for (uint32_t f = 0; f < p.numFrames(); ++f) {
        const Processor::Frame &fr = p.frame(f);
        FrameSnapshot fs;
        fs.regs = fr.regs;
        fs.trapRegs = fr.trapRegs;
        fs.trapPC = fr.trapPC;
        fs.trapNPC = fr.trapNPC;
        fs.trapType = uint8_t(fr.trapType);
        fs.trapArg = fr.trapArg;
        fs.trapVA = fr.trapVA;
        fs.savedPsr = fr.savedPsr;
        s.frames.push_back(fs);
    }
    for (size_t k = 0; k < size_t(TrapKind::NumKinds); ++k)
        s.traps[k] = uint64_t(p.statTraps[k].value());
    return s;
}

std::vector<MemWord>
copyMemory(const SharedMemory &mem)
{
    // Absent pages already equal the image's default, a fresh word.
    std::vector<MemWord> image(mem.sizeWords());
    mem.forEachResidentPage(
        [&](Addr base, const MemWord *words, uint32_t count) {
            std::copy_n(words, count, image.begin() + base);
        });
    return image;
}

/** Fold Modified lines over the backing image; a quiesced machine
 *  has no traffic in flight, so exactly one node may own any line
 *  exclusively, and Shared copies must agree with the result. */
void
foldDirtyLines(AlewifeMachine &m, MachineSnapshot &s)
{
    std::map<Addr, uint32_t> modifiedBy;
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        const cache::Cache &cache = m.controller(n).cacheRef();
        cache.forEachFrame([&](const cache::CacheLine &line) {
            if (line.state != cache::LineState::Modified)
                return;
            auto [it, fresh] = modifiedBy.emplace(line.lineAddr, n);
            if (!fresh) {
                std::ostringstream os;
                os << "line " << line.lineAddr
                   << " Modified on both node " << it->second
                   << " and node " << n;
                s.coherenceErrors.push_back(os.str());
                return;
            }
            for (uint32_t k = 0; k < cache.lineWords(); ++k) {
                Addr a = line.lineAddr * cache.lineWords() + k;
                if (a < s.memory.size())
                    s.memory[a] = line.words[k];
            }
        });
    }
    for (uint32_t n = 0; n < m.numNodes(); ++n) {
        const cache::Cache &cache = m.controller(n).cacheRef();
        cache.forEachFrame([&](const cache::CacheLine &line) {
            if (line.state != cache::LineState::Shared)
                return;
            if (modifiedBy.count(line.lineAddr)) {
                std::ostringstream os;
                os << "line " << line.lineAddr << " Shared on node "
                   << n << " while Modified on node "
                   << modifiedBy[line.lineAddr];
                s.coherenceErrors.push_back(os.str());
                return;
            }
            for (uint32_t k = 0; k < cache.lineWords(); ++k) {
                Addr a = line.lineAddr * cache.lineWords() + k;
                if (a >= s.memory.size())
                    continue;
                if (line.words[k].data != s.memory[a].data ||
                    line.words[k].full != s.memory[a].full) {
                    std::ostringstream os;
                    os << "Shared copy of word " << a << " on node "
                       << n << " (data=" << line.words[k].data
                       << " full=" << line.words[k].full
                       << ") disagrees with memory (data="
                       << s.memory[a].data << " full="
                       << s.memory[a].full << ")";
                    s.coherenceErrors.push_back(os.str());
                }
            }
        });
    }
}

} // namespace

MachineSnapshot
snapshotMachine(Machine &m)
{
    MachineSnapshot s;
    s.halted = m.halted();
    s.cycle = m.cycle();
    s.console = m.console();
    s.memory = copyMemory(m.memory());
    if (auto *alewife = dynamic_cast<AlewifeMachine *>(&m))
        foldDirtyLines(*alewife, s);
    for (uint32_t n = 0; n < m.numNodes(); ++n)
        s.procs.push_back(snapshotProc(m.proc(n)));
    return s;
}

namespace
{

/** Accumulates the first few divergences into a report. */
class Diff
{
  public:
    template <typename A, typename B>
    void
    check(const std::string &what, const A &a, const B &b)
    {
        if (a == b)
            return;
        if (++count > kMaxReported)
            return;
        os << what << ": " << a << " vs " << b << "\n";
    }

    std::string
    report() const
    {
        if (count == 0)
            return "";
        std::ostringstream out;
        out << count << " divergence(s):\n" << os.str();
        if (count > kMaxReported)
            out << "... (" << (count - kMaxReported) << " more)\n";
        return out.str();
    }

  private:
    static constexpr uint64_t kMaxReported = 12;
    std::ostringstream os;
    uint64_t count = 0;
};

std::string
procTag(size_t n, const std::string &field)
{
    return "proc" + std::to_string(n) + "." + field;
}

void
diffMemory(Diff &d, const MachineSnapshot &a, const MachineSnapshot &b)
{
    d.check("memory.sizeWords", a.memory.size(), b.memory.size());
    size_t n = std::min(a.memory.size(), b.memory.size());
    for (Addr w = 0; w < n; ++w) {
        if (a.memory[w].data != b.memory[w].data) {
            d.check("mem[" + std::to_string(w) + "].data",
                    a.memory[w].data, b.memory[w].data);
        }
        if (a.memory[w].full != b.memory[w].full) {
            d.check("mem[" + std::to_string(w) + "].full",
                    a.memory[w].full, b.memory[w].full);
        }
    }
}

void
diffConsole(Diff &d, const MachineSnapshot &a, const MachineSnapshot &b)
{
    d.check("console.size", a.console.size(), b.console.size());
    size_t n = std::min(a.console.size(), b.console.size());
    for (size_t i = 0; i < n; ++i) {
        d.check("console[" + std::to_string(i) + "]", a.console[i],
                b.console[i]);
    }
}

} // namespace

std::string
compareExact(const MachineSnapshot &a, const MachineSnapshot &b)
{
    Diff d;
    d.check("halted", a.halted, b.halted);
    d.check("cycle", a.cycle, b.cycle);
    diffConsole(d, a, b);
    diffMemory(d, a, b);
    d.check("coherenceErrors", a.coherenceErrors.size(),
            b.coherenceErrors.size());
    d.check("numProcs", a.procs.size(), b.procs.size());
    size_t np = std::min(a.procs.size(), b.procs.size());
    for (size_t n = 0; n < np; ++n) {
        const ProcSnapshot &pa = a.procs[n];
        const ProcSnapshot &pb = b.procs[n];
        d.check(procTag(n, "halted"), pa.halted, pb.halted);
        d.check(procTag(n, "fp"), pa.fp, pb.fp);
        d.check(procTag(n, "pc"), pa.pc, pb.pc);
        d.check(procTag(n, "psr"), pa.psr, pb.psr);
        for (unsigned g = 0; g < reg::numGlobal; ++g) {
            d.check(procTag(n, "g" + std::to_string(g)),
                    pa.globals[g], pb.globals[g]);
        }
        for (size_t k = 0; k < size_t(TrapKind::NumKinds); ++k) {
            d.check(procTag(n, std::string("traps") +
                                   trapKindName(TrapKind(k))),
                    pa.traps[k], pb.traps[k]);
        }
        d.check(procTag(n, "numFrames"), pa.frames.size(),
                pb.frames.size());
        size_t nf = std::min(pa.frames.size(), pb.frames.size());
        for (size_t f = 0; f < nf; ++f) {
            const FrameSnapshot &fa = pa.frames[f];
            const FrameSnapshot &fb = pb.frames[f];
            std::string tag = procTag(n, "f" + std::to_string(f));
            for (unsigned r = 0; r < reg::numUser; ++r) {
                d.check(tag + ".r" + std::to_string(r), fa.regs[r],
                        fb.regs[r]);
            }
            for (unsigned r = 0; r < reg::numTrap; ++r) {
                d.check(tag + ".t" + std::to_string(r),
                        fa.trapRegs[r], fb.trapRegs[r]);
            }
            d.check(tag + ".trapPC", fa.trapPC, fb.trapPC);
            d.check(tag + ".trapNPC", fa.trapNPC, fb.trapNPC);
            d.check(tag + ".trapType", int(fa.trapType),
                    int(fb.trapType));
            d.check(tag + ".trapArg", fa.trapArg, fb.trapArg);
            d.check(tag + ".trapVA", fa.trapVA, fb.trapVA);
            d.check(tag + ".savedPsr", fa.savedPsr, fb.savedPsr);
        }
    }
    return d.report();
}

std::string
compareArchitectural(const MachineSnapshot &alewife,
                     const MachineSnapshot &oracle)
{
    // Trap kinds whose counts are architecturally determined (they
    // depend only on register/memory values, which the single-writer
    // program discipline makes machine-independent). RemoteMiss and
    // Ipi are timing artifacts of the cached machine.
    static const TrapKind kDeterministicTraps[] = {
        TrapKind::FutureCompute, TrapKind::FutureMemory,
        TrapKind::FeEmpty, TrapKind::FeFull,
        TrapKind::SoftTrap0, TrapKind::SoftTrap1, TrapKind::SoftTrap2,
        TrapKind::SoftTrap3, TrapKind::SoftTrap4, TrapKind::SoftTrap5,
        TrapKind::SoftTrap6, TrapKind::SoftTrap7,
    };

    Diff d;
    d.check("halted", alewife.halted, oracle.halted);
    diffConsole(d, alewife, oracle);
    diffMemory(d, alewife, oracle);
    for (const std::string &e : alewife.coherenceErrors)
        d.check("coherence", e, std::string("(none)"));
    d.check("numProcs", alewife.procs.size(), oracle.procs.size());
    size_t np = std::min(alewife.procs.size(), oracle.procs.size());
    for (size_t n = 0; n < np; ++n) {
        const ProcSnapshot &pa = alewife.procs[n];
        const ProcSnapshot &po = oracle.procs[n];
        d.check(procTag(n, "halted"), pa.halted, po.halted);
        d.check(procTag(n, "fp"), pa.fp, po.fp);
        d.check(procTag(n, "pc"), pa.pc, po.pc);
        d.check(procTag(n, "psr"), pa.psr, po.psr);
        for (unsigned g = 0; g < reg::numGlobal; ++g) {
            d.check(procTag(n, "g" + std::to_string(g)),
                    pa.globals[g], po.globals[g]);
        }
        for (TrapKind k : kDeterministicTraps) {
            d.check(procTag(n, std::string("traps") + trapKindName(k)),
                    pa.traps[size_t(k)], po.traps[size_t(k)]);
        }
        // Only the frame the thread actually ran in is comparable;
        // context-switch handlers scribble on the other frames' trap
        // windows and PC chains on the cached machine.
        if (!pa.frames.empty() && !po.frames.empty() && pa.fp == po.fp) {
            const FrameSnapshot &fa = pa.frames[pa.fp];
            const FrameSnapshot &fo = po.frames[po.fp];
            std::string tag = procTag(n, "activeFrame");
            for (unsigned r = 0; r < reg::numUser; ++r) {
                d.check(tag + ".r" + std::to_string(r), fa.regs[r],
                        fo.regs[r]);
            }
        }
    }
    return d.report();
}

namespace
{

/** Adds a line to @p os when output @p what of two records differs:
 *  the first differing byte and each side's bytes around it. */
void
diffBytes(std::ostream &os, const char *what, const std::string &a,
          const std::string &b)
{
    if (a == b)
        return;
    size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at])
        ++at;
    size_t from = at - std::min<size_t>(at, 40);
    os << what << " differs at byte " << at << " (" << a.size()
       << " vs " << b.size() << " bytes): ";
    json::writeString(os, std::string_view(a).substr(from, 64));
    os << " vs ";
    json::writeString(os, std::string_view(b).substr(from, 64));
    os << "\n";
}

} // namespace

const std::array<RunOutput, 7> kRunOutputs = {{
    {"stats JSON", &RunOutputs::stats,
     [](Machine &m, std::ostream &os) { m.dumpJson(os); }},
    {"cycle breakdown", &RunOutputs::breakdown,
     [](Machine &m, std::ostream &os) {
         os << profile::cycleBreakdownJson(m.profileSource().procs);
     }},
    {"trace JSON", &RunOutputs::trace,
     [](Machine &m, std::ostream &os) { m.writeTrace(os); }},
    {"coherence-transaction trace", &RunOutputs::cohTrace,
     [](Machine &m, std::ostream &os) { m.writeCohTrace(os); }},
    {"task-trace report", &RunOutputs::taskTrace,
     [](Machine &m, std::ostream &os) { m.writeTaskTrace(os); }},
    {"profile", &RunOutputs::profile,
     [](Machine &m, std::ostream &os) {
         profile::ProfileSource src = m.profileSource();
         if (!src.samplers.empty())
             profile::writeProfileJson(os, src);
     }},
    {"interval series", &RunOutputs::series,
     [](Machine &m, std::ostream &os) {
         if (const profile::IntervalSampler *s = m.intervalSampler())
             s->writeCsv(os);
     }},
}};

const RunOutput &
runOutput(std::string RunOutputs::*text)
{
    for (const RunOutput &row : kRunOutputs) {
        if (row.text == text)
            return row;
    }
    panic("runOutput: no table row keeps that output");
}

RunOutputs
recordOutputs(Machine &m)
{
    RunOutputs out;
    for (const RunOutput &row : kRunOutputs) {
        std::ostringstream os;
        row.write(m, os);
        out.*row.text = os.str();
    }
    return out;
}

RunRecord
recordRun(Machine &m)
{
    return {snapshotMachine(m), recordOutputs(m)};
}

std::string
compareRuns(const RunRecord &a, const RunRecord &b)
{
    std::ostringstream os;
    std::string snap = compareExact(a.snap, b.snap);
    if (!snap.empty())
        os << "snapshot differs: " << snap;
    for (const RunOutput &row : kRunOutputs)
        diffBytes(os, row.name, a.outputs.*row.text, b.outputs.*row.text);
    return os.str();
}

} // namespace april
