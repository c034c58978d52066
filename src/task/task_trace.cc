#include "task/task_trace.hh"

#include <algorithm>
#include <cstring>

#include "common/trace.hh"

namespace april::task
{

const char *
evName(Ev e)
{
    switch (e) {
      case Ev::RootBegin: return "RootBegin";
      case Ev::RootEnd: return "RootEnd";
      case Ev::Spawn: return "Spawn";
      case Ev::SpawnLazy: return "SpawnLazy";
      case Ev::MakeFuture: return "MakeFuture";
      case Ev::PopTask: return "PopTask";
      case Ev::StealAttempt: return "StealAttempt";
      case Ev::StealTask: return "StealTask";
      case Ev::StealWon: return "StealWon";
      case Ev::LazyPub: return "LazyPub";
      case Ev::LazyMine: return "LazyMine";
      case Ev::LazyStolen: return "LazyStolen";
      case Ev::LazyResume: return "LazyResume";
      case Ev::Run: return "Run";
      case Ev::Resolve: return "Resolve";
      case Ev::Touch: return "Touch";
      case Ev::Block: return "Block";
      case Ev::Resume: return "Resume";
      case Ev::ResumeStolen: return "ResumeStolen";
      case Ev::FeStall: return "FeStall";
      case Ev::TasRetry: return "TasRetry";
      case Ev::FrameSwitch: return "FrameSwitch";
    }
    return "?";
}

namespace
{

/** The Mul-T compiler's SCR scratch register (mult/compiler.hh); the
 *  lazy-push probe reads the boxed marker pointer out of it. Kept as a
 *  plain number so the task library does not depend on mult. */
constexpr uint8_t kCompilerScr = 19;

struct NoteSpec
{
    const char *name;
    Site site;
};

/**
 * The probe vocabulary: note name -> payload registers at the marked
 * pc. Register conventions are those of rt::Runtime's emitted assembly
 * (src/runtime/runtime.cc) and the compiler's lazy-future inline
 * sequence (src/mult/compiler.cc); each probe note is placed where the
 * listed registers are live and the marked instruction does not
 * clobber them.
 */
constexpr NoteSpec kNotes[] = {
    {"tp$root", {Ev::RootBegin, kNoReg, false, kNoReg, false}},
    {"tp$root_end", {Ev::RootEnd, kNoReg, false, kNoReg, false}},
    {"tp$spawn", {Ev::Spawn, reg::t(0), true, reg::a(1), true}},
    {"tp$lazy_push", {Ev::SpawnLazy, kCompilerScr, true, kNoReg, false}},
    {"tp$mkfut", {Ev::MakeFuture, reg::a(0), true, kNoReg, false}},
    {"tp$pop", {Ev::PopTask, reg::t(5), true, kNoReg, false}},
    {"tp$steal_try", {Ev::StealAttempt, kNoReg, false, kNoReg, false}},
    {"tp$steal_task", {Ev::StealTask, reg::t(5), true, kNoReg, false}},
    {"tp$deq_won", {Ev::StealWon, reg::t(5), true, kNoReg, false}},
    {"tp$lazy_pub", {Ev::LazyPub, reg::t(5), true, reg::a(0), true}},
    {"tp$lazy_mine", {Ev::LazyMine, kNoReg, false, kNoReg, false}},
    {"tp$stolen_exit", {Ev::LazyStolen, reg::a(0), true, kNoReg, false}},
    {"tp$lazy_resume", {Ev::LazyResume, reg::a(0), true, kNoReg, false}},
    {"tp$run", {Ev::Run, reg::t(5), true, kNoReg, false}},
    {"tp$resolve", {Ev::Resolve, reg::a(0), true, kNoReg, false}},
    {"tp$block", {Ev::Block, reg::t(3), true, reg::t(5), true}},
    {"tp$resume", {Ev::Resume, reg::t(1), true, kNoReg, false}},
    {"tp$resume_steal", {Ev::ResumeStolen, reg::t(1), true, kNoReg, false}},
};

const Site *
siteForNote(const std::string &name)
{
    for (const NoteSpec &s : kNotes) {
        if (name == s.name)
            return &s.site;
    }
    return nullptr;
}

} // namespace

ProbeMap::ProbeMap(const Program &prog)
{
    siteAt_.assign(prog.size(), -1);
    for (const auto &[name, pc] : prog.notes()) {
        if (name.compare(0, 3, "tp$") != 0)
            continue;
        const Site *s = siteForNote(name);
        // Unknown tp$ names and notes at the very end of the program
        // (nothing follows to mark) are ignored, not errors: programs
        // may carry notes from newer vocabularies.
        if (!s || pc >= siteAt_.size())
            continue;
        sites_.push_back(*s);
        siteAt_[pc] = int32_t(sites_.size() - 1);
    }
}

void
writeChromeEvents(std::ostream &os, bool &first, const Tracer &log)
{
    if (log.empty())
        return;
    AnalyzeParams p;
    uint32_t max_node = 0;
    uint64_t last_cycle = 0;
    for (const TaskEvent &e : log) {
        max_node = std::max(max_node, e.node);
        last_cycle = e.cycle;
    }
    p.numNodes = max_node + 1;
    Report r = analyze(log, p);
    for (const TaskInfo &t : r.tasks) {
        if (!t.ran)
            continue;
        uint64_t end = t.resolveCycle ? t.resolveCycle
                                      : std::max(t.runCycle, last_cycle);
        auto name = [&](std::ostream &o) {
            o << "task " << (t.id >> 32) << "#" << uint32_t(t.id);
            if (t.lazy)
                o << " (lazy)";
        };
        trace::writeSpanEvent(os, first, name, "b", "task", t.runCycle,
                              t.runNode, t.id, [&](std::ostream &o) {
                                  o << "\"work\":" << t.work
                                    << ",\"wait\":" << t.waitCycles
                                    << ",\"critical\":"
                                    << (t.onCriticalPath ? "1" : "0");
                              });
        // A migrated task gets a flow arrow from its spawn site to the
        // node that ran it.
        if (t.stolen && t.spawnNode != t.runNode) {
            trace::writeSpanEvent(os, first, "steal", "s", "task",
                                  t.spawnCycle, t.spawnNode, t.id);
            trace::writeSpanEvent(os, first, "steal", "f", "task",
                                  t.runCycle, t.runNode, t.id);
        }
        trace::writeSpanEvent(os, first, name, "e", "task", end, t.runNode,
                              t.id);
    }
}

} // namespace april::task
