#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "common/stats.hh"
#include "task/task_trace.hh"

namespace april::task
{

namespace
{

constexpr uint32_t kNone = UINT32_MAX;

/** One blocked-thread episode awaiting its Resume. */
struct PendingBlock
{
    uint32_t task = kNone;
    uint64_t cycle = 0;
    Addr future = 0;
    bool resumed = false;
};

/** A published lazy marker that has not been claimed or stolen yet. */
struct PendingLazy
{
    uint32_t parent = kNone;
    uint64_t parentWork = 0;
    uint64_t cycle = 0;
    uint32_t node = 0;
};

/** An open f/e-stall or TAS-spin run on one node. */
struct SpinEpisode
{
    bool open = false;
    Addr addr = 0;
    Ev kind = Ev::FeStall;
    uint64_t first = 0;
    uint64_t last = 0;
    uint32_t count = 0;
};

struct Analyzer
{
    const AnalyzeParams &p;
    Report r;

    // Execution slots: which task occupies each (node, frame), and the
    // frame's work counter at its previous event (delta attribution).
    struct Slot
    {
        uint32_t task = kNone;
        uint64_t lastWork = 0;
        bool seen = false;
    };
    std::unordered_map<uint64_t, Slot> slots;

    std::unordered_map<Addr, uint32_t> byDesc;   // descriptor -> task
    std::unordered_map<Addr, uint32_t> byMarker; // lazy marker -> task
    std::unordered_map<Addr, uint32_t> byFuture; // future -> producer
    std::unordered_map<Addr, uint32_t> byCont;   // future -> continuation
    std::unordered_map<Addr, size_t> byThread;   // thread -> blocksLog idx
    std::unordered_map<Addr, uint32_t> syncIdx;
    std::unordered_map<Addr, PendingLazy> pendingLazy;
    std::unordered_map<uint32_t, std::vector<Addr>> lazyStack;
    std::unordered_map<uint32_t, uint32_t> nodeSeq;
    std::unordered_map<uint32_t, uint32_t> convoyRun;
    std::unordered_map<uint32_t, SpinEpisode> spins;
    std::vector<PendingBlock> blocksLog;
    std::vector<uint32_t> parentIdx; // parallel to r.tasks

    explicit Analyzer(const AnalyzeParams &params) : p(params) {}

    Slot &
    slotOf(uint32_t node, uint8_t frame)
    {
        return slots[(uint64_t(node) << 8) | frame];
    }

    SyncWord &
    syncOf(Addr a)
    {
        auto [it, fresh] = syncIdx.try_emplace(a, uint32_t(r.syncWords.size()));
        if (fresh) {
            r.syncWords.emplace_back();
            r.syncWords.back().addr = a;
        }
        return r.syncWords[it->second];
    }

    uint32_t
    mint(uint32_t node, uint64_t cycle, uint32_t parent)
    {
        TaskInfo t;
        t.id = (uint64_t(node) << 32) | ++nodeSeq[node];
        t.spawnNode = node;
        t.spawnCycle = cycle;
        if (parent != kNone) {
            t.parent = r.tasks[parent].id;
            t.parentWorkAtSpawn = r.tasks[parent].work;
        }
        parentIdx.push_back(parent);
        r.tasks.push_back(std::move(t));
        return uint32_t(r.tasks.size() - 1);
    }

    void
    addDep(uint32_t task, uint32_t producer)
    {
        if (task == kNone || producer == kNone || task == producer)
            return;
        TaskInfo &t = r.tasks[task];
        for (const auto &[d, w] : t.deps) {
            if (d == producer)
                return;
        }
        t.deps.push_back({producer, t.work});
    }

    void
    histAdd(std::vector<uint64_t> &h, uint64_t v)
    {
        ++h[stats::Histogram::logBucket(int64_t(v), h.size())];
    }

    void
    healthNote(std::string s)
    {
        if (r.health.notes.size() < 32)
            r.health.notes.push_back(std::move(s));
    }

    void
    commitSpin(SpinEpisode &sp)
    {
        if (!sp.open)
            return;
        sp.open = false;
        // A single future touch is the resolved fast path, not a wait.
        if (sp.kind == Ev::Touch && sp.count < 2)
            return;
        uint64_t wait = sp.last - sp.first + 1;
        SyncWord &sw = syncOf(sp.addr);
        ++sw.episodes;
        sw.totalWait += wait;
        sw.maxWait = std::max(sw.maxWait, wait);
        if (sp.kind == Ev::FeStall)
            sw.feStalls += sp.count;
        else if (sp.kind == Ev::TasRetry)
            sw.tasRetries += sp.count;
        r.waitTotal += wait;
        histAdd(r.spinHist, wait);
        histAdd(r.waitHist, wait);
    }

    /** An event showing this node made scheduling progress: ends any
     *  steal-convoy run and spin episode on it. */
    void
    progress(uint32_t node)
    {
        convoyRun[node] = 0;
        auto it = spins.find(node);
        if (it != spins.end())
            commitSpin(it->second);
    }

    void
    run(const Tracer &log)
    {
        size_t hist = stats::Histogram::kDefaultBuckets;
        r.numNodes = p.numNodes ? p.numNodes : 1;
        r.eventCount = log.size();
        r.waitHist.assign(hist, 0);
        r.blockHist.assign(hist, 0);
        r.spinHist.assign(hist, 0);

        uint64_t last_cycle = 0;
        for (const TaskEvent &e : log) {
            step(e);
            last_cycle = e.cycle;
        }
        r.totalCycles = p.totalCycles ? p.totalCycles : last_cycle;

        finishUp();
    }

    void
    step(const TaskEvent &e)
    {
        // Attribute the frame's work since its previous event to
        // whatever task occupies the slot.
        Slot &sl = slotOf(e.node, e.frame);
        if (sl.seen && sl.task != kNone && e.work >= sl.lastWork)
            r.tasks[sl.task].work += e.work - sl.lastWork;
        sl.lastWork = e.work;
        sl.seen = true;

        switch (e.kind) {
          case Ev::RootBegin: {
            uint32_t idx = mint(e.node, e.cycle, kNone);
            r.tasks[idx].ran = true;
            r.tasks[idx].runCycle = e.cycle;
            r.tasks[idx].runNode = e.node;
            sl.task = idx;
            break;
          }
          case Ev::RootEnd:
            if (sl.task != kNone) {
                r.tasks[sl.task].resolveCycle = e.cycle;
                sl.task = kNone;
            }
            break;
          case Ev::Spawn: {
            uint32_t idx = mint(e.node, e.cycle, sl.task);
            byDesc[e.addr] = idx;
            if (e.aux) {
                byFuture[e.aux] = idx;
                r.tasks[idx].future = e.aux;
            }
            ++r.spawns;
            break;
          }
          case Ev::SpawnLazy:
            // A lazy push is only a potential task: if the owner later
            // reclaims it inline (LazyMine) no task is minted, matching
            // lazy task creation semantics — the continuation only
            // becomes a schedulable task when a thief claims it.
            pendingLazy[e.addr] = {sl.task, sl.task != kNone
                                                ? r.tasks[sl.task].work
                                                : 0,
                                   e.cycle, e.node};
            if (sl.task != kNone)
                lazyStack[sl.task].push_back(e.addr);
            ++r.spawns;
            break;
          case Ev::MakeFuture:
            break;
          case Ev::PopTask:
            progress(e.node);
            break;
          case Ev::StealAttempt: {
            ++r.stealAttempts;
            uint32_t run = ++convoyRun[e.node];
            if (run == p.convoyLength) {
                ++r.health.stealConvoys;
                healthNote("steal convoy on node " +
                           std::to_string(e.node) + " at cycle " +
                           std::to_string(e.cycle));
            }
            break;
          }
          case Ev::StealTask: {
            progress(e.node);
            auto it = byDesc.find(e.addr);
            if (it != byDesc.end())
                r.tasks[it->second].stolen = true;
            ++r.steals;
            break;
          }
          case Ev::StealWon: {
            progress(e.node);
            auto it = pendingLazy.find(e.addr);
            if (it != pendingLazy.end()) {
                const PendingLazy &pl = it->second;
                uint32_t idx = mint(pl.node, pl.cycle, pl.parent);
                // mint() snapshots the parent's work *now*; the edge
                // really forked at push time, so restore that snapshot.
                r.tasks[idx].parentWorkAtSpawn = pl.parentWork;
                r.tasks[idx].lazy = true;
                r.tasks[idx].stolen = true;
                byMarker[e.addr] = idx;
                pendingLazy.erase(it);
                ++r.steals;
            }
            break;
          }
          case Ev::LazyPub: {
            auto it = byMarker.find(e.addr);
            if (it != byMarker.end() && e.aux) {
                uint32_t cont = it->second;
                r.tasks[cont].future = e.aux;
                byCont[e.aux] = cont;
                // The continuation's future is resolved by the task
                // that keeps executing the body: the parent.
                uint32_t prod = parentIdx[cont];
                if (prod != kNone)
                    byFuture[e.aux] = prod;
            }
            break;
          }
          case Ev::LazyMine: {
            // Owner reclaimed its newest still-pending marker (the
            // compiler guarantees LIFO nesting of lazy regions).
            if (sl.task == kNone)
                break;
            auto &stk = lazyStack[sl.task];
            while (!stk.empty() && !pendingLazy.count(stk.back()))
                stk.pop_back();
            if (!stk.empty()) {
                pendingLazy.erase(stk.back());
                stk.pop_back();
            }
            break;
          }
          case Ev::LazyStolen:
            // The producer noticed the theft; it resolves the future
            // via rt$resolve next, which the Resolve event handles.
            break;
          case Ev::LazyResume: {
            progress(e.node);
            auto it = byCont.find(e.addr);
            if (it != byCont.end()) {
                uint32_t idx = it->second;
                TaskInfo &t = r.tasks[idx];
                if (!t.ran) {
                    t.ran = true;
                    t.runCycle = e.cycle;
                    t.runNode = e.node;
                }
                sl.task = idx;
            }
            break;
          }
          case Ev::Run: {
            progress(e.node);
            auto it = byDesc.find(e.addr);
            if (it != byDesc.end()) {
                uint32_t idx = it->second;
                TaskInfo &t = r.tasks[idx];
                if (!t.ran) {
                    t.ran = true;
                    t.runCycle = e.cycle;
                    t.runNode = e.node;
                }
                sl.task = idx;
            }
            break;
          }
          case Ev::Resolve: {
            progress(e.node);
            SyncWord &sw = syncOf(e.addr);
            auto it = byFuture.find(e.addr);
            if (it == byFuture.end() && sl.task != kNone)
                byFuture[e.addr] = sl.task;
            uint32_t prod =
                it != byFuture.end() ? it->second : sl.task;
            if (prod != kNone) {
                sw.producer = r.tasks[prod].id;
                if (!r.tasks[prod].resolveCycle)
                    r.tasks[prod].resolveCycle = e.cycle;
            }
            // rt$resolve is called as the task body completes (by the
            // scheduler wrapper or stolenExit); the frame falls back
            // into the scheduler afterwards.
            if (sl.task != kNone && sl.task == prod)
                sl.task = kNone;
            break;
          }
          case Ev::Touch: {
            SyncWord &sw = syncOf(e.addr);
            ++sw.touches;
            auto it = byFuture.find(e.addr);
            if (it != byFuture.end())
                addDep(sl.task, it->second);
            // Repeated touches of one cell with no progress between
            // them are the switch-spinning wait loop (spinTouch): each
            // revolution re-executes the touch and traps again. Merge
            // the run into a spin episode; a lone touch is the
            // resolved fast path and commits to nothing.
            SpinEpisode &sp = spins[e.node];
            if (sp.open && (sp.addr != e.addr || sp.kind != e.kind))
                commitSpin(sp);
            if (!sp.open) {
                sp.open = true;
                sp.addr = e.addr;
                sp.kind = e.kind;
                sp.first = e.cycle;
                sp.count = 0;
            }
            sp.last = e.cycle;
            ++sp.count;
            break;
          }
          case Ev::Block: {
            ++syncOf(e.addr).blocks;
            auto it = byFuture.find(e.addr);
            if (it != byFuture.end())
                addDep(sl.task, it->second);
            byThread[e.aux] = blocksLog.size();
            blocksLog.push_back({sl.task, e.cycle, e.addr, false});
            // The blocked thread leaves the frame; the scheduler's own
            // work is deliberately unattributed.
            sl.task = kNone;
            break;
          }
          case Ev::Resume:
          case Ev::ResumeStolen: {
            progress(e.node);
            auto it = byThread.find(e.addr);
            if (it == byThread.end())
                break;
            PendingBlock &pb = blocksLog[it->second];
            pb.resumed = true;
            uint64_t wait = e.cycle - pb.cycle;
            if (pb.task != kNone) {
                r.tasks[pb.task].waitCycles += wait;
                if (e.kind == Ev::ResumeStolen)
                    r.tasks[pb.task].stolen = true;
            }
            SyncWord &sw = syncOf(pb.future);
            ++sw.episodes;
            sw.totalWait += wait;
            sw.maxWait = std::max(sw.maxWait, wait);
            r.waitTotal += wait;
            histAdd(r.blockHist, wait);
            histAdd(r.waitHist, wait);
            if (wait > p.starvationThreshold) {
                ++r.health.starvation;
                healthNote("starvation: " + std::to_string(wait) +
                           " cycles blocked on word " +
                           std::to_string(pb.future));
            }
            // The restored thread takes over this (node, frame).
            sl.task = pb.task;
            byThread.erase(it);
            break;
          }
          case Ev::FeStall:
          case Ev::TasRetry: {
            SpinEpisode &sp = spins[e.node];
            if (sp.open && (sp.addr != e.addr || sp.kind != e.kind))
                commitSpin(sp);
            if (!sp.open) {
                sp.open = true;
                sp.addr = e.addr;
                sp.kind = e.kind;
                sp.first = e.cycle;
                sp.count = 0;
            }
            sp.last = e.cycle;
            ++sp.count;
            break;
          }
          case Ev::FrameSwitch:
            ++r.switches;
            break;
        }
    }

    void
    finishUp()
    {
        for (auto &[node, sp] : spins)
            commitSpin(sp);

        // Deterministic order: syncWords were created in stream order,
        // but the spins map iteration above appends episodes in hash
        // order — episode *totals* are still per-word and so order
        // independent. Sort sync words by address for a canonical
        // serialization.
        std::sort(r.syncWords.begin(), r.syncWords.end(),
                  [](const SyncWord &a, const SyncWord &b) {
                      return a.addr < b.addr;
                  });

        for (const PendingBlock &pb : blocksLog) {
            if (!pb.resumed) {
                ++r.health.lostWakeups;
                healthNote("no wakeup for thread blocked on word " +
                           std::to_string(pb.future) + " at cycle " +
                           std::to_string(pb.cycle));
            }
        }

        for (const TaskInfo &t : r.tasks)
            r.totalWork += t.work;

        computeCriticalPath();

        r.lowerBound = std::max(double(r.criticalPath),
                                r.numNodes ? double(r.totalWork) /
                                                 double(r.numNodes)
                                           : double(r.totalWork));
        if (r.totalCycles) {
            r.score = std::min(1.0, r.lowerBound / double(r.totalCycles));
            uint64_t lb = uint64_t(r.lowerBound);
            r.exposed = r.totalCycles > lb ? r.totalCycles - lb : 0;
        }
    }

    void
    computeCriticalPath()
    {
        size_t n = r.tasks.size();
        if (!n)
            return;
        // start[i] = position of the spawn point on the parent's
        // timeline, accumulated up the spawn tree. Parents are always
        // minted before children, so one forward pass suffices.
        std::vector<uint64_t> start(n, 0);
        for (size_t i = 0; i < n; ++i) {
            uint32_t par = parentIdx[i];
            if (par != kNone)
                start[i] = start[par] + r.tasks[i].parentWorkAtSpawn;
        }

        // finish[i] = start[i] + work[i], pushed later by dependency
        // edges: a wait on producer d entered at local work offset w
        // resumes at finish[d] and still has (work[i] - w) to do.
        // Iterative DFS with a cycle guard (malformed logs fall back to
        // the spawn-only bound).
        std::vector<uint8_t> state(n, 0); // 0 new, 1 open, 2 done
        std::vector<int64_t> bestDep(n, -1);
        for (size_t root = 0; root < n; ++root) {
            if (state[root] == 2)
                continue;
            std::vector<std::pair<uint32_t, size_t>> stack;
            stack.push_back({uint32_t(root), 0});
            state[root] = 1;
            while (!stack.empty()) {
                auto &[i, di] = stack.back();
                TaskInfo &t = r.tasks[i];
                if (di == 0)
                    t.finish = start[i] + t.work;
                if (di < t.deps.size()) {
                    uint32_t d = t.deps[di].first;
                    ++di;
                    if (state[d] == 0) {
                        state[d] = 1;
                        stack.push_back({d, 0});
                    }
                    continue;
                }
                for (size_t k = 0; k < t.deps.size(); ++k) {
                    auto [d, w] = t.deps[k];
                    if (state[d] != 2)
                        continue; // cycle: skip the edge
                    uint64_t via = r.tasks[d].finish + (t.work - w);
                    if (via > t.finish) {
                        t.finish = via;
                        bestDep[i] = int64_t(d);
                    }
                }
                state[i] = 2;
                stack.pop_back();
            }
        }

        size_t tail = 0;
        for (size_t i = 0; i < n; ++i) {
            if (r.tasks[i].finish > r.tasks[tail].finish)
                tail = i;
        }
        r.criticalPath = r.tasks[tail].finish;

        // Walk the chain back: the dependency edge that set finish if
        // any, otherwise the spawn edge.
        std::vector<uint64_t> chain;
        size_t cur = tail;
        size_t guard = 0;
        while (guard++ <= n) {
            if (r.tasks[cur].onCriticalPath)
                break;          // joined an already-walked segment
            r.tasks[cur].onCriticalPath = true;
            chain.push_back(r.tasks[cur].id);
            if (bestDep[cur] >= 0)
                cur = size_t(bestDep[cur]);
            else if (parentIdx[cur] != kNone)
                cur = parentIdx[cur];
            else
                break;
        }
        std::reverse(chain.begin(), chain.end());
        r.criticalChain = std::move(chain);
    }
};

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

void
writeHist(std::ostream &os, const char *name,
          const std::vector<uint64_t> &h, bool &first)
{
    os << (first ? "" : ",") << "\"" << name << "\":[";
    for (size_t i = 0; i < h.size(); ++i)
        os << (i ? "," : "") << h[i];
    os << "]";
    first = false;
}

} // namespace

Report
analyze(const Tracer &log, const AnalyzeParams &params)
{
    Analyzer a(params);
    a.run(log);
    return std::move(a.r);
}

void
writeReportJson(std::ostream &os, const Report &r)
{
    os << "{\"schemaVersion\":1,\"numNodes\":" << r.numNodes
       << ",\"totalCycles\":" << r.totalCycles
       << ",\"events\":" << r.eventCount << ",\"dropped\":" << r.dropped
       << ",\"totalWork\":" << r.totalWork
       << ",\"criticalPath\":" << r.criticalPath
       << ",\"lowerBound\":" << fmtDouble(r.lowerBound)
       << ",\"score\":" << fmtDouble(r.score)
       << ",\"exposed\":" << r.exposed << ",\"waitTotal\":" << r.waitTotal
       << ",\"spawns\":" << r.spawns << ",\"steals\":" << r.steals
       << ",\"stealAttempts\":" << r.stealAttempts
       << ",\"switches\":" << r.switches;

    os << ",\"tasks\":[";
    for (size_t i = 0; i < r.tasks.size(); ++i) {
        const TaskInfo &t = r.tasks[i];
        os << (i ? "," : "") << "{\"id\":" << t.id
           << ",\"parent\":" << t.parent << ",\"node\":" << t.spawnNode
           << ",\"ranOn\":" << t.runNode
           << ",\"lazy\":" << (t.lazy ? 1 : 0)
           << ",\"stolen\":" << (t.stolen ? 1 : 0)
           << ",\"ran\":" << (t.ran ? 1 : 0)
           << ",\"spawned\":" << t.spawnCycle << ",\"run\":" << t.runCycle
           << ",\"resolved\":" << t.resolveCycle
           << ",\"future\":" << t.future << ",\"work\":" << t.work
           << ",\"wait\":" << t.waitCycles
           << ",\"critical\":" << (t.onCriticalPath ? 1 : 0) << "}";
    }
    os << "]";

    os << ",\"syncWords\":[";
    for (size_t i = 0; i < r.syncWords.size(); ++i) {
        const SyncWord &s = r.syncWords[i];
        os << (i ? "," : "") << "{\"addr\":" << s.addr
           << ",\"producer\":" << s.producer
           << ",\"episodes\":" << s.episodes
           << ",\"totalWait\":" << s.totalWait
           << ",\"maxWait\":" << s.maxWait << ",\"touches\":" << s.touches
           << ",\"blocks\":" << s.blocks << ",\"feStalls\":" << s.feStalls
           << ",\"tasRetries\":" << s.tasRetries << "}";
    }
    os << "]";

    os << ",\"criticalChain\":[";
    for (size_t i = 0; i < r.criticalChain.size(); ++i)
        os << (i ? "," : "") << r.criticalChain[i];
    os << "]";

    os << ",";
    bool first = true;
    writeHist(os, "waitHist", r.waitHist, first);
    writeHist(os, "blockHist", r.blockHist, first);
    writeHist(os, "spinHist", r.spinHist, first);

    os << ",\"health\":{\"starvation\":" << r.health.starvation
       << ",\"stealConvoys\":" << r.health.stealConvoys
       << ",\"lostWakeups\":" << r.health.lostWakeups << ",\"notes\":[";
    for (size_t i = 0; i < r.health.notes.size(); ++i) {
        os << (i ? "," : "") << "\"";
        for (char c : r.health.notes[i]) {
            if (c == '"' || c == '\\')
                os << '\\';
            os << c;
        }
        os << "\"";
    }
    os << "]}}";
}

void
writeReportText(std::ostream &os, const Report &r)
{
    char buf[256];
    os << "task observability report\n";
    os << "=========================\n";
    std::snprintf(buf, sizeof(buf),
                  "  nodes %u  cycles %" PRIu64 "  events %" PRIu64
                  "  dropped %" PRIu64 "\n",
                  r.numNodes, r.totalCycles, r.eventCount, r.dropped);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  spawns %u  steals %u  steal attempts %u  switches %u\n",
                  r.spawns, r.steals, r.stealAttempts, r.switches);
    os << buf;

    os << "\nlatency tolerance\n";
    std::snprintf(buf, sizeof(buf),
                  "  total work      %" PRIu64 "\n  critical path   %" PRIu64
                  "\n  DAG lower bound %.1f\n",
                  r.totalWork, r.criticalPath, r.lowerBound);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  T_actual        %" PRIu64 "\n  exposed latency %" PRIu64
                  "  (hidden: %" PRIu64 " of %" PRIu64 " wait cycles)\n",
                  r.totalCycles, r.exposed,
                  r.waitTotal > r.exposed ? r.waitTotal - r.exposed : 0,
                  r.waitTotal);
    os << buf;
    std::snprintf(buf, sizeof(buf), "  tolerance score %.4f\n", r.score);
    os << buf;

    // Slowest tasks by work + wait.
    std::vector<size_t> order(r.tasks.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        uint64_t ca = r.tasks[a].work + r.tasks[a].waitCycles;
        uint64_t cb = r.tasks[b].work + r.tasks[b].waitCycles;
        if (ca != cb)
            return ca > cb;
        return r.tasks[a].id < r.tasks[b].id;
    });
    os << "\nslowest tasks (work+wait)\n";
    size_t shown = 0;
    for (size_t i : order) {
        if (shown++ >= 10)
            break;
        const TaskInfo &t = r.tasks[i];
        std::snprintf(buf, sizeof(buf),
                      "  %2u#%-6u work %-8" PRIu64 " wait %-8" PRIu64
                      " %s%s%s\n",
                      uint32_t(t.id >> 32), uint32_t(t.id), t.work,
                      t.waitCycles, t.lazy ? "lazy " : "",
                      t.stolen ? "stolen " : "",
                      t.onCriticalPath ? "CRITICAL" : "");
        os << buf;
    }

    // Hottest sync words by total wait.
    std::vector<size_t> sorder(r.syncWords.size());
    for (size_t i = 0; i < sorder.size(); ++i)
        sorder[i] = i;
    std::sort(sorder.begin(), sorder.end(), [&](size_t a, size_t b) {
        if (r.syncWords[a].totalWait != r.syncWords[b].totalWait)
            return r.syncWords[a].totalWait > r.syncWords[b].totalWait;
        return r.syncWords[a].addr < r.syncWords[b].addr;
    });
    os << "\nhottest sync words\n";
    shown = 0;
    for (size_t i : sorder) {
        if (shown++ >= 10)
            break;
        const SyncWord &s = r.syncWords[i];
        std::snprintf(buf, sizeof(buf),
                      "  word %-10u wait %-8" PRIu64 " max %-7" PRIu64
                      " touches %-5u blocks %-4u fe %-5u tas %-5u by %u#%u\n",
                      s.addr, s.totalWait, s.maxWait, s.touches, s.blocks,
                      s.feStalls, s.tasRetries, uint32_t(s.producer >> 32),
                      uint32_t(s.producer));
        os << buf;
    }

    os << "\ncritical path (" << r.criticalChain.size() << " tasks)\n  ";
    for (size_t i = 0; i < r.criticalChain.size(); ++i) {
        if (i) {
            os << " -> ";
            if (i % 6 == 0)
                os << "\n  ";
        }
        os << (uint32_t)(r.criticalChain[i] >> 32) << "#"
           << uint32_t(r.criticalChain[i]);
    }
    os << "\n";

    os << "\nhealth\n";
    std::snprintf(buf, sizeof(buf),
                  "  starvation %u  steal convoys %u  lost wakeups %u\n",
                  r.health.starvation, r.health.stealConvoys,
                  r.health.lostWakeups);
    os << buf;
    for (const std::string &n : r.health.notes)
        os << "  ! " << n << "\n";
}

} // namespace april::task
