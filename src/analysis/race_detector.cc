#include "analysis/race_detector.hh"

#include <algorithm>
#include <sstream>

namespace april::analysis
{

RaceDetector::RaceDetector(uint32_t num_nodes, stats::Group *parent)
    : stats::Group("races", parent),
      statRaces(this, "reported", "unsynchronized sharing reports"),
      statSyncWords(this, "syncWords",
                    "words exempted by f/e-bit discipline"),
      statWordsTracked(this, "wordsTracked",
                       "distinct data words observed"),
      held(num_nodes)
{
}

void
RaceDetector::intersect(WordState &w, const std::set<Addr> &h)
{
    if (w.locksetUniversal) {
        w.locksetUniversal = false;
        w.lockset = h;
        return;
    }
    std::set<Addr> keep;
    std::set_intersection(w.lockset.begin(), w.lockset.end(),
                          h.begin(), h.end(),
                          std::inserter(keep, keep.begin()));
    w.lockset = std::move(keep);
}

void
RaceDetector::report(WordState &w, uint64_t cycle, uint32_t node,
                     uint32_t pc, Addr addr, bool write)
{
    w.phase = Phase::Reported;
    ++statRaces;
    if (_reports.size() < kMaxReports)
        _reports.push_back({cycle, addr, node, pc, w.owner, write});
    if (trec) {
        trec->record({cycle, node, trace::EventKind::Race,
                      uint8_t(write), uint8_t(w.owner), addr, pc});
    }
}

void
RaceDetector::observe(uint64_t cycle, uint32_t node, uint32_t pc,
                      const MemAccess &req, const MemResult &res)
{
    Addr addr = req.addr;
    std::set<Addr> &h = held[node];

    // Full/empty and TAS traffic: synchronization, never race data.
    if (req.feTrap || req.feModify || req.op == MemOp::Tas) {
        auto [it, fresh] = words.try_emplace(addr);
        WordState &w = it->second;
        if (fresh) {
            ++statWordsTracked;
            w.owner = node;
        }
        if (!w.syncWord) {
            w.syncWord = true;
            ++statSyncWords;
        }
        bool acquired =
            (req.op == MemOp::Tas && res.data == 0) ||
            (req.op == MemOp::Load && req.feModify && res.wasFull);
        if (acquired)
            h.insert(addr);
        if (req.op == MemOp::Store && req.feModify)
            h.erase(addr);
        return;
    }
    if (req.op == MemOp::Flush)
        return;

    // Plain store to a word this node holds: the Encore unlock idiom
    // (stnw r0 into the lock cell) — a release, and the cell is a
    // sync word from here on.
    if (req.op == MemOp::Store && h.count(addr)) {
        h.erase(addr);
        auto [it, fresh] = words.try_emplace(addr);
        if (fresh) {
            ++statWordsTracked;
            it->second.owner = node;
        }
        if (!it->second.syncWord) {
            it->second.syncWord = true;
            ++statSyncWords;
        }
        return;
    }

    bool write = req.op == MemOp::Store;
    auto [it, fresh] = words.try_emplace(addr);
    WordState &w = it->second;
    if (fresh) {
        ++statWordsTracked;
        w.owner = node;             // Exclusive to the first toucher
        return;
    }
    if (w.syncWord || w.phase == Phase::Reported)
        return;

    if (w.phase == Phase::Exclusive) {
        if (node == w.owner)
            return;
        // Second node: Eraser's checking begins.
        w.phase = write ? Phase::SharedMod : Phase::Shared;
        intersect(w, h);
        if (w.phase == Phase::SharedMod && w.lockset.empty())
            report(w, cycle, node, pc, addr, write);
        return;
    }

    // Owner re-claim: a write by the original owner that would drain
    // the lockset is treated as an ownership hand-back (recycled stack
    // segments, thief markers), not a race.
    if (write && node == w.owner) {
        std::set<Addr> keep;
        std::set_intersection(w.lockset.begin(), w.lockset.end(),
                              h.begin(), h.end(),
                              std::inserter(keep, keep.begin()));
        if (!w.locksetUniversal && keep.empty()) {
            w.phase = Phase::Exclusive;
            w.locksetUniversal = true;
            w.lockset.clear();
            return;
        }
    }

    if (write)
        w.phase = Phase::SharedMod;
    intersect(w, h);
    if (w.phase == Phase::SharedMod && w.lockset.empty())
        report(w, cycle, node, pc, addr, write);
}

std::string
RaceDetector::formatReports() const
{
    std::ostringstream os;
    for (const Report &r : _reports) {
        os << "cycle " << r.cycle << ": node " << r.node << " pc "
           << r.pc << " " << (r.write ? "wrote" : "read") << " word "
           << r.addr << " also touched by node " << r.firstNode
           << " with no common lock or f/e discipline\n";
    }
    return os.str();
}

} // namespace april::analysis
