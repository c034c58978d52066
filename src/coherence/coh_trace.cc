#include "coherence/coh_trace.hh"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"

namespace april::coh
{

namespace
{

constexpr uint32_t kEnd = UINT32_MAX;

/**
 * The log's transactions as flat arrays: `heads` holds the index of
 * each transaction's first leg, in first-appearance order, and
 * `next[i]` the index of the leg after leg i in the same transaction
 * (kEnd after its last). Built by sorting (txn, index) pairs, so no
 * transaction gets a heap node of its own.
 */
struct TxnGroups
{
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
};

TxnGroups
groupByTxn(const TxnTracer &log)
{
    panicIfNot(log.size() < kEnd, "groupByTxn: more legs than indices");
    std::vector<std::pair<uint64_t, uint32_t>> pairs;
    pairs.reserve(log.size());
    uint32_t i = 0;
    for (const TxnEvent &e : log)
        pairs.emplace_back(e.txn, i++);
    std::sort(pairs.begin(), pairs.end());

    TxnGroups g;
    g.next.assign(pairs.size(), kEnd);
    for (size_t k = 0; k < pairs.size(); ++k) {
        if (k && pairs[k].first == pairs[k - 1].first)
            g.next[pairs[k - 1].second] = pairs[k].second;
        else
            g.heads.push_back(pairs[k].second);
    }
    std::sort(g.heads.begin(), g.heads.end());
    return g;
}

/**
 * The legs a forward pass over the log has decoded and not yet
 * released, indexed by log position. Transactions are visited in
 * head order and every leg of one follows its head, so the window
 * only spans the legs of the transactions in flight at a time.
 */
class LegWindow
{
  public:
    explicit LegWindow(const TxnTracer &log) : next_(log.begin()) {}

    /** Leg @p i (at or after the last release point). The reference
     *  stays valid until that leg is released. */
    const TxnEvent &
    at(uint32_t i)
    {
        while (base_ + legs_.size() <= i) {
            legs_.push_back(*next_);
            ++next_;
        }
        return legs_[i - base_];
    }

    /** Forget the legs before index @p i. */
    void
    release(uint32_t i)
    {
        while (base_ < i && !legs_.empty()) {
            legs_.pop_front();
            ++base_;
        }
    }

  private:
    TxnTracer::Iterator next_;
    std::deque<TxnEvent> legs_;
    uint32_t base_ = 0;         ///< log index of legs_.front()
};

/** One transaction: its legs in log order and what they add up to. */
struct Txn
{
    uint64_t id = 0;
    std::vector<const TxnEvent *> legs;
    const TxnEvent *issue = nullptr;
    const TxnEvent *fill = nullptr;
    uint64_t firstCycle = 0;
    uint64_t lastCycle = 0;
    uint32_t invs = 0;
    uint32_t acks = 0;

    const TxnEvent &head() const { return *legs.front(); }
};

void
summarize(Txn &t)
{
    t.id = t.head().txn;
    t.issue = t.fill = nullptr;
    t.invs = t.acks = 0;
    t.firstCycle = t.head().cycle;
    t.lastCycle = 0;
    for (const TxnEvent *e : t.legs) {
        switch (e->phase) {
          case TxnPhase::Issue:
            if (!t.issue)
                t.issue = e;
            break;
          case TxnPhase::Fill:
            t.fill = e;
            break;
          case TxnPhase::InvSend:
            ++t.invs;
            break;
          case TxnPhase::InvAck:
            ++t.acks;
            break;
          default:
            break;
        }
        t.lastCycle = std::max(t.lastCycle, e->cycle);
    }
}

/**
 * Call @p fn with each transaction of @p log in first-appearance
 * order (deterministic: the log itself is canonical).
 */
template <typename Fn>
void
forEachTxn(const TxnTracer &log, Fn &&fn)
{
    const TxnGroups g = groupByTxn(log);
    LegWindow window(log);
    Txn t;
    for (uint32_t h : g.heads) {
        window.release(h);
        t.legs.clear();
        for (uint32_t i = h; i != kEnd; i = g.next[i])
            t.legs.push_back(&window.at(i));
        summarize(t);
        fn(t);
    }
}

} // namespace

std::vector<TxnRecord>
summarizeTransactions(const TxnTracer &log)
{
    std::vector<TxnRecord> records;
    forEachTxn(log, [&](const Txn &t) {
        TxnRecord r;
        r.id = t.id;
        r.line = t.head().line;
        r.requester = uint32_t(t.id >> 32);
        r.write = t.head().write;
        r.invs = t.invs;
        r.acks = t.acks;
        if (t.issue) {
            r.issued = t.issue->cycle;
            r.home = t.issue->peer;
            r.frame = t.issue->frame;
        }
        if (t.fill)
            r.filled = t.fill->cycle;
        r.complete = t.issue && t.fill;
        records.push_back(r);
    });
    return records;
}

void
writeJson(std::ostream &os, const TxnTracer &log)
{
    os << "{\"schemaVersion\":1,\"dropped\":" << log.dropped()
       << ",\"transactions\":[";
    bool first_txn = true;
    forEachTxn(log, [&](const Txn &t) {
        os << (first_txn ? "\n" : ",\n");
        first_txn = false;
        os << "{\"id\":" << t.id << ",\"node\":" << uint32_t(t.id >> 32)
           << ",\"line\":" << t.head().line
           << ",\"write\":" << (t.head().write ? 1 : 0);
        if (t.issue) {
            os << ",\"issued\":" << t.issue->cycle
               << ",\"home\":" << t.issue->peer
               << ",\"frame\":" << uint32_t(t.issue->frame);
        }
        if (t.fill) {
            os << ",\"filled\":" << t.fill->cycle;
            if (t.issue)
                os << ",\"latency\":" << (t.fill->cycle - t.issue->cycle);
        }
        os << ",\"complete\":" << (t.issue && t.fill ? 1 : 0)
           << ",\"invs\":" << t.invs << ",\"acks\":" << t.acks
           << ",\"events\":[";
        bool first_ev = true;
        for (const TxnEvent *e : t.legs) {
            os << (first_ev ? "" : ",");
            first_ev = false;
            os << "{\"c\":" << e->cycle << ",\"n\":" << e->node
               << ",\"ph\":\"" << txnPhaseName(e->phase)
               << "\",\"peer\":" << e->peer << "}";
        }
        os << "]}";
    });
    os << "\n]}\n";
}

void
writeChromeEvents(std::ostream &os, bool &first, const TxnTracer &log)
{
    forEachTxn(log, [&](const Txn &t) {
        const TxnEvent &head = t.head();
        const uint32_t requester = uint32_t(t.id >> 32);
        auto name = [&](std::ostream &o) {
            o << (head.write ? "write" : "read") << " line " << head.line;
        };
        // Async span covering the transaction's lifetime on the
        // requester's process.
        trace::writeSpanEvent(os, first, name, "b", "txn", t.firstCycle,
                              requester, t.id, [&](std::ostream &o) {
                                  o << "\"line\":" << head.line
                                    << ",\"invs\":" << t.invs
                                    << ",\"acks\":" << t.acks;
                              });
        // Flow arrows stitching each leg to the node that acted.
        for (size_t k = 0; k < t.legs.size(); ++k) {
            const TxnEvent &e = *t.legs[k];
            const char *ph = k == 0                    ? "s"
                             : k + 1 == t.legs.size() ? "f"
                                                      : "t";
            trace::writeSpanEvent(
                os, first, txnPhaseName(e.phase), ph, "txn", e.cycle, e.node,
                t.id, [&](std::ostream &o) { o << "\"peer\":" << e.peer; });
        }
        trace::writeSpanEvent(os, first, name, "e", "txn", t.lastCycle,
                              requester, t.id);
    });
}

} // namespace april::coh
