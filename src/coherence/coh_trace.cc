#include "coherence/coh_trace.hh"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace april::coh
{

namespace
{

/** One transaction's events, grouped for export. */
struct TxnGroup
{
    uint64_t id = 0;
    std::vector<size_t> events;     ///< indices into the flat log
};

/**
 * Group the flat log by transaction id in first-appearance order
 * (deterministic: the log itself is canonical).
 */
std::vector<TxnGroup>
groupByTxn(const std::vector<TxnEvent> &events)
{
    std::vector<TxnGroup> groups;
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < events.size(); ++i) {
        uint64_t id = events[i].txn;
        auto [it, inserted] = index.try_emplace(id, groups.size());
        if (inserted)
            groups.push_back({id, {}});
        groups[it->second].events.push_back(i);
    }
    return groups;
}

/** Derived per-transaction summary. */
struct TxnSummary
{
    const TxnEvent *issue = nullptr;
    const TxnEvent *fill = nullptr;
    uint64_t firstCycle = 0;
    uint64_t lastCycle = 0;
    uint32_t invs = 0;
    uint32_t acks = 0;
};

TxnSummary
summarize(const std::vector<TxnEvent> &events, const TxnGroup &g)
{
    TxnSummary s;
    s.firstCycle = events[g.events.front()].cycle;
    s.lastCycle = events[g.events.back()].cycle;
    for (size_t i : g.events) {
        const TxnEvent &e = events[i];
        switch (e.phase) {
          case TxnPhase::Issue:
            if (!s.issue)
                s.issue = &e;
            break;
          case TxnPhase::Fill:
            s.fill = &e;
            break;
          case TxnPhase::InvSend:
            ++s.invs;
            break;
          case TxnPhase::InvAck:
            ++s.acks;
            break;
          default:
            break;
        }
        s.lastCycle = std::max(s.lastCycle, e.cycle);
    }
    return s;
}

} // namespace

std::vector<TxnRecord>
summarizeTransactions(const std::vector<TxnEvent> &events)
{
    std::vector<TxnRecord> records;
    for (const TxnGroup &g : groupByTxn(events)) {
        TxnSummary s = summarize(events, g);
        const TxnEvent &head = events[g.events.front()];
        TxnRecord r;
        r.id = g.id;
        r.line = head.line;
        r.requester = uint32_t(g.id >> 32);
        r.write = head.write;
        r.invs = s.invs;
        r.acks = s.acks;
        if (s.issue) {
            r.issued = s.issue->cycle;
            r.home = s.issue->peer;
            r.frame = s.issue->frame;
        }
        if (s.fill)
            r.filled = s.fill->cycle;
        r.complete = s.issue && s.fill;
        records.push_back(r);
    }
    return records;
}

void
writeJson(std::ostream &os, const TxnTracer &log)
{
    const std::vector<TxnEvent> &events = log.events();
    os << "{\"schemaVersion\":1,\"dropped\":" << log.dropped()
       << ",\"transactions\":[";
    bool first_txn = true;
    for (const TxnGroup &g : groupByTxn(events)) {
        TxnSummary s = summarize(events, g);
        os << (first_txn ? "\n" : ",\n");
        first_txn = false;
        os << "{\"id\":" << g.id
           << ",\"node\":" << uint32_t(g.id >> 32)
           << ",\"line\":" << events[g.events.front()].line
           << ",\"write\":" << (events[g.events.front()].write ? 1 : 0);
        if (s.issue) {
            os << ",\"issued\":" << s.issue->cycle
               << ",\"home\":" << s.issue->peer
               << ",\"frame\":" << uint32_t(s.issue->frame);
        }
        if (s.fill) {
            os << ",\"filled\":" << s.fill->cycle;
            if (s.issue)
                os << ",\"latency\":" << (s.fill->cycle - s.issue->cycle);
        }
        os << ",\"complete\":" << (s.issue && s.fill ? 1 : 0)
           << ",\"invs\":" << s.invs << ",\"acks\":" << s.acks
           << ",\"events\":[";
        bool first_ev = true;
        for (size_t i : g.events) {
            const TxnEvent &e = events[i];
            os << (first_ev ? "" : ",");
            first_ev = false;
            os << "{\"c\":" << e.cycle << ",\"n\":" << e.node
               << ",\"ph\":\"" << txnPhaseName(e.phase)
               << "\",\"peer\":" << e.peer << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
}

namespace
{

/** One Chrome trace-event object on an open event array. */
void
writeChromeEvent(std::ostream &os, bool &first, const std::string &name,
                 const char *ph, uint64_t ts, uint32_t pid, uint64_t id,
                 const std::string &args)
{
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << name
       << "\",\"ph\":\"" << ph << "\",\"cat\":\"txn\",\"ts\":" << ts
       << ",\"pid\":" << pid << ",\"tid\":0,\"id\":" << id;
    if (!args.empty())
        os << ",\"args\":{" << args << "}";
    os << "}";
}

} // namespace

void
writeChromeEvents(std::ostream &os, bool &first, const TxnTracer &log)
{
    const std::vector<TxnEvent> &events = log.events();
    for (const TxnGroup &g : groupByTxn(events)) {
        TxnSummary s = summarize(events, g);
        const TxnEvent &head = events[g.events.front()];
        uint32_t requester = uint32_t(g.id >> 32);
        std::string name = std::string(head.write ? "write" : "read") +
                           " line " + std::to_string(head.line);
        // Async span covering the transaction's lifetime on the
        // requester's process.
        writeChromeEvent(os, first, name, "b", s.firstCycle, requester,
                         g.id,
                         "\"line\":" + std::to_string(head.line) +
                             ",\"invs\":" + std::to_string(s.invs) +
                             ",\"acks\":" + std::to_string(s.acks));
        // Flow arrows stitching each leg to the node that acted.
        for (size_t k = 0; k < g.events.size(); ++k) {
            const TxnEvent &e = events[g.events[k]];
            const char *ph = k == 0                      ? "s"
                             : k + 1 == g.events.size() ? "f"
                                                        : "t";
            writeChromeEvent(os, first, txnPhaseName(e.phase), ph,
                             e.cycle, e.node, g.id,
                             "\"peer\":" + std::to_string(e.peer));
        }
        writeChromeEvent(os, first, name, "e", s.lastCycle, requester,
                         g.id, "");
    }
}

} // namespace april::coh
