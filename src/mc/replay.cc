#include "mc/replay.hh"

#include <sstream>

#include "common/json_parse.hh"
#include "coherence/coh_trace.hh"

namespace april::mc
{

namespace
{

constexpr size_t kMaxErrors = 32;

void
addError(ReplayResult &r, const std::string &msg)
{
    if (r.errors.size() < kMaxErrors)
        r.errors.push_back(msg);
}

/** Leg counts and boundary cycles of one transaction group. */
struct TxnShape
{
    uint64_t id = 0;
    uint64_t issues = 0, queues = 0, handles = 0;
    uint64_t invSends = 0, invAcks = 0;
    uint64_t wbReqs = 0, wbRecvs = 0;
    uint64_t replies = 0, fills = 0;
    uint64_t issueCycle = 0, handleCycle = 0;
    uint64_t replyCycle = 0, fillCycle = 0;
    bool issueFirst = false, fillLast = false;
    bool cyclesOrdered = true;
    uint32_t requester = 0;
    bool haveHome = false;
    uint32_t home = 0;
    /// Events not recorded by the node the span shape demands.
    uint64_t misattributed = 0;
};

coh::TxnPhase
phaseFromName(const std::string &name, bool &known)
{
    known = true;
    for (int p = 0; p <= int(coh::TxnPhase::Fill); ++p) {
        if (name == coh::txnPhaseName(coh::TxnPhase(p)))
            return coh::TxnPhase(p);
    }
    known = false;
    return coh::TxnPhase::Issue;
}

void
checkShape(ReplayResult &r, const TxnShape &t, bool complete)
{
    std::ostringstream id;
    id << "txn " << t.id << ": ";
    auto bad = [&](const std::string &why) { addError(r, id.str() + why); };

    if (t.issues > 1)
        bad("more than one Issue leg");
    if (t.fills > 1)
        bad("more than one Fill leg");
    if (t.fills > 0 && t.issues == 0)
        bad("Fill without an Issue");
    if (t.fills > 0 && t.handles == 0)
        bad("Fill without a HomeHandle");
    if (t.replies > 0 && t.handles == 0)
        bad("ReplySend without a HomeHandle");
    if (!t.cyclesOrdered)
        bad("leg cycles are not non-decreasing");
    if (t.misattributed > 0)
        bad("leg recorded by a node the span shape does not allow");
    if (complete) {
        if (!t.issueFirst)
            bad("Issue is not the first leg");
        if (!t.fillLast)
            bad("Fill is not the last leg");
        if (t.replies != 1)
            bad("complete transaction without exactly one ReplySend");
        if (t.invAcks != t.invSends)
            bad("InvAck count does not match InvSend count");
        if (t.wbRecvs != t.wbReqs)
            bad("WbRecv count does not match WbReqSend count");
        if (t.queues > t.handles)
            bad("more HomeQueue legs than HomeHandle legs");
        if (t.issueCycle > t.handleCycle ||
            t.handleCycle > t.replyCycle || t.replyCycle > t.fillCycle)
            bad("Issue/HomeHandle/ReplySend/Fill cycles out of order");
    } else {
        // An in-flight tail transaction: the prefix must still be
        // causally sane (no acks without invalidations, etc.).
        if (t.invAcks > t.invSends)
            bad("more InvAck legs than InvSend legs");
        if (t.wbRecvs > t.wbReqs)
            bad("more WbRecv legs than WbReqSend legs");
    }
}

uint64_t
asU64(const json::Json &j)
{
    return uint64_t(j.number);
}

void
replayTransaction(ReplayResult &r, const json::Json &txn)
{
    ++r.transactions;
    TxnShape t;
    t.id = asU64(txn.at("id"));
    t.requester = uint32_t(t.id >> 32);
    if (txn.has("home")) {
        t.haveHome = true;
        t.home = uint32_t(asU64(txn.at("home")));
    }
    bool complete = txn.has("complete") && txn.at("complete").number != 0;
    const json::Json &events = txn.at("events");
    if (!events.isArray()) {
        addError(r, "txn " + std::to_string(t.id) +
                        ": 'events' is not an array");
        return;
    }
    uint64_t prev_cycle = 0;
    for (size_t i = 0; i < events.array.size(); ++i) {
        const json::Json &e = events.array[i];
        ++r.events;
        uint64_t cycle = asU64(e.at("c"));
        uint32_t node = uint32_t(asU64(e.at("n")));
        bool known = false;
        coh::TxnPhase ph = phaseFromName(e.at("ph").str, known);
        if (!known) {
            addError(r, "txn " + std::to_string(t.id) +
                            ": unknown phase '" + e.at("ph").str + "'");
            continue;
        }
        if (i > 0 && cycle < prev_cycle)
            t.cyclesOrdered = false;
        prev_cycle = cycle;
        bool at_requester = node == t.requester;
        bool at_home = !t.haveHome || node == t.home;
        switch (ph) {
          case coh::TxnPhase::Issue:
            ++t.issues;
            t.issueCycle = cycle;
            if (i == 0)
                t.issueFirst = true;
            if (!at_requester)
                ++t.misattributed;
            break;
          case coh::TxnPhase::HomeQueue:
            ++t.queues;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::HomeHandle:
            ++t.handles;
            if (t.handles == 1)
                t.handleCycle = cycle;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::InvSend:
            ++t.invSends;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::InvAck:
            ++t.invAcks;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::WbReqSend:
            ++t.wbReqs;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::WbRecv:
            ++t.wbRecvs;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::ReplySend:
            ++t.replies;
            t.replyCycle = cycle;
            if (!at_home)
                ++t.misattributed;
            break;
          case coh::TxnPhase::Fill:
            ++t.fills;
            t.fillCycle = cycle;
            if (i + 1 == events.array.size())
                t.fillLast = true;
            if (!at_requester)
                ++t.misattributed;
            break;
        }
    }
    if (complete)
        ++r.complete;
    // The summary tallies must agree with the legs they summarize.
    if (txn.has("invs") && asU64(txn.at("invs")) != t.invSends)
        addError(r, "txn " + std::to_string(t.id) +
                        ": 'invs' summary disagrees with InvSend legs");
    if (txn.has("acks") && asU64(txn.at("acks")) != t.invAcks)
        addError(r, "txn " + std::to_string(t.id) +
                        ": 'acks' summary disagrees with InvAck legs");
    if (complete && txn.has("latency") && txn.has("issued") &&
        txn.has("filled") &&
        asU64(txn.at("latency")) !=
            asU64(txn.at("filled")) - asU64(txn.at("issued")))
        addError(r, "txn " + std::to_string(t.id) +
                        ": 'latency' is not filled - issued");
    checkShape(r, t, complete);
}

} // namespace

ReplayResult
replayCohTrace(const std::string &json_text)
{
    ReplayResult r;
    json::Json root;
    try {
        root = json::parseJson(json_text);
    } catch (const std::exception &e) {
        addError(r, std::string("parse error: ") + e.what());
        return r;
    }
    if (!root.isObject() || !root.has("schemaVersion") ||
        asU64(root.at("schemaVersion")) != 1) {
        addError(r, "not a schemaVersion-1 cohTrace document");
        return r;
    }
    if (root.has("dropped") && asU64(root.at("dropped")) != 0) {
        r.refused = true;
        addError(r, "trace dropped " +
                        std::to_string(asU64(root.at("dropped"))) +
                        " legs at the capacity cap; checks would be "
                        "vacuous — re-record with a larger "
                        "capacity");
        return r;
    }
    const json::Json &txns = root.at("transactions");
    if (!txns.isArray()) {
        addError(r, "'transactions' is not an array");
        return r;
    }
    for (const json::Json &txn : txns.array)
        replayTransaction(r, txn);
    return r;
}

std::string
summarizeReplay(const ReplayResult &r)
{
    std::ostringstream os;
    if (r.ok()) {
        os << r.transactions << " transactions (" << r.complete
           << " complete), " << r.events << " legs, clean";
    } else {
        os << r.errors.size() << (r.refused ? " (refused)" : "")
           << " replay error" << (r.errors.size() == 1 ? "" : "s")
           << "; first: " << (r.errors.empty() ? "?" : r.errors[0]);
    }
    return os.str();
}

} // namespace april::mc
