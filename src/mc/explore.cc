#include "mc/explore.hh"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace april::mc
{

namespace
{

using Perm = std::array<uint8_t, kMaxNodes>;

Perm
identityPerm()
{
    Perm p{};
    for (uint8_t i = 0; i < kMaxNodes; ++i)
        p[i] = i;
    return p;
}

/** All permutations of the non-home nodes 1..N-1 (node 0 pinned). */
std::vector<Perm>
nodePerms(uint32_t nodes, bool symmetry)
{
    std::vector<Perm> out;
    Perm p = identityPerm();
    if (!symmetry || nodes <= 2) {
        out.push_back(p);
        return out;
    }
    do {
        out.push_back(p);
    } while (std::next_permutation(p.begin() + 1, p.begin() + nodes));
    return out;
}

SpecMsg
permMsg(const SpecMsg &m, const Perm &pi)
{
    SpecMsg r = m;
    r.from = pi[m.from];
    r.requester = pi[m.requester];
    return r;
}

State
applyPerm(const State &s, const Perm &pi, uint32_t nodes)
{
    State r;
    r.memFresh = s.memFresh;
    for (uint32_t i = 0; i < nodes; ++i)
        r.nodes[pi[i]] = s.nodes[i];
    for (uint32_t a = 0; a < nodes; ++a) {
        for (uint32_t b = 0; b < nodes; ++b) {
            Channel &c = r.chan[pi[a] * nodes + pi[b]];
            c = s.chan[a * nodes + b];
            for (uint8_t i = 0; i < c.n; ++i)
                c.q[i] = permMsg(c.q[i], pi);
        }
    }
    r.dir = s.dir;
    r.dir.owner = pi[s.dir.owner];
    r.dir.sharers = 0;
    r.dir.staleOwed = 0;
    for (uint32_t i = 0; i < nodes; ++i) {
        if (s.dir.sharers & (1u << i))
            r.dir.sharers |= uint16_t(1u << pi[i]);
        if (s.dir.staleOwed & (1u << i))
            r.dir.staleOwed |= uint8_t(1u << pi[i]);
    }
    r.dir.pending = permMsg(s.dir.pending, pi);
    for (uint8_t i = 0; i < s.dir.numWaiting; ++i)
        r.dir.waiting[i] = permMsg(s.dir.waiting[i], pi);
    return r;
}

/** Zero the protocol-dead fields so equivalent states collapse. */
void
normalize(State &s)
{
    if (s.dir.state != DirState::Exclusive)
        s.dir.owner = 0;
    if (!s.dir.busy || s.dir.wait == Wait::None)
        s.dir.pending = SpecMsg{};
    for (uint8_t i = s.dir.numWaiting; i < kMaxNodes; ++i)
        s.dir.waiting[i] = SpecMsg{};
    for (uint32_t i = 0; i < kMaxNodes; ++i) {
        if (s.nodes[i].cache == CacheState::Invalid)
            s.nodes[i].fresh = false;
        if (!s.nodes[i].mshrValid)
            s.nodes[i].mshrWrite = false;
    }
}

void
encodeMsg(std::string &out, const SpecMsg &m)
{
    out.push_back(char(uint8_t(size_t(m.type)) | uint8_t(m.from << 4) |
                       uint8_t(m.isWrite << 6) |
                       uint8_t(m.fenceAck << 7)));
    out.push_back(char(uint8_t(m.requester) | uint8_t(m.fresh << 2) |
                       uint8_t(m.solicited << 3)));
}

SpecMsg
decodeMsg(const std::string &in, size_t &at)
{
    uint8_t b0 = uint8_t(in[at++]);
    uint8_t b1 = uint8_t(in[at++]);
    SpecMsg m;
    m.type = MsgType(b0 & 0xf);
    m.from = (b0 >> 4) & 0x3;
    m.isWrite = (b0 >> 6) & 1;
    m.fenceAck = (b0 >> 7) & 1;
    m.requester = b1 & 0x3;
    m.fresh = (b1 >> 2) & 1;
    m.solicited = (b1 >> 3) & 1;
    return m;
}

std::string
encode(const State &s, uint32_t nodes)
{
    std::string out;
    out.reserve(24 + nodes * nodes * (1 + 2 * kChanDepth));
    for (uint32_t i = 0; i < nodes; ++i) {
        const NodeState &n = s.nodes[i];
        out.push_back(char(uint8_t(size_t(n.cache)) |
                           uint8_t(n.fresh << 2) |
                           uint8_t(n.mshrValid << 3) |
                           uint8_t(n.mshrWrite << 4) |
                           uint8_t(n.fence << 5)));
    }
    out.push_back(char(s.memFresh));
    const DirEntry &d = s.dir;
    out.push_back(char(uint8_t(size_t(d.state)) | uint8_t(d.busy << 2) |
                       uint8_t(size_t(d.wait) << 3) |
                       uint8_t(d.owner << 5)));
    out.push_back(char(uint8_t(d.pendingAcks) |
                       uint8_t(d.spilled << 4)));
    out.push_back(char(uint8_t(d.sharers)));
    out.push_back(char(d.staleOwed));
    out.push_back(char(d.numWaiting));
    encodeMsg(out, d.pending);
    for (uint8_t i = 0; i < d.numWaiting; ++i)
        encodeMsg(out, d.waiting[i]);
    for (uint32_t c = 0; c < nodes * nodes; ++c) {
        const Channel &ch = s.chan[c];
        out.push_back(char(ch.n));
        for (uint8_t i = 0; i < ch.n; ++i)
            encodeMsg(out, ch.q[i]);
    }
    return out;
}

State
decode(const std::string &in, uint32_t nodes)
{
    State s;
    size_t at = 0;
    for (uint32_t i = 0; i < nodes; ++i) {
        uint8_t b = uint8_t(in[at++]);
        NodeState &n = s.nodes[i];
        n.cache = CacheState(b & 0x3);
        n.fresh = (b >> 2) & 1;
        n.mshrValid = (b >> 3) & 1;
        n.mshrWrite = (b >> 4) & 1;
        n.fence = (b >> 5) & 0x7;
    }
    s.memFresh = bool(in[at++]);
    uint8_t d0 = uint8_t(in[at++]);
    uint8_t d1 = uint8_t(in[at++]);
    s.dir.state = DirState(d0 & 0x3);
    s.dir.busy = (d0 >> 2) & 1;
    s.dir.wait = Wait((d0 >> 3) & 0x3);
    s.dir.owner = (d0 >> 5) & 0x3;
    s.dir.pendingAcks = d1 & 0xf;
    s.dir.spilled = (d1 >> 4) & 0xf;
    s.dir.sharers = uint8_t(in[at++]);
    s.dir.staleOwed = uint8_t(in[at++]);
    s.dir.numWaiting = uint8_t(in[at++]);
    s.dir.pending = decodeMsg(in, at);
    for (uint8_t i = 0; i < s.dir.numWaiting; ++i)
        s.dir.waiting[i] = decodeMsg(in, at);
    for (uint32_t c = 0; c < nodes * nodes; ++c) {
        Channel &ch = s.chan[c];
        ch.n = uint8_t(in[at++]);
        for (uint8_t i = 0; i < ch.n; ++i)
            ch.q[i] = decodeMsg(in, at);
    }
    return s;
}

/** Canonical (symmetry-reduced) encoding: lexicographically smallest
 *  over all non-home node permutations. @p permOut receives the
 *  winning permutation (for trace relabeling). */
std::string
canonicalKey(State s, const std::vector<Perm> &perms, uint32_t nodes,
             Perm *permOut = nullptr)
{
    normalize(s);
    std::string best;
    for (size_t i = 0; i < perms.size(); ++i) {
        State ps = applyPerm(s, perms[i], nodes);
        normalize(ps);
        std::string k = encode(ps, nodes);
        if (best.empty() || k < best) {
            best = std::move(k);
            if (permOut)
                *permOut = perms[i];
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// Transition function
// ---------------------------------------------------------------------

struct ApplyResult
{
    bool enabled = false;
    bool blocked = false;       ///< backpressured by a full channel
    State next;
    Outcome out;                ///< delivery actions: the spec outcome
    const char *violation = nullptr;
    std::string detail;
};

bool
pushMsg(State &s, uint32_t nodes, uint8_t src, uint8_t dst,
        const SpecMsg &m)
{
    Channel &c = s.chan[src * nodes + dst];
    if (c.n >= kChanDepth)
        return false;
    c.q[c.n++] = m;
    return true;
}

SpecMsg
popMsg(State &s, uint32_t nodes, uint8_t src, uint8_t dst)
{
    Channel &c = s.chan[src * nodes + dst];
    SpecMsg m = c.q[0];
    for (uint8_t i = 1; i < c.n; ++i)
        c.q[i - 1] = c.q[i];
    c.q[--c.n] = SpecMsg{};
    return m;
}

ApplyResult
apply(const State &s, Action a, const ExploreParams &p)
{
    constexpr uint8_t home = 0;
    uint32_t nodes = p.nodes;
    ApplyResult r;
    r.next = s;
    NodeState &self = r.next.nodes[a.a];

    switch (a.kind) {
      case Action::IssueRead:
      case Action::IssueWrite: {
        bool write = a.kind == Action::IssueWrite;
        const NodeState &n = s.nodes[a.a];
        if (n.mshrValid ||
            (write ? n.cache == CacheState::Modified
                   : n.cache != CacheState::Invalid)) {
            return r;
        }
        SpecMsg req;
        req.type = write ? MsgType::WriteReq : MsgType::ReadReq;
        req.from = a.a;
        req.requester = a.a;
        if (!pushMsg(r.next, nodes, a.a, home, req)) {
            r.blocked = true;
            return r;
        }
        self.mshrValid = true;
        self.mshrWrite = write;
        r.enabled = true;
        return r;
      }

      case Action::Store: {
        if (s.nodes[a.a].cache != CacheState::Modified)
            return r;
        // This store is now the globally last write: every other
        // copy, the memory, and any in-flight data payload is stale.
        for (uint32_t i = 0; i < nodes; ++i)
            r.next.nodes[i].fresh = i == a.a;
        r.next.memFresh = false;
        for (uint32_t c = 0; c < nodes * nodes; ++c) {
            for (uint8_t i = 0; i < r.next.chan[c].n; ++i) {
                SpecMsg &m = r.next.chan[c].q[i];
                if (coh::carriesData(m.type))
                    m.fresh = false;
            }
        }
        r.next.dir.pending.fresh = false;
        for (uint8_t i = 0; i < r.next.dir.numWaiting; ++i)
            r.next.dir.waiting[i].fresh = false;
        r.enabled = true;
        return r;
      }

      case Action::Evict: {
        const NodeState &n = s.nodes[a.a];
        if (n.cache == CacheState::Invalid)
            return r;
        if (n.cache == CacheState::Modified) {
            SpecMsg wb;
            wb.type = MsgType::WbData;
            wb.from = a.a;
            wb.requester = a.a;
            wb.fresh = n.fresh;
            if (!pushMsg(r.next, nodes, a.a, home, wb)) {
                r.blocked = true;
                return r;
            }
        }
        self.cache = CacheState::Invalid;
        self.fresh = false;
        r.enabled = true;
        return r;
      }

      case Action::Flush: {
        const NodeState &n = s.nodes[a.a];
        if (n.cache != CacheState::Modified || n.fence >= p.maxFence)
            return r;
        SpecMsg wb;
        wb.type = MsgType::WbData;
        wb.from = a.a;
        wb.requester = a.a;
        wb.fenceAck = true;
        wb.fresh = n.fresh;
        if (!pushMsg(r.next, nodes, a.a, home, wb)) {
            r.blocked = true;
            return r;
        }
        self.cache = CacheState::Invalid;
        self.fresh = false;
        self.fence++;
        r.enabled = true;
        return r;
      }

      case Action::Deliver: {
        const Channel &c = s.chan[a.a * nodes + a.b];
        if (c.n == 0)
            return r;
        SpecMsg m = popMsg(r.next, nodes, a.a, a.b);
        if (a.b == home && isHomeMsg(m.type)) {
            r.out = applyDir(p.spec, r.next.dir, m, r.next.memFresh,
                             home);
            r.next.dir = r.out.dir;
            r.next.memFresh = r.out.memFresh;
            if (r.out.queueOverflow) {
                r.violation = "QueueOverflow";
                r.detail = "waiting queue exceeded one request per "
                           "node at the home directory";
                r.enabled = true;
                return r;
            }
            for (uint8_t i = 0; i < r.out.numEmits; ++i) {
                if (!pushMsg(r.next, nodes, home, r.out.emits[i].to,
                             r.out.emits[i].msg)) {
                    r.blocked = true;
                    return r;
                }
            }
        } else {
            NodeState &n = r.next.nodes[a.b];
            r.out = applyCache(p.spec, n.cache, n.fresh, m, a.b);
            n.cache = r.out.cache;
            n.fresh = r.out.cacheFresh;
            if (m.type == MsgType::ReadReply ||
                m.type == MsgType::WriteReply) {
                if (!n.mshrValid) {
                    r.violation = "UnsolicitedFill";
                    r.detail = "reply delivered with no outstanding "
                               "request";
                    r.enabled = true;
                    return r;
                }
                n.mshrValid = false;
                n.mshrWrite = false;
            }
            if (r.out.fenceDelta < 0) {
                if (n.fence == 0) {
                    r.violation = "FenceUnderflow";
                    r.detail = "FenceAck with no outstanding fence";
                    r.enabled = true;
                    return r;
                }
                n.fence--;
            }
            for (uint8_t i = 0; i < r.out.numEmits; ++i) {
                if (!pushMsg(r.next, nodes, a.b, r.out.emits[i].to,
                             r.out.emits[i].msg)) {
                    r.blocked = true;
                    return r;
                }
            }
        }
        r.enabled = true;
        return r;
      }
    }
    return r;
}

std::vector<Action>
allActions(uint32_t nodes)
{
    std::vector<Action> out;
    for (uint8_t n = 0; n < nodes; ++n) {
        out.push_back({Action::IssueRead, n, 0});
        out.push_back({Action::IssueWrite, n, 0});
        out.push_back({Action::Store, n, 0});
        out.push_back({Action::Evict, n, 0});
        out.push_back({Action::Flush, n, 0});
    }
    for (uint8_t s = 0; s < nodes; ++s) {
        for (uint8_t d = 0; d < nodes; ++d)
            out.push_back({Action::Deliver, s, d});
    }
    return out;
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

struct Invariant
{
    const char *kind = nullptr;
    std::string detail;
};

std::optional<Invariant>
checkState(const State &s, const ExploreParams &p)
{
    uint32_t nodes = p.nodes;
    // SWMR: a Modified copy excludes every other copy.
    int modified = -1, copies = 0;
    for (uint32_t i = 0; i < nodes; ++i) {
        if (s.nodes[i].cache == CacheState::Invalid)
            continue;
        ++copies;
        if (s.nodes[i].cache == CacheState::Modified)
            modified = int(i);
    }
    if (modified >= 0 && copies > 1) {
        return Invariant{"SWMR",
                         "node " + std::to_string(modified) +
                             " holds Modified while another node "
                             "holds a copy"};
    }
    // Data value: every live copy holds the last-written value.
    for (uint32_t i = 0; i < nodes; ++i) {
        if (s.nodes[i].cache != CacheState::Invalid &&
            !s.nodes[i].fresh) {
            return Invariant{
                "DataValue",
                "node " + std::to_string(i) + " holds a stale " +
                    std::string(cacheStateName(s.nodes[i].cache)) +
                    " copy (read would not return the last write)"};
        }
    }
    // Inv/ack and fence balance over the in-flight messages.
    uint64_t invs = 0, acks = 0, fence_wbs = 0, fence_acks = 0;
    for (uint32_t c = 0; c < nodes * nodes; ++c) {
        for (uint8_t i = 0; i < s.chan[c].n; ++i) {
            const SpecMsg &m = s.chan[c].q[i];
            invs += m.type == MsgType::Inv;
            acks += m.type == MsgType::InvAck;
            fence_wbs += m.type == MsgType::WbData && m.fenceAck;
            fence_acks += m.type == MsgType::FenceAck;
        }
    }
    uint64_t expected =
        s.dir.busy && s.dir.wait == Wait::Acks ? s.dir.pendingAcks : 0;
    if (invs + acks != expected) {
        return Invariant{"InvAckBalance",
                         std::to_string(invs) + " Inv + " +
                             std::to_string(acks) +
                             " InvAck in flight vs pendingAcks=" +
                             std::to_string(expected)};
    }
    uint64_t fences = 0;
    for (uint32_t i = 0; i < nodes; ++i)
        fences += s.nodes[i].fence;
    if (fences != fence_wbs + fence_acks) {
        return Invariant{"FenceBalance",
                         "sum(fence)=" + std::to_string(fences) +
                             " vs in-flight fence WbData=" +
                             std::to_string(fence_wbs) + " FenceAck=" +
                             std::to_string(fence_acks)};
    }
    // Directory bookkeeping.
    if (s.dir.pendingAcks > 0 &&
        (!s.dir.busy || s.dir.wait != Wait::Acks)) {
        return Invariant{"DirSanity", "pendingAcks outside an "
                                      "ack-collection window"};
    }
    if (s.dir.numWaiting > 0 && !s.dir.busy)
        return Invariant{"DirSanity", "waiters parked on an idle line"};
    if (p.spec.scheme == DirScheme::LimitedPtr) {
        uint8_t count = s.dir.sharerCount();
        if (s.dir.spilled > count) {
            return Invariant{"LimitedPtr",
                             "spilled=" + std::to_string(s.dir.spilled) +
                                 " exceeds sharers=" +
                                 std::to_string(count)};
        }
        if (uint32_t(count - s.dir.spilled) > p.spec.dirPointers) {
            return Invariant{
                "LimitedPtr",
                "resident pointers " +
                    std::to_string(count - s.dir.spilled) +
                    " exceed the hardware budget " +
                    std::to_string(p.spec.dirPointers)};
        }
    } else if (s.dir.spilled != 0) {
        return Invariant{"LimitedPtr", "spill count under FullMap"};
    }
    return std::nullopt;
}

bool
hasPendingWork(const State &s, uint32_t nodes)
{
    for (uint32_t c = 0; c < nodes * nodes; ++c) {
        if (s.chan[c].n > 0)
            return true;
    }
    for (uint32_t i = 0; i < nodes; ++i) {
        if (s.nodes[i].mshrValid || s.nodes[i].fence > 0)
            return true;
    }
    return s.dir.busy || s.dir.numWaiting > 0 ||
           s.dir.pendingAcks > 0 || s.dir.wait != Wait::None;
}

bool
isQuiescent(const State &s, uint32_t nodes)
{
    return !hasPendingWork(s, nodes);
}

// ---------------------------------------------------------------------
// Trace rendering (coherence-report span vocabulary)
// ---------------------------------------------------------------------

std::string
emitsSummary(const Outcome &o)
{
    std::ostringstream os;
    for (uint8_t i = 0; i < o.numEmits; ++i) {
        const Emit &e = o.emits[i];
        os << (i ? ", " : "; ");
        switch (e.msg.type) {
          case MsgType::Inv: os << "InvSend->n" << int(e.to); break;
          case MsgType::WbReq:
            os << "WbReqSend->n" << int(e.to);
            break;
          case MsgType::ReadReply:
          case MsgType::WriteReply:
            os << "ReplySend("
               << (e.msg.type == MsgType::WriteReply ? "W" : "R")
               << ")->n" << int(e.to);
            break;
          case MsgType::FenceAck:
            os << "FenceAck->n" << int(e.to);
            break;
          case MsgType::Unpend: os << "Unpend"; break;
          default:
            os << coh::msgTypeName(e.msg.type) << "->n" << int(e.to);
        }
    }
    return os.str();
}

std::string
describeAction(const State &s, Action a, const ExploreParams &p)
{
    std::ostringstream os;
    ApplyResult r = apply(s, a, p);
    switch (a.kind) {
      case Action::IssueRead:
      case Action::IssueWrite:
        os << "Issue       n" << int(a.a) << " "
           << (a.kind == Action::IssueWrite ? "WriteReq" : "ReadReq")
           << " -> home";
        break;
      case Action::Store:
        os << "Store       n" << int(a.a)
           << " writes its Modified copy (memory now stale)";
        break;
      case Action::Evict:
        os << "Evict       n" << int(a.a) << " "
           << cacheStateName(s.nodes[a.a].cache)
           << (s.nodes[a.a].cache == CacheState::Modified
                   ? " -> WbData -> home"
                   : " (silent drop)");
        break;
      case Action::Flush:
        os << "Flush       n" << int(a.a)
           << " -> WbData[fence] -> home";
        break;
      case Action::Deliver: {
        const SpecMsg &m = s.chan[a.a * p.nodes + a.b].q[0];
        if (a.b == 0 && isHomeMsg(m.type)) {
            switch (m.type) {
              case MsgType::ReadReq:
              case MsgType::WriteReq:
                if (r.out.queued) {
                    os << "HomeQueue   " << coh::msgTypeName(m.type)
                       << " from n" << int(m.requester)
                       << " (line busy)";
                } else {
                    os << "HomeHandle  " << coh::msgTypeName(m.type)
                       << " from n" << int(m.requester) << " @"
                       << coh::dirStateName(s.dir.state) << " [R"
                       << int(r.out.rule) << " "
                       << dirRules()[r.out.rule].name << "]"
                       << emitsSummary(r.out);
                }
                break;
              case MsgType::InvAck:
                os << "InvAck      n" << int(m.from) << " -> home [R"
                   << int(r.out.rule) << " "
                   << dirRules()[r.out.rule].name << "]"
                   << emitsSummary(r.out);
                break;
              case MsgType::WbData:
              case MsgType::WbEmpty:
                os << "WbRecv      " << coh::msgTypeName(m.type)
                   << " from n" << int(m.from)
                   << (m.fenceAck ? " [fence]" : "") << " [R"
                   << int(r.out.rule) << " "
                   << dirRules()[r.out.rule].name << "]"
                   << emitsSummary(r.out);
                break;
              case MsgType::Unpend:
                os << "Unpend      home"
                   << (s.dir.numWaiting
                           ? " drains waiter [R" +
                                 std::to_string(int(r.out.rule)) +
                                 " " + dirRules()[r.out.rule].name +
                                 "]" + emitsSummary(r.out)
                           : " (no waiters)");
                break;
              default: os << coh::msgTypeName(m.type);
            }
        } else {
            switch (m.type) {
              case MsgType::Inv:
                os << "Inv         n" << int(a.b)
                   << " drops its copy; InvAck -> home";
                break;
              case MsgType::WbReq:
                os << "WbReq       n" << int(a.b) << " "
                   << (s.nodes[a.b].cache == CacheState::Modified
                           ? (m.isWrite
                                  ? "-> WbData home (invalidated)"
                                  : "-> WbData home (downgraded)")
                           : "-> WbEmpty home (copy raced away)");
                break;
              case MsgType::ReadReply:
              case MsgType::WriteReply:
                os << "Fill        n" << int(a.b) << " "
                   << (m.type == MsgType::WriteReply ? "Modified"
                                                     : "Shared")
                   << " fresh=" << int(m.fresh);
                break;
              case MsgType::FenceAck:
                os << "FenceAck    n" << int(a.b) << " fence--";
                break;
              default: os << coh::msgTypeName(m.type);
            }
        }
        break;
      }
    }
    return os.str();
}

std::string
describeState(const State &s, const ExploreParams &p)
{
    std::ostringstream os;
    os << "state: dir=" << coh::dirStateName(s.dir.state)
       << (s.dir.busy ? "+busy" : "") << " wait="
       << waitName(s.dir.wait) << " acks=" << int(s.dir.pendingAcks)
       << " sharers=";
    for (uint32_t i = 0; i < p.nodes; ++i)
        os << ((s.dir.sharers >> i) & 1);
    os << " spilled=" << int(s.dir.spilled)
       << " waiting=" << int(s.dir.numWaiting)
       << " memFresh=" << s.memFresh;
    for (uint32_t i = 0; i < p.nodes; ++i) {
        const NodeState &n = s.nodes[i];
        os << " | n" << i << "=" << cacheStateName(n.cache)[0]
           << (n.cache != CacheState::Invalid ? (n.fresh ? '+' : '-')
                                              : ' ')
           << (n.mshrValid ? (n.mshrWrite ? 'w' : 'r') : '.') << 'f'
           << int(n.fence);
    }
    uint32_t inflight = 0;
    for (uint32_t c = 0; c < p.nodes * p.nodes; ++c)
        inflight += s.chan[c].n;
    os << " | in-flight=" << inflight;
    return os.str();
}

// ---------------------------------------------------------------------
// The explorer proper
// ---------------------------------------------------------------------

struct Explorer
{
    const ExploreParams &p;
    std::vector<Perm> perms;
    std::vector<Action> actions;
    ExploreResult res;

    std::unordered_map<std::string, uint32_t> ids;
    std::vector<const std::string *> keyOf;
    std::vector<uint32_t> parent;
    std::vector<Action> via;
    std::vector<uint32_t> depth;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    std::deque<uint32_t> frontier;

    explicit Explorer(const ExploreParams &p_)
        : p(p_), perms(nodePerms(p_.nodes, p_.symmetry)),
          actions(allActions(p_.nodes))
    {
    }

    uint32_t
    intern(std::string key, uint32_t from, Action act, bool *fresh)
    {
        auto [it, inserted] =
            ids.emplace(std::move(key), uint32_t(keyOf.size()));
        *fresh = inserted;
        if (inserted) {
            keyOf.push_back(&it->first);
            parent.push_back(from);
            via.push_back(act);
            depth.push_back(from == UINT32_MAX ? 0 : depth[from] + 1);
            frontier.push_back(it->second);
        }
        return it->second;
    }

    /** Relabel-stable counterexample trace from the root to @p id,
     *  optionally extended by one more action. */
    std::vector<std::string>
    buildTrace(uint32_t id, const Action *extra)
    {
        std::vector<uint32_t> path;
        for (uint32_t v = id; v != UINT32_MAX; v = parent[v])
            path.push_back(v);
        std::reverse(path.begin(), path.end());

        std::vector<std::string> out;
        Perm sigma = identityPerm();
        State display;
        for (size_t i = 0; i < path.size(); ++i) {
            State canon = decode(*keyOf[path[i]], p.nodes);
            if (i + 1 < path.size() || extra) {
                Action act =
                    i + 1 < path.size() ? via[path[i + 1]] : *extra;
                // Print in root coordinates: sigma maps this state's
                // canonical labels back to the original ones.
                State disp = applyPerm(canon, sigma, p.nodes);
                Action dact = act;
                if (act.kind == Action::Deliver) {
                    dact.a = sigma[act.a];
                    dact.b = sigma[act.b];
                } else {
                    dact.a = sigma[act.a];
                }
                out.push_back(describeAction(disp, dact, p));
                display = apply(disp, dact, p).next;
                if (i + 1 < path.size()) {
                    // Compose sigma with the child's canonical perm.
                    State raw = apply(canon, act, p).next;
                    Perm pi;
                    canonicalKey(raw, perms, p.nodes, &pi);
                    Perm next = sigma;
                    for (uint32_t n = 0; n < p.nodes; ++n)
                        next[pi[n]] = sigma[n];
                    sigma = next;
                }
            } else {
                display = applyPerm(canon, sigma, p.nodes);
            }
        }
        out.push_back(describeState(display, p));
        return out;
    }

    void
    addViolation(const char *kind, const std::string &detail,
                 uint32_t from, const Action *act)
    {
        Violation v;
        v.kind = kind;
        v.detail = detail;
        v.trace = buildTrace(from, act);
        res.violations.push_back(std::move(v));
    }

    void
    run()
    {
        State init;
        bool fresh = false;
        intern(canonicalKey(init, perms, p.nodes), UINT32_MAX,
               Action{}, &fresh);
        if (auto bad = checkState(init, p)) {
            addViolation(bad->kind, bad->detail, 0, nullptr);
            return;
        }

        while (!frontier.empty()) {
            if (keyOf.size() >= p.maxStates) {
                res.capped = true;
                break;
            }
            uint32_t id = frontier.front();
            frontier.pop_front();
            State st = decode(*keyOf[id], p.nodes);
            res.diameter = std::max(res.diameter, depth[id]);
            bool any_enabled = false;

            for (const Action &a : actions) {
                ApplyResult r = apply(st, a, p);
                if (r.blocked) {
                    ++res.blockedDeliveries;
                    continue;
                }
                if (!r.enabled)
                    continue;
                any_enabled = true;
                ++res.transitions;
                if (a.kind == Action::Deliver) {
                    const SpecMsg &head =
                        st.chan[a.a * p.nodes + a.b].q[0];
                    if (a.b == 0 && isHomeMsg(head.type)) {
                        for (size_t i = 0; i < kNumDirRules; ++i) {
                            if (r.out.firedRules >> i & 1)
                                ++res.dirRuleFires[i];
                        }
                    } else {
                        ++res.cacheRuleFires[r.out.rule];
                    }
                }
                if (r.violation) {
                    addViolation(r.violation, r.detail, id, &a);
                    return;
                }
                if (auto bad = checkState(r.next, p)) {
                    addViolation(bad->kind, bad->detail, id, &a);
                    return;
                }
                uint32_t nid =
                    intern(canonicalKey(r.next, perms, p.nodes), id, a,
                           &fresh);
                if (p.checkLiveness)
                    edges.emplace_back(id, nid);
            }

            if (!any_enabled && hasPendingWork(st, p.nodes)) {
                addViolation("Deadlock",
                             "pending work with no enabled action",
                             id, nullptr);
                return;
            }
        }
        res.states = keyOf.size();
        if (p.checkLiveness && !res.capped)
            checkLiveness();
    }

    /** EF(quiescent) over the explored graph: every state must be
     *  able to reach a quiescent one, so every request can reach its
     *  Fill and every busy directory its Unpend drain. */
    void
    checkLiveness()
    {
        size_t n = keyOf.size();
        // Reverse adjacency (CSR).
        std::vector<uint32_t> head(n + 1, 0);
        for (auto &[from, to] : edges) {
            (void)from;
            ++head[to + 1];
        }
        for (size_t i = 1; i <= n; ++i)
            head[i] += head[i - 1];
        std::vector<uint32_t> radj(edges.size());
        std::vector<uint32_t> fill = head;
        for (auto &[from, to] : edges)
            radj[fill[to]++] = from;

        std::vector<uint8_t> good(n, 0);
        std::deque<uint32_t> q;
        for (uint32_t i = 0; i < n; ++i) {
            if (isQuiescent(decode(*keyOf[i], p.nodes), p.nodes)) {
                good[i] = 1;
                q.push_back(i);
            }
        }
        while (!q.empty()) {
            uint32_t v = q.front();
            q.pop_front();
            for (uint32_t e = head[v]; e < head[v + 1]; ++e) {
                if (!good[radj[e]]) {
                    good[radj[e]] = 1;
                    q.push_back(radj[e]);
                }
            }
        }
        for (uint32_t i = 0; i < n; ++i) {
            if (!good[i]) {
                addViolation(
                    "Liveness",
                    "state cannot reach quiescence: some request "
                    "never reaches its Fill / Unpend drain",
                    i, nullptr);
                return;
            }
        }
    }
};

} // namespace

ExploreResult
explore(const ExploreParams &p)
{
    panicIfNot(p.nodes >= 2 && p.nodes <= kMaxNodes,
               "mc: nodes must be in [2, ", kMaxNodes, "]");
    panicIfNot(p.maxFence <= 7,
               "mc: maxFence must fit the 3-bit state encoding");
    Explorer ex(p);
    ex.run();
    ex.res.states = ex.keyOf.size();
    return ex.res;
}

std::string
summarize(const ExploreParams &p, const ExploreResult &r)
{
    std::ostringstream os;
    os << coh::dirSchemeName(p.spec.scheme);
    if (p.spec.scheme == DirScheme::LimitedPtr)
        os << "(i=" << p.spec.dirPointers << ")";
    os << " nodes=" << p.nodes << ": " << r.states << " states, "
       << r.transitions << " transitions, diameter " << r.diameter;
    if (r.capped)
        os << " [CAPPED at " << p.maxStates << "]";
    if (r.violations.empty()) {
        os << ", no violations";
    } else {
        os << ", " << r.violations.size() << " violation ("
           << r.violations.front().kind << ")";
    }
    return os.str();
}

} // namespace april::mc
