/**
 * @file
 * Murphi-style exhaustive explorer over the coherence-protocol spec
 * (DESIGN.md §7.9). The abstract machine is one cache line, 2-4
 * nodes, the line's home directory on node 0, and one bounded FIFO
 * channel per (src, dst) node pair; cross-channel reordering comes
 * from delivering any channel's head, same-route FIFO matches the
 * ordered paths the implementation relies on (grant-before-recall,
 * eviction-WbData-before-re-request).
 *
 * States are canonicalized under permutation of the non-home nodes
 * (node 0 is pinned: it is the home and a distinguished cache) and
 * deduplicated by their canonical byte encoding; BFS guarantees
 * counterexample traces are shortest-in-steps. Checked on every
 * state:
 *
 *  - SWMR: a Modified copy excludes every other Shared/Modified copy.
 *  - Data value: every Shared/Modified copy is fresh (holds the last
 *    written value — the freshness-bit abstraction of "reads return
 *    the last write").
 *  - Inv/ack balance: in-flight Inv + InvAck exactly equals the
 *    directory's pendingAcks while collecting, zero otherwise.
 *  - Fence balance: the sum of node fence counters equals the
 *    in-flight fence-flagged WbData plus FenceAck messages.
 *  - LimitedPtr bookkeeping: resident pointers never exceed the
 *    hardware budget; the spill count never exceeds the sharer count.
 *  - Waiting-queue bounds and directory wait/busy sanity.
 *
 * Post-exploration over the stored edge list:
 *
 *  - Deadlock: no reachable state has pending work (messages, MSHRs,
 *    busy directory, queued waiters, unbalanced fences) with no
 *    enabled delivery.
 *  - Bounded liveness: every reachable state can reach a quiescent
 *    state (all MSHRs filled, directory idle, channels drained) — so
 *    every request can reach its Fill and every busy line its Unpend
 *    drain. This is the EF formulation, the strongest liveness an
 *    explicit-state reachability checker supports.
 *
 * What is bounded (not exhaustive): channel depth (kChanDepth), node
 * count, one line, fence counters (ExploreParams::maxFence). Within
 * those bounds every interleaving is covered.
 */

#ifndef APRIL_MC_EXPLORE_HH
#define APRIL_MC_EXPLORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mc/spec.hh"

namespace april::mc
{

/** Per-channel FIFO depth. 4 covers the protocol's worst same-route
 *  stack (grant + recall + invalidation + fence ack); deliveries that
 *  would overflow are counted, never silently dropped. */
inline constexpr uint8_t kChanDepth = 4;

/** Cache/MSHR/fence view of one node. */
struct NodeState
{
    CacheState cache = CacheState::Invalid;
    bool fresh = false;
    bool mshrValid = false;     ///< a Read/WriteReq is outstanding
    bool mshrWrite = false;
    uint8_t fence = 0;          ///< outstanding FLUSH fence count

    bool operator==(const NodeState &) const = default;
};

/** One FIFO channel. */
struct Channel
{
    uint8_t n = 0;
    std::array<SpecMsg, kChanDepth> q{};

    bool operator==(const Channel &) const = default;
};

/** One global state of the abstract machine. */
struct State
{
    std::array<NodeState, kMaxNodes> nodes{};
    DirEntry dir;
    bool memFresh = true;
    /// chan[src * nodes + dst]
    std::array<Channel, kMaxNodes * kMaxNodes> chan{};

    bool operator==(const State &) const = default;
};

/** A spontaneous or delivery action driving one transition. */
struct Action
{
    enum Kind : uint8_t
    {
        IssueRead,  ///< a: node — send ReadReq (cache Invalid)
        IssueWrite, ///< a: node — send WriteReq (Invalid or Shared)
        Store,      ///< a: node — write the Modified copy
        Evict,      ///< a: node — drop the copy (Modified: WbData)
        Flush,      ///< a: node — FLUSH a Modified copy (fence++)
        Deliver,    ///< a: src, b: dst — deliver the channel head
    };
    Kind kind = IssueRead;
    uint8_t a = 0;
    uint8_t b = 0;
};

struct ExploreParams
{
    SpecParams spec;
    uint32_t nodes = 3;         ///< 2..kMaxNodes; home is node 0
    uint64_t maxStates = 2'000'000;
    uint8_t maxFence = 2;
    bool symmetry = true;       ///< canonicalize over non-home nodes
    bool checkLiveness = true;  ///< store edges, run the EF pass
};

/** One invariant violation with its shortest counterexample. */
struct Violation
{
    std::string kind;           ///< "SWMR", "DataValue", ...
    std::string detail;
    /// Message-sequence trace from the initial state, one line per
    /// step in coherence-report span vocabulary (Issue / HomeQueue /
    /// HomeHandle / InvSend / InvAck / WbReqSend / WbRecv /
    /// ReplySend / Fill).
    std::vector<std::string> trace;
};

struct ExploreResult
{
    uint64_t states = 0;
    uint64_t transitions = 0;
    uint32_t diameter = 0;      ///< deepest BFS level reached
    bool capped = false;        ///< hit maxStates before closure
    uint64_t blockedDeliveries = 0; ///< backpressured by kChanDepth
    std::vector<Violation> violations;
    std::array<uint64_t, kNumDirRules> dirRuleFires{};
    std::array<uint64_t, kNumCacheRules> cacheRuleFires{};

    bool ok() const { return violations.empty() && !capped; }
};

/** Exhaustively explore the protocol under @p p. Stops at the first
 *  violation (its trace is shortest by BFS). */
ExploreResult explore(const ExploreParams &p);

/** One-line human summary ("fullmap n=3: 12345 states, ..."). */
std::string summarize(const ExploreParams &p, const ExploreResult &r);

} // namespace april::mc

#endif // APRIL_MC_EXPLORE_HH
