/**
 * @file
 * The per-node cache/directory controller (Figure 1, Section 5).
 *
 * The controller sits between the APRIL core and the machine:
 *
 *  - it services processor accesses out of the local cache, applying
 *    the full/empty semantics (it "performs full/empty bit
 *    synchronization");
 *  - on a miss it runs the directory protocol, deciding per access
 *    whether to hold the processor (MHOLD -> Retry) or to force a
 *    context switch (MEXC -> Switch): "a context switch occurs
 *    whenever the network must be used to satisfy a request"
 *    (Section 2.1);
 *  - it is the home site for its node's memory range: a full-map
 *    directory with strong coherence (invalidation acknowledgments
 *    counted before exclusive ownership is granted);
 *  - one outstanding transaction per hardware task frame, matching
 *    the switch-spinning design.
 */

#ifndef APRIL_COHERENCE_CONTROLLER_HH
#define APRIL_COHERENCE_CONTROLLER_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "coherence/coh_trace.hh"
#include "coherence/protocol.hh"
#include "common/trace.hh"
#include "mem/memory.hh"
#include "mem/paged_array.hh"
#include "proc/ports.hh"

namespace april
{
class Processor;
} // namespace april

namespace april::coh
{
using april::Processor;

/** Controller configuration. */
struct ControllerParams
{
    /// Controller cycles per message.
    static constexpr uint32_t kOccupancy = 2;
    /// Network size of a request, in flits.
    static constexpr uint32_t kReqFlits = 2;
    /// Network size of a data-carrying message, in flits.
    static constexpr uint32_t kDataFlits = 6;
    /// LimitedPtr: software spill-handler occupancy in cycles, paid
    /// by the transaction that overflows the pointer array and by
    /// exclusive requests that must walk the spilled-sharer table.
    static constexpr uint32_t kSpillPenalty = 50;

    cache::CacheParams cache;
    uint32_t memLatency = 10;   ///< local DRAM access (Table 4)
    /// Directory organization; FullMap is the paper's (and the
    /// differential oracle's) scheme, LimitedPtr the i-pointer
    /// LimitLESS-style directory that makes >64-node machines
    /// representable.
    DirScheme dirScheme = DirScheme::FullMap;
    /// LimitedPtr: hardware pointers per line before the overflow
    /// trap. 0 forces the spill handler on every sharer addition —
    /// the fuzzer's worst case.
    uint32_t dirPointers = 4;
};

/**
 * Observer of every recorded directory transition, together with the
 * message type that caused it. The model checker's conformance bridge
 * (mc::Conformance) implements this to assert each live transition
 * legal under the protocol spec; recording must be thread-safe (the
 * parallel engine calls it from shard workers) and must not throw.
 */
class TransitionListener
{
  public:
    virtual ~TransitionListener() = default;

    virtual void onDirTransition(uint32_t home, Addr line_addr,
                                 DirState old_state, MsgType cause,
                                 DirState new_state,
                                 uint32_t requester) = 0;
};

/** Message transport provided by the enclosing machine. */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /** Ship @p msg to node @p to (@p flits for the network model). */
    virtual void transmit(uint32_t to, const Message &msg,
                          uint32_t flits) = 0;
    virtual uint64_t now() const = 0;
};

/** The cache + directory controller; also the core's memory port. */
class Controller : public MemPort, public stats::Group
{
  public:
    Controller(const ControllerParams &params, uint32_t node_id,
               uint32_t num_frames, SharedMemory *memory,
               Fabric *fabric, stats::Group *parent = nullptr);

    /** Wire up the processor (for fence acknowledgments). */
    void setProcessor(Processor *p) { proc = p; }

    /** Attach the machine's event recorder (nullptr: tracing off). */
    void setTraceRecorder(trace::Recorder *r) { trec = r; }

    /** Attach the machine's coherence-transaction tracer (nullptr:
     *  transaction tracing off; census counters stay always-on). */
    void setTxnTracer(TxnTracer *t) { ttrace = t; }

    /** Attach a completed-access observer (nullptr: observation off). */
    void setObserver(MemObserver *o) { observer = o; }

    /** Attach a directory-transition listener (nullptr: off). */
    void setTransitionListener(TransitionListener *l) { tlisten = l; }

    // MemPort interface (processor side).
    MemResult access(const MemAccess &req) override;
    bool fillReady(uint8_t frame) const override;

    /** A network message arrived for this node. */
    void receive(const Message &msg);

    /** Advance one cycle: dispatch due work. */
    void tick();

    /**
     * Earliest cycle at which this controller can do observable work:
     * the next tick when the inbox holds messages, the earliest due
     * time of the occupancy/memory-latency queue otherwise, or
     * kNeverCycle when fully idle (outstanding MSHRs wait on messages
     * and generate no events themselves). Used by the machine's
     * cycle-skipping run loop.
     */
    uint64_t nextEventCycle() const;

    cache::Cache &cacheRef() { return _cache; }

    /** Always-on census of one home line: how often it transitions,
     *  how many invalidations it caused, how wide its sharer set got.
     *  The "churn" top-N of the coherence report. */
    struct LineCensus
    {
        uint64_t transitions = 0;
        uint64_t invs = 0;
        uint32_t maxSharers = 0;
        uint64_t spills = 0;    ///< pointer-overflow traps on this line

        /** Every census update bumps a counter, so a line was
         *  censused exactly when one of them is nonzero. */
        bool
        recorded() const
        {
            return transitions != 0 || invs != 0 || spills != 0;
        }
    };

    /** The census of home line @p line_addr; nullptr when the line is
     *  not homed here or was never censused. */
    const LineCensus *lineCensus(Addr line_addr) const;

    /** Call @p fn(line_addr, census) for every censused home line, in
     *  ascending address order (what the reports list at ties). */
    template <typename Fn>
    void
    forEachLineCensus(Fn &&fn) const
    {
        slots.forEachResidentPage(
            [&](size_t first, const uint32_t *page, size_t count) {
                for (size_t i = 0; i < count; ++i) {
                    if (page[i] == 0)
                        continue;
                    const LineCensus &c = entryAt(page[i]).census;
                    if (c.recorded())
                        fn(Addr(firstHomeLine + first + i), c);
                }
            });
    }

    /** Directory pages materialised so far (one per 4,096 home words
     *  that saw a coherence message). */
    size_t residentDirectoryPages() const { return slots.residentPages(); }

    stats::Scalar statLocalMisses;
    stats::Scalar statRemoteMisses;
    stats::Scalar statInvSent;
    stats::Scalar statInvAcks;
    stats::Scalar statWritebacks;
    /// Issue-to-fill cycles of remote transactions — the measured T(p)
    /// of Equation 1.
    stats::Histogram statRemoteLatency;
    /// Sharer-set width sampled at every directory state transition —
    /// the curve that sizes a limited directory (ROADMAP item 3).
    stats::Histogram statSharerCount;
    /// Invalidations each exclusive request triggered at this home.
    stats::Histogram statInvPerWrite;
    /// Per-transition directory counters (old state x new state),
    /// named dirUncachedToShared etc. — the TrapKind-style breakdown
    /// of the aggregate Coherence trace events.
    std::vector<stats::Scalar> statDirTransitions;
    /// LimitedPtr: pointer-array overflow traps taken (the software
    /// spill handler ran to dump the hardware pointers).
    stats::Scalar statOverflowTraps;
    /// LimitedPtr: hardware pointers dumped into the software table.
    stats::Scalar statSpilledPtrs;
    /// LimitedPtr: exclusive requests that had to walk the software
    /// table to enumerate spilled sharers.
    stats::Scalar statSpillWalks;
    /// High-water mark of the message inbox.
    stats::Scalar statInboxPeak;
    /// Instantaneous inbox depth (meaningful on the IntervalSampler
    /// grid; sampled at deterministic barrier points).
    stats::Formula statInboxDepth;

  private:
    /** A home request (ReadReq/WriteReq) as the directory keeps it
     *  while its line is busy: the fields the protocol still reads. */
    struct Request
    {
        uint64_t txn = 0;
        uint32_t requester = 0;
        MsgType type = MsgType::ReadReq;
    };

    /** Directory entry for one home line. Nothing in it allocates
     *  until the line has a sharer or a parked request. */
    struct DirEntry
    {
        /// What the in-progress transaction is waiting on.
        enum class Wait : uint8_t { None, Acks, Data };

        DirState state = DirState::Uncached;
        Wait wait = Wait::None;
        bool busy = false;          ///< transaction in progress
        /// LimitedPtr: sharers resident in the software spill table.
        uint32_t spilled = 0;
        uint32_t owner = 0;
        uint32_t pendingAcks = 0;
        Request pendingReq;
        /// The exact sharer set, ascending (invalidations go out in
        /// this order). Under LimitedPtr the first (size() - spilled)
        /// members occupy hardware pointers and the rest live in the
        /// software table; the set itself is always precise, so the
        /// schemes differ in timing only.
        std::vector<uint32_t> sharers;
        /// Requests parked behind the busy line, oldest first.
        std::vector<Request> waiting;
        LineCensus census;
    };

    /** Outstanding processor transaction (one per task frame). */
    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        bool write = false;
        uint64_t issued = 0;    ///< machine cycle the request left
        bool remote = false;    ///< home is another node
        uint64_t txn = 0;       ///< transaction id (node<<32 | seq)
    };

    uint32_t homeOf(Addr line_addr) const;
    /** Queue @p msg for @p to after controller occupancy (+ @p extra
     *  software-handler cycles). */
    void send(uint32_t to, Message msg, uint32_t extra = 0);
    /** Queue @p msg for @p to after occupancy + memory latency
     *  (+ @p extra software-handler cycles). */
    void sendAfterMemory(uint32_t to, Message msg, uint32_t extra = 0);
    void dispatch(uint32_t to, const Message &msg);

    /**
     * Add @p sharer to @p e's set under the configured directory
     * scheme. Under LimitedPtr, a new sharer that would need an
     * (i+1)-th hardware pointer takes the overflow trap: the handler
     * dumps all resident pointers into the software table and the
     * caller must charge the returned spill-handler cycles to the
     * triggering transaction. FullMap always returns 0.
     */
    uint32_t addSharer(DirEntry &e, Addr line_addr, uint32_t sharer);
    /** Empty @p e's sharer set (hardware pointers and spill table). */
    void clearSharers(DirEntry &e);
    /**
     * Software cycles an exclusive request pays before invalidating
     * @p e's sharers: the spill-table walk when any sharer lives in
     * software, 0 when the hardware pointers cover the set.
     */
    uint32_t spillWalkCost(DirEntry &e);

    /** Record a directory transition event (old state -> current);
     *  @p cause is the message type that drove it (the conformance
     *  listener checks (old, cause) -> new against the spec). */
    void recordTransition(DirEntry &e, DirState old_state,
                          Addr line_addr, uint32_t requester,
                          MsgType cause);

    /** The directory entry of home line @p line_addr. */
    DirEntry &dirEntry(Addr line_addr);

    void handleMessage(const Message &msg);
    void handleHomeRequest(Addr line_addr, const Request &req,
                           DirEntry &e);
    /** Finish the parked request; @p cause is the message completing
     *  it (InvAck, WbData or WbEmpty). */
    void completePending(Addr line_addr, DirEntry &e, MsgType cause);
    void drainWaiting(Addr line_addr, DirEntry &e);
    void fill(const Message &msg);
    /** Schedule reply + unpend marker behind the memory access (plus
     *  @p extra software spill-handler cycles, 0 under FullMap).
     *  @p txn is the granted transaction's id (0: untraced). */
    void replyAndUnpend(Addr line_addr, uint32_t requester, bool write,
                        uint64_t txn, uint32_t extra = 0);

    /** Append one transaction leg to the tracer (no-op when off). */
    void
    traceTxn(uint64_t txn, TxnPhase phase, Addr line, uint32_t peer,
             bool write, uint8_t frame = 0)
    {
        if (ttrace && txn != 0)
            ttrace->record({fabric->now(), txn, line, nodeId, peer,
                            phase, frame, write});
    }

    std::vector<MemWord> readMemoryLine(Addr line_addr) const;
    void writeMemoryLine(Addr line_addr,
                         const std::vector<MemWord> &words);
    void evict(const cache::Victim &victim);

    ControllerParams params;
    uint32_t nodeId;
    trace::Recorder *trec = nullptr;
    TxnTracer *ttrace = nullptr;
    MemObserver *observer = nullptr;
    TransitionListener *tlisten = nullptr;
    SharedMemory *mem;
    Fabric *fabric;
    Processor *proc = nullptr;
    cache::Cache _cache;

    /// The first line homed here; `slots` is indexed by line address
    /// minus this.
    Addr firstHomeLine;
    /// Per home line: 1 + the index of its entry (entryAt), or 0
    /// until the line's first coherence message. Paged like the memory
    /// image; a page covers the lines of 4,096 home words.
    PagedArray<uint32_t> slots;
    /// The entry of every touched home line, in first-touch order, in
    /// chunks of 2^kEntryChunkShift. A run touches a sparse quarter of
    /// each resident page's lines, so entries are not stored in the
    /// pages themselves. Chunks never move, so references stay valid
    /// as entries are added, and none is allocated before the first.
    static constexpr unsigned kEntryChunkShift = 5;
    static constexpr uint32_t kEntryChunkMask =
        (1u << kEntryChunkShift) - 1;
    std::vector<std::unique_ptr<DirEntry[]>> entryChunks;
    uint32_t numEntries = 0;

    /** The entry a nonzero slot value @p slot names. */
    DirEntry &
    entryAt(uint32_t slot) const
    {
        uint32_t i = slot - 1;
        return entryChunks[i >> kEntryChunkShift][i & kEntryChunkMask];
    }

    std::vector<Mshr> mshrs;
    uint64_t txnSeq = 0;        ///< per-node transaction sequence

    struct Delayed
    {
        uint64_t due;
        uint64_t seq;       ///< insertion order, the dispatch tiebreak
        uint32_t to;
        Message msg;

        /// std::push_heap builds a max-heap; invert for earliest-first.
        bool
        operator<(const Delayed &o) const
        {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };

    /**
     * Occupancy/memory-latency queue as a binary min-heap on
     * (due, seq), making tick() and nextEventCycle() O(1) when
     * nothing is due — the old linear scan was the cycle-skip
     * overhead on coherence-heavy workloads. Dispatch order is
     * unchanged: the machine ticks every cycle while this queue is
     * non-empty (nextEventCycle() reports the minimum due), so all
     * entries popped in one tick share the same due cycle and the seq
     * tiebreak reproduces the old insertion-order scan exactly.
     */
    std::vector<Delayed> delayed;
    uint64_t delayedSeq = 0;
    /// Messages awaiting handling, oldest first from `inboxHead`. A
    /// vector allocates nothing until the first message; the handled
    /// prefix is dropped when the inbox drains or fills half of it.
    std::vector<Message> inbox;
    size_t inboxHead = 0;

    size_t inboxDepth() const { return inbox.size() - inboxHead; }

    void pushDelayed(uint64_t due, uint32_t to, const Message &msg);
};

} // namespace april::coh

#endif // APRIL_COHERENCE_CONTROLLER_HH
