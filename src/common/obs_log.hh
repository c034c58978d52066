/**
 * @file
 * The observability spine shared by the machine trace, the
 * coherence-transaction trace and the task trace (DESIGN.md §7.2):
 * one capped event log, one per-shard lane merge, one drop count and
 * the parameters that switch the planes on.
 *
 * Every plane records small cycle-stamped events, each stamped with
 * the node whose component recorded it. Under the parallel engine
 * each shard records into its own lane, so recording takes no lock.
 * A shard's clock only grows and it visits its nodes in ascending
 * order within a cycle, so each lane is sorted by (cycle, node), and
 * distinct lanes never share a (cycle, node) pair. A k-way merge on
 * that key therefore reproduces the one-shard emission order
 * exactly: the merged stream is bit-identical for every host-thread
 * count and with cycle-skipping on or off.
 */

#ifndef APRIL_COMMON_OBS_LOG_HH
#define APRIL_COMMON_OBS_LOG_HH

#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

namespace april
{

/** Switches of the observability planes, shared by AlewifeParams,
 *  PerfectMachineParams and DriverOptions. Every plane is purely
 *  observational: execution is identical either way. */
struct ObsParams
{
    /// Record machine events (context switches, traps, coherence
    /// transitions, network traffic, full/empty retries) for
    /// Chrome-trace export.
    bool traceEvents = false;
    /// Record every coherence transaction as a causally linked span
    /// (per-leg events keyed by a stable transaction id), exported as
    /// structured JSON and stitched into the Chrome trace. ALEWIFE
    /// only: the perfect-memory machine has no coherence traffic. The
    /// directory census and network telemetry stay always-on.
    bool cohTrace = false;
    /// Record the task/future lifecycle event stream (the runtime's
    /// `tp$...` probe notes plus the processor's wait hooks) for the
    /// task observability plane (DESIGN.md §7.10).
    bool taskTrace = false;
    /// Attach a PC sampler to every processor. Cycle accounting is
    /// always on; this adds the sampled-hotspot layer.
    bool profile = false;
    /// PC sample period in cycles when profile is on.
    uint64_t profilePeriod = 64;
    /// Snapshot every statistic each time the machine clock crosses a
    /// multiple of this many cycles (0: no time series). Quanta and
    /// cycle-skip windows are clamped at sample boundaries, which is
    /// cycle-exact.
    uint64_t statsInterval = 0;
    /// Recorded-event cap of each trace plane.
    uint64_t capacity = 1u << 22;
};

namespace obs
{

/** A flat append-only event log with a deterministic capacity cap. */
template <typename E>
class Log
{
  public:
    explicit Log(uint64_t capacity) : capacity_(capacity) {}

    /** Append one event (drops deterministically once full). */
    void
    record(const E &e)
    {
        if (events_.size() < capacity_)
            events_.push_back(e);
        else
            ++dropped_;
    }

    const std::vector<E> &events() const { return events_; }
    uint64_t dropped() const { return dropped_; }
    uint64_t capacity() const { return capacity_; }

    /** Fold another lane's overflow count into this log. */
    void addDropped(uint64_t n) { dropped_ += n; }

    /** Discard all recorded events (a merged-out lane). */
    void
    clear()
    {
        events_.clear();
        dropped_ = 0;
    }

  private:
    uint64_t capacity_;
    std::vector<E> events_;
    uint64_t dropped_ = 0;
};

/**
 * One observability plane of a machine: the merged log plus, with
 * several shards, one lane per shard. Off until open() is called;
 * an off plane hands out null logs, which components test before
 * recording, and reports nothing dropped.
 */
template <typename E>
class Plane
{
  public:
    /**
     * Turn the plane on for @p shards shards. With one shard the
     * components record into the merged log directly. A lane's
     * capacity equals the global one: any event a lane drops has at
     * least capacity earlier events in its own lane alone, so it
     * would be truncated from the merged log anyway.
     */
    void
    open(uint64_t capacity, uint32_t shards)
    {
        merged_.emplace(capacity);
        if (shards > 1)
            lanes_.assign(shards, Log<E>(capacity));
    }

    /** The log shard @p s records into (nullptr when off). */
    Log<E> *
    lane(uint32_t s)
    {
        if (!merged_)
            return nullptr;
        return lanes_.empty() ? &*merged_ : &lanes_[s];
    }

    /** The merged log, every lane folded in (nullptr when off). */
    Log<E> *
    merged()
    {
        if (!merged_)
            return nullptr;
        merge();
        return &*merged_;
    }

    /**
     * Events dropped at the cap, the same whether or not the lanes
     * have merged, and so for every host-thread count: the merged log
     * truncates exactly the events past the global capacity.
     */
    uint64_t
    dropped() const
    {
        if (!merged_)
            return 0;
        uint64_t dropped = merged_->dropped();
        uint64_t events = merged_->events().size();
        for (const Log<E> &l : lanes_) {
            dropped += l.dropped();
            events += l.events().size();
        }
        if (events > merged_->capacity())
            dropped += events - merged_->capacity();
        return dropped;
    }

  private:
    /** Canonical (cycle, node) k-way merge of the lanes into the
     *  merged log; the lanes are left empty. */
    void
    merge()
    {
        std::vector<size_t> at(lanes_.size(), 0);
        for (;;) {
            const E *best = nullptr;
            size_t from = 0;
            for (size_t i = 0; i < lanes_.size(); ++i) {
                if (at[i] >= lanes_[i].events().size())
                    continue;
                const E &e = lanes_[i].events()[at[i]];
                if (!best || e.cycle < best->cycle ||
                    (e.cycle == best->cycle && e.node < best->node)) {
                    best = &e;
                    from = i;
                }
            }
            if (!best)
                break;
            merged_->record(*best);
            ++at[from];
        }
        for (Log<E> &l : lanes_) {
            merged_->addDropped(l.dropped());
            l.clear();
        }
    }

    std::optional<Log<E>> merged_;
    std::vector<Log<E>> lanes_;
};

/**
 * Warn on stderr, once per machine (@p warned latches), when any
 * plane dropped events at its cap.
 */
inline void
warnOverflow(bool &warned, uint64_t events, uint64_t legs,
             uint64_t tasks)
{
    if (warned || (events == 0 && legs == 0 && tasks == 0))
        return;
    warned = true;
    std::cerr << "april: trace lane overflow: dropped " << events
              << " machine events, " << legs
              << " coherence-transaction legs, " << tasks
              << " task events (raise capacity)\n";
}

} // namespace obs
} // namespace april

#endif // APRIL_COMMON_OBS_LOG_HH
