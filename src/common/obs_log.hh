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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
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

/**
 * The record codec of obs::Log. An event type E lists the fields its
 * records carry after the cycle in `static constexpr auto fields()`,
 * a tuple of pointers to its members; every field is an unsigned
 * integer, an enum over one, or a bool. A record is the zigzag delta
 * of the event's cycle from the previous record's, then one LEB128
 * varint per listed field. Cycles grow along a lane, so most deltas
 * take one or two bytes.
 */
namespace codec
{

template <typename M>
struct MemberOf;

template <typename C, typename T>
struct MemberOf<T C::*>
{
    using type = T;
};

/** Bytes of the longest LEB128 varint of a @p bits-bit value. */
constexpr size_t
varintMax(size_t bits)
{
    return (bits + 6) / 7;
}

template <typename T>
constexpr size_t
fieldMax()
{
    static_assert(std::is_same_v<T, bool> || std::is_enum_v<T> ||
                      std::is_unsigned_v<T>,
                  "log fields are unsigned integers, enums or bools");
    return varintMax(8 * sizeof(T));
}

/** Bytes of the longest record of an E. */
template <typename E>
constexpr size_t
maxRecordBytes()
{
    return std::apply(
        [](auto... f) {
            return (varintMax(64) + ... +
                    fieldMax<typename MemberOf<decltype(f)>::type>());
        },
        E::fields());
}

template <typename T>
uint64_t
toWire(T v)
{
    if constexpr (std::is_enum_v<T>)
        return uint64_t(std::underlying_type_t<T>(v));
    else
        return uint64_t(v);
}

template <typename T>
T
fromWire(uint64_t v)
{
    if constexpr (std::is_enum_v<T>)
        return T(std::underlying_type_t<T>(v));
    else
        return T(v);
}

inline uint8_t *
putVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

/** Encode @p e after a record whose cycle was @p prev into @p p
 *  (room for maxRecordBytes<E>()); returns the end of the record. */
template <typename E>
uint8_t *
encode(const E &e, uint64_t prev, uint8_t *p)
{
    const uint64_t delta = e.cycle - prev;
    p = putVarint(p, (delta << 1) ^ (0 - (delta >> 63)));
    std::apply([&](auto... f) { ((p = putVarint(p, toWire(e.*f))), ...); },
               E::fields());
    return p;
}

/** Decode one record into @p e, whose cycle holds the previous
 *  record's; @p byte yields the record's bytes in order. */
template <typename E, typename Next>
void
decode(E &e, Next &&byte)
{
    auto varint = [&] {
        uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            const uint8_t b = byte();
            v |= uint64_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
    };
    const uint64_t zz = varint();
    e.cycle += (zz >> 1) ^ (0 - (zz & 1));
    std::apply(
        [&](auto... f) {
            ((e.*f = fromWire<typename MemberOf<decltype(f)>::type>(
                  varint())),
             ...);
        },
        E::fields());
}

} // namespace codec

/**
 * An append-only event log with a deterministic event-count cap.
 * Records are varint-packed (obs::codec) into fixed-size byte chunks
 * that are never reallocated, and are read back by one forward
 * iteration, which decodes each event in turn.
 */
template <typename E>
class Log
{
  public:
    /// Bytes per storage chunk. A record may straddle two chunks.
    static constexpr size_t kChunkBytes = size_t(64) << 10;
    /// Bytes of the longest record.
    static constexpr size_t kMaxRecordBytes = codec::maxRecordBytes<E>();

    explicit Log(uint64_t capacity) : capacity_(capacity) {}

    /** Append one event (drops deterministically once full). */
    void
    record(const E &e)
    {
        if (size_ >= capacity_) {
            ++dropped_;
            return;
        }
        if (kChunkBytes - used_ >= kMaxRecordBytes) {
            uint8_t *base = chunks_.back().get();
            used_ = size_t(codec::encode(e, last_, base + used_) - base);
        } else {
            uint8_t buf[kMaxRecordBytes];
            append(buf, size_t(codec::encode(e, last_, buf) - buf));
        }
        last_ = e.cycle;
        ++size_;
    }

    /** Forward iteration over the recorded events, in record order. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = E;
        using difference_type = std::ptrdiff_t;
        using pointer = const E *;
        using reference = const E &;

        const E &operator*() const { return e_; }
        const E *operator->() const { return &e_; }

        Iterator &
        operator++()
        {
            if (--left_)
                decode();
            return *this;
        }

        /** Iterators of one log compare by the events left to read. */
        bool operator==(const Iterator &o) const { return left_ == o.left_; }

      private:
        friend class Log;

        Iterator(const Log &log, uint64_t left)
            : chunks_(&log.chunks_), left_(left)
        {
            if (left_)
                decode();
        }

        void
        decode()
        {
            codec::decode(e_, [this] {
                if (at_ == end_) {
                    at_ = (*chunks_)[next_++].get();
                    end_ = at_ + kChunkBytes;
                }
                return *at_++;
            });
        }

        const std::vector<std::unique_ptr<uint8_t[]>> *chunks_;
        size_t next_ = 0;               ///< next chunk to read
        const uint8_t *at_ = nullptr;
        const uint8_t *end_ = nullptr;
        uint64_t left_;
        E e_{};
    };

    Iterator begin() const { return Iterator(*this, size_); }
    Iterator end() const { return Iterator(*this, 0); }

    /// Events recorded (not dropped).
    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint64_t dropped() const { return dropped_; }
    uint64_t capacity() const { return capacity_; }
    /// Bytes of the chunks allocated for the records.
    uint64_t bytes() const { return chunks_.size() * kChunkBytes; }

    /** Fold another lane's overflow count into this log. */
    void addDropped(uint64_t n) { dropped_ += n; }

    /** Discard all recorded events and free their chunks (a
     *  merged-out lane). */
    void
    clear()
    {
        chunks_.clear();
        used_ = kChunkBytes;
        size_ = 0;
        last_ = 0;
        dropped_ = 0;
    }

  private:
    /** Copy a record across the end of the last chunk. */
    void
    append(const uint8_t *p, size_t n)
    {
        while (n) {
            if (used_ == kChunkBytes) {
                chunks_.emplace_back(new uint8_t[kChunkBytes]);
                used_ = 0;
            }
            const size_t k = std::min(n, kChunkBytes - used_);
            std::memcpy(chunks_.back().get() + used_, p, k);
            used_ += k;
            p += k;
            n -= k;
        }
    }

    uint64_t capacity_;
    std::vector<std::unique_ptr<uint8_t[]>> chunks_;
    size_t used_ = kChunkBytes;     ///< bytes filled in the last chunk
    uint64_t size_ = 0;
    uint64_t last_ = 0;             ///< cycle of the last record
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
        lanes_.clear();
        if (shards > 1) {
            for (uint32_t s = 0; s < shards; ++s)
                lanes_.emplace_back(capacity);
        }
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
        uint64_t events = merged_->size();
        for (const Log<E> &l : lanes_) {
            dropped += l.dropped();
            events += l.size();
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
        std::vector<typename Log<E>::Iterator> at;
        for (const Log<E> &l : lanes_)
            at.push_back(l.begin());
        for (;;) {
            const E *best = nullptr;
            size_t from = 0;
            for (size_t i = 0; i < lanes_.size(); ++i) {
                if (at[i] == lanes_[i].end())
                    continue;
                const E &e = *at[i];
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
