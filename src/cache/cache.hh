/**
 * @file
 * The per-node processor cache (Figure 1): set-associative,
 * write-back, with full/empty bits stored alongside the data of every
 * word in a line (the controller "performs full/empty bit
 * synchronization", Section 5, so the bits must live in the cache).
 *
 * Line states follow the directory protocol: Invalid, Shared
 * (read-only), Modified (exclusive, dirty). The Table 4 default
 * geometry is 64 KB of 16-byte (4-word) blocks.
 *
 * Storage is paged: a page holds the frames of a power-of-two number
 * of whole sets (8 when the cache has that many) and their words, and
 * it is materialised by the first fill of one of its sets. An absent
 * page stands for frames that are all Invalid, so lookups never
 * allocate, and a run pays only for the sets it fills.
 */

#ifndef APRIL_CACHE_CACHE_HH
#define APRIL_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "isa/types.hh"
#include "mem/paged_array.hh"

namespace april::cache
{

/** Cache geometry. */
struct CacheParams
{
    uint32_t lineWords = 4;     ///< 16-byte blocks
    uint32_t numLines = 4096;   ///< 64 KB total
    uint32_t assoc = 4;
};

enum class LineState : uint8_t
{
    Invalid,
    Shared,     ///< read-only copy
    Modified,   ///< exclusive, dirty
};

/** One cache line frame: state + tagged/f-e words. */
struct CacheLine
{
    Addr lineAddr = 0;          ///< line-granular address (addr/words)
    LineState state = LineState::Invalid;
    /// The frame's lineWords() words, on its page's word array.
    MemWord *words = nullptr;
    uint64_t lastUse = 0;
};

/** Contents evicted to make room for a fill: an owned copy, because
 *  the frame it came from is refilled at once. */
struct Victim
{
    bool valid = false;
    Addr lineAddr = 0;
    LineState state = LineState::Invalid;
    std::vector<MemWord> words;
};

/** A set-associative write-back cache. */
class Cache : public stats::Group
{
  public:
    Cache(const CacheParams &params, stats::Group *parent = nullptr);

    uint32_t lineWords() const { return params.lineWords; }

    /** Line address of a word address. */
    Addr lineOf(Addr a) const { return a / params.lineWords; }
    /** Word offset within its line. */
    uint32_t offsetOf(Addr a) const { return a % params.lineWords; }

    /** @return the line if present (any valid state), else nullptr. */
    CacheLine *lookup(Addr line_addr);

    /** lookup() without touching the hit/miss statistics (used by
     *  retry-driven controller paths, which would otherwise count one
     *  miss per held cycle). */
    CacheLine *find(Addr line_addr);

    /**
     * Allocate a frame for @p line_addr, evicting the set's LRU
     * victim if necessary (returned so the controller can write it
     * back). The returned line has Invalid state; the caller fills it.
     */
    CacheLine *allocate(Addr line_addr, Victim *victim);

    /** Drop the line (coherence invalidation). */
    void invalidate(Addr line_addr);

    /** Touch for LRU. */
    void use(CacheLine *line) { line->lastUse = ++useClock; }

    /**
     * Call @p fn(frame) for every frame of every resident page
     * (Invalid ones included) in ascending frame order, for
     * whole-machine snapshots that must fold dirty lines over the
     * memory image. Frames of absent pages are all Invalid.
     */
    template <typename Fn>
    void
    forEachFrame(Fn &&fn) const
    {
        frames.forEachResidentPage(
            [&](size_t, const CacheLine *page, size_t count) {
                for (size_t i = 0; i < count; ++i)
                    fn(page[i]);
            });
    }

    /** @return the number of pages materialised so far. */
    size_t residentPages() const { return frames.residentPages(); }
    /** @return the number of pages the cache's frames span. */
    size_t numPages() const { return params.numLines / frames.pageSize(); }

    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statEvictions;
    stats::Scalar statInvalidations;

  private:
    uint32_t numSets() const { return params.numLines / params.assoc; }
    size_t setBase(Addr line_addr) const;
    /** The set's first frame, materialising its page on first use. */
    CacheLine *fillableSet(size_t base);

    CacheParams params;
    PagedArray<CacheLine> frames;
    /// Page p of `frames` keeps its frames' words on page p here, frame
    /// after frame, lineWords each.
    PagedArray<MemWord> words;
    uint64_t useClock = 0;
};

} // namespace april::cache

#endif // APRIL_CACHE_CACHE_HH
