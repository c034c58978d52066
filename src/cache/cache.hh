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
 */

#ifndef APRIL_CACHE_CACHE_HH
#define APRIL_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "isa/types.hh"

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
    /// The frame's lineWords() words, in the cache's one word array.
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
     * Every line frame (including Invalid ones), for whole-machine
     * snapshots that must fold dirty lines over the memory image.
     */
    const std::vector<CacheLine> &allLines() const { return lines; }

    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statEvictions;
    stats::Scalar statInvalidations;

  private:
    uint32_t numSets() const { return params.numLines / params.assoc; }
    size_t setBase(Addr line_addr) const;

    CacheParams params;
    /// Every frame's words: frame i owns lineWords of them from
    /// i * lineWords.
    std::vector<MemWord> wordStore;
    std::vector<CacheLine> lines;
    uint64_t useClock = 0;
};

} // namespace april::cache

#endif // APRIL_CACHE_CACHE_HH
