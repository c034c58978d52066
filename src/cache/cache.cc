#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"

namespace april::cache
{

namespace
{

/** @p p, once its geometry is known to be usable. */
const CacheParams &
checked(const CacheParams &p)
{
    if (p.lineWords == 0)
        fatal("Cache: lineWords must be positive");
    if (!isPowerOf2(p.assoc))
        fatal("Cache: assoc must be a power of two");
    if (p.numLines % p.assoc != 0)
        fatal("Cache: numLines must be a multiple of assoc");
    if (!isPowerOf2(p.numLines / p.assoc))
        fatal("Cache: number of sets must be a power of two");
    return p;
}

/** log2 of the frames per page: 8 whole sets, or every set of a
 *  smaller cache. */
unsigned
framePageShift(const CacheParams &p)
{
    return std::min(3u, log2i(p.numLines / p.assoc)) + log2i(p.assoc);
}

/** log2 of the words per page: room for a page of frames' words, each
 *  frame's lineWords rounded up to a power of two for the shift. */
unsigned
wordPageShift(const CacheParams &p)
{
    return framePageShift(p) + unsigned(std::bit_width(p.lineWords - 1));
}

} // namespace

Cache::Cache(const CacheParams &p, stats::Group *parent)
    : stats::Group("cache", parent),
      statHits(this, "hits", "lookup hits"),
      statMisses(this, "misses", "lookup misses"),
      statEvictions(this, "evictions", "capacity/conflict evictions"),
      statInvalidations(this, "invalidations", "coherence invalidations"),
      params(checked(p)),
      frames(p.numLines, framePageShift(p)),
      words((size_t(p.numLines) >> framePageShift(p)) << wordPageShift(p),
            wordPageShift(p))
{}

size_t
Cache::setBase(Addr line_addr) const
{
    return size_t(line_addr & (numSets() - 1)) * params.assoc;
}

CacheLine *
Cache::fillableSet(size_t base)
{
    if (CacheLine *set = frames.find(base)) [[likely]]
        return set;
    size_t first = base & ~(frames.pageSize() - 1);
    CacheLine *page = &frames[first];
    MemWord *store = &words[first / frames.pageSize() * words.pageSize()];
    for (size_t i = 0; i < frames.pageSize(); ++i)
        page[i].words = store + i * params.lineWords;
    return page + (base - first);
}

CacheLine *
Cache::find(Addr line_addr)
{
    CacheLine *set = frames.find(setBase(line_addr));
    if (!set)
        return nullptr;
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = set[w];
        if (l.state != LineState::Invalid && l.lineAddr == line_addr)
            return &l;
    }
    return nullptr;
}

CacheLine *
Cache::lookup(Addr line_addr)
{
    CacheLine *l = find(line_addr);
    if (l)
        ++statHits;
    else
        ++statMisses;
    return l;
}

CacheLine *
Cache::allocate(Addr line_addr, Victim *victim)
{
    CacheLine *set = fillableSet(setBase(line_addr));
    CacheLine *pick = nullptr;
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = set[w];
        if (l.state == LineState::Invalid) {
            pick = &l;
            break;
        }
        if (!pick || l.lastUse < pick->lastUse)
            pick = &l;
    }

    victim->valid = pick->state != LineState::Invalid;
    if (victim->valid) {
        ++statEvictions;
        victim->lineAddr = pick->lineAddr;
        victim->state = pick->state;
        victim->words.assign(pick->words, pick->words + params.lineWords);
        TRACE(Cache, "allocate line=", line_addr, " evicts line=",
              victim->lineAddr,
              victim->state == LineState::Modified ? " (dirty)" : "");
    } else {
        TRACE(Cache, "allocate line=", line_addr);
    }

    pick->lineAddr = line_addr;
    pick->state = LineState::Invalid;
    use(pick);
    return pick;
}

void
Cache::invalidate(Addr line_addr)
{
    CacheLine *set = frames.find(setBase(line_addr));
    if (!set)
        return;
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = set[w];
        if (l.state != LineState::Invalid && l.lineAddr == line_addr) {
            l.state = LineState::Invalid;
            ++statInvalidations;
            TRACE(Cache, "invalidate line=", line_addr);
            return;
        }
    }
}

} // namespace april::cache
