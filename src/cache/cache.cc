#include "cache/cache.hh"

#include "common/bits.hh"
#include "common/debug.hh"
#include "common/logging.hh"

namespace april::cache
{

Cache::Cache(const CacheParams &p, stats::Group *parent)
    : stats::Group("cache", parent),
      statHits(this, "hits", "lookup hits"),
      statMisses(this, "misses", "lookup misses"),
      statEvictions(this, "evictions", "capacity/conflict evictions"),
      statInvalidations(this, "invalidations", "coherence invalidations"),
      params(p)
{
    if (p.assoc == 0 || p.numLines % p.assoc != 0)
        fatal("Cache: numLines must be a multiple of assoc");
    if (!isPowerOf2(p.numLines / p.assoc))
        fatal("Cache: number of sets must be a power of two");
    wordStore.resize(size_t(p.numLines) * p.lineWords);
    lines.resize(p.numLines);
    for (size_t i = 0; i < lines.size(); ++i)
        lines[i].words = wordStore.data() + i * p.lineWords;
}

size_t
Cache::setBase(Addr line_addr) const
{
    return size_t(line_addr & (numSets() - 1)) * params.assoc;
}

CacheLine *
Cache::find(Addr line_addr)
{
    size_t base = setBase(line_addr);
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = lines[base + w];
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
    size_t base = setBase(line_addr);
    CacheLine *pick = nullptr;
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = lines[base + w];
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
    size_t base = setBase(line_addr);
    for (uint32_t w = 0; w < params.assoc; ++w) {
        CacheLine &l = lines[base + w];
        if (l.state != LineState::Invalid && l.lineAddr == line_addr) {
            l.state = LineState::Invalid;
            ++statInvalidations;
            TRACE(Cache, "invalidate line=", line_addr);
            return;
        }
    }
}

} // namespace april::cache
