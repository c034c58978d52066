/** @file Unit tests for the set-associative write-back cache. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "common/logging.hh"

namespace april::cache
{
namespace
{

CacheParams
tiny()
{
    return {.lineWords = 4, .numLines = 8, .assoc = 2};
}

TEST(Cache, AddressDecomposition)
{
    Cache c(tiny());
    EXPECT_EQ(c.lineOf(0), 0u);
    EXPECT_EQ(c.lineOf(7), 1u);
    EXPECT_EQ(c.offsetOf(7), 3u);
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_EQ(c.lookup(5), nullptr);
    Victim v;
    CacheLine *line = c.allocate(5, &v);
    EXPECT_FALSE(v.valid);
    line->state = LineState::Shared;
    EXPECT_EQ(c.lookup(5), line);
    EXPECT_DOUBLE_EQ(c.statHits.value(), 1.0);
    EXPECT_DOUBLE_EQ(c.statMisses.value(), 1.0);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(tiny());       // 4 sets x 2 ways
    Victim v;
    // Three lines mapping to set 1 (line addrs 1, 5, 9).
    auto fill = [&](Addr a) {
        CacheLine *l = c.allocate(a, &v);
        l->state = LineState::Shared;
        c.use(l);
        return l;
    };
    fill(1);
    fill(5);
    c.lookup(1);           // make 1 most recently used
    c.use(c.lookup(1));
    fill(9);               // must evict 5 (LRU)
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 5u);
    EXPECT_NE(c.lookup(1), nullptr);
    EXPECT_NE(c.lookup(9), nullptr);
    EXPECT_EQ(c.lookup(5), nullptr);
}

TEST(Cache, VictimCarriesDataAndState)
{
    Cache c(tiny());
    Victim v;
    CacheLine *l = c.allocate(2, &v);
    l->state = LineState::Modified;
    l->words[3].data = 0xABCD;
    l->words[3].full = false;
    c.use(l);
    CacheLine *l6 = c.allocate(6, &v);  // same set, second way
    l6->state = LineState::Shared;
    c.allocate(10, &v);    // line 2 is the LRU way: it goes
    ASSERT_TRUE(v.valid);
    ASSERT_EQ(v.lineAddr, 2u);
    EXPECT_EQ(v.state, LineState::Modified);
    EXPECT_EQ(v.words[3].data, 0xABCDu);
    EXPECT_FALSE(v.words[3].full);
}

/** A victim owns its words: refilling the frame it left, which is the
 *  same slice of the cache's word array, must not change them, and no
 *  frame's words overlap its neighbour's. */
TEST(Cache, VictimSurvivesRefillOfItsFrame)
{
    for (uint32_t lw : {1u, 4u, 8u}) {
        SCOPED_TRACE(lw);
        Cache c({.lineWords = lw, .numLines = 2, .assoc = 1});
        Victim v;
        CacheLine *first = c.allocate(0, &v);       // set 0
        CacheLine *neighbour = c.allocate(1, &v);   // set 1
        for (uint32_t k = 0; k < lw; ++k) {
            first->words[k] = {Word(100 + k), k % 2 == 0};
            neighbour->words[k] = {Word(200 + k), true};
        }
        first->state = LineState::Modified;
        neighbour->state = LineState::Shared;

        CacheLine *refill = c.allocate(2, &v);      // set 0 again
        ASSERT_TRUE(v.valid);
        ASSERT_EQ(v.lineAddr, 0u);
        EXPECT_EQ(refill, first);
        for (uint32_t k = 0; k < lw; ++k)
            refill->words[k] = {Word(300 + k), false};

        ASSERT_EQ(v.words.size(), lw);
        for (uint32_t k = 0; k < lw; ++k) {
            EXPECT_EQ(v.words[k].data, 100 + k);
            EXPECT_EQ(v.words[k].full, k % 2 == 0);
            EXPECT_EQ(neighbour->words[k].data, 200 + k);
            EXPECT_TRUE(neighbour->words[k].full);
        }
    }
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c(tiny());
    Victim v;
    CacheLine *l = c.allocate(3, &v);
    l->state = LineState::Shared;
    c.invalidate(3);
    EXPECT_EQ(c.lookup(3), nullptr);
    EXPECT_DOUBLE_EQ(c.statInvalidations.value(), 1.0);
    // Invalidating an absent line is harmless.
    c.invalidate(3);
    EXPECT_DOUBLE_EQ(c.statInvalidations.value(), 1.0);
}

TEST(Cache, FullEmptyBitsCachedWithData)
{
    Cache c(tiny());
    Victim v;
    CacheLine *l = c.allocate(0, &v);
    l->state = LineState::Modified;
    l->words[1].full = false;
    CacheLine *again = c.lookup(0);
    ASSERT_NE(again, nullptr);
    EXPECT_FALSE(again->words[1].full);
}

TEST(Cache, BadGeometryIsFatal)
{
    EXPECT_THROW(Cache({.lineWords = 4, .numLines = 10, .assoc = 4}),
                 FatalError);
    EXPECT_THROW(Cache({.lineWords = 4, .numLines = 24, .assoc = 4}),
                 FatalError);
    // A zero-word line would divide by zero in lineOf().
    EXPECT_THROW(Cache({.lineWords = 0, .numLines = 8, .assoc = 2}),
                 FatalError);
    // A page holds whole sets, so the ways must be a power of two.
    EXPECT_THROW(Cache({.lineWords = 4, .numLines = 12, .assoc = 3}),
                 FatalError);
    EXPECT_THROW(Cache({.lineWords = 4, .numLines = 8, .assoc = 0}),
                 FatalError);
}

TEST(Cache, ConstructionLeavesNoPageResident)
{
    Cache c({.lineWords = 4, .numLines = 4096, .assoc = 4});
    EXPECT_EQ(c.residentPages(), 0u);
    EXPECT_EQ(c.numPages(), 128u);      // 8 sets of 4 frames per page
    size_t frames = 0;
    c.forEachFrame([&](const CacheLine &) { ++frames; });
    EXPECT_EQ(frames, 0u);
}

TEST(Cache, AbsentLinesMaterialiseNothing)
{
    Cache c({.lineWords = 4, .numLines = 4096, .assoc = 4});
    EXPECT_EQ(c.lookup(5), nullptr);
    EXPECT_EQ(c.lookup(4000), nullptr);
    EXPECT_EQ(c.find(5), nullptr);
    c.invalidate(5);
    EXPECT_EQ(c.residentPages(), 0u);
    EXPECT_DOUBLE_EQ(c.statMisses.value(), 2.0);
    EXPECT_DOUBLE_EQ(c.statHits.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.statInvalidations.value(), 0.0);
}

TEST(Cache, AllocateMaterialisesItsSetsPage)
{
    Cache c({.lineWords = 4, .numLines = 4096, .assoc = 4});
    Victim v;
    CacheLine *l = c.allocate(5, &v);   // set 5: page 0 (sets 0-7)
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.residentPages(), 1u);
    l->state = LineState::Shared;
    c.allocate(7, &v);                  // set 7: the same page
    c.allocate(5 + 1024, &v);           // set 5 again, another way
    EXPECT_EQ(c.residentPages(), 1u);
    EXPECT_EQ(c.lookup(9), nullptr);    // set 9: page 1, still absent
    EXPECT_EQ(c.residentPages(), 1u);
    c.allocate(9, &v);
    EXPECT_EQ(c.residentPages(), 2u);

    // A fresh page's frames are Invalid and never used, and frames
    // come back in ascending order: pages 0 and 1, 32 frames each.
    std::vector<const CacheLine *> seen;
    c.forEachFrame([&](const CacheLine &f) { seen.push_back(&f); });
    ASSERT_EQ(seen.size(), 64u);
    size_t live = 0;
    for (const CacheLine *f : seen) {
        if (f->state == LineState::Invalid && f->lastUse == 0)
            continue;
        ++live;
        EXPECT_TRUE(f->lineAddr == 5 || f->lineAddr == 7 ||
                    f->lineAddr == 5 + 1024 || f->lineAddr == 9);
    }
    EXPECT_EQ(live, 4u);
    EXPECT_EQ(seen[5 * 4], l);          // set 5, way 0
}

TEST(Cache, Table4Geometry)
{
    // 64 KB of 16-byte lines: the paper's default.
    Cache c({.lineWords = 4, .numLines = 4096, .assoc = 4});
    Victim v;
    for (Addr a = 0; a < 4096; ++a) {
        CacheLine *l = c.allocate(a, &v);
        l->state = LineState::Shared;
        EXPECT_FALSE(v.valid) << "no eviction while under capacity";
    }
}

} // namespace
} // namespace april::cache
