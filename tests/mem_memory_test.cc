/** @file Unit tests for the distributed shared memory image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/memory.hh"

namespace april
{
namespace
{

TEST(Memory, ReadWriteRoundTrip)
{
    SharedMemory m({.numNodes = 1, .wordsPerNode = 1024});
    m.write(10, 0xDEADBEEF);
    EXPECT_EQ(m.read(10), 0xDEADBEEFu);
}

TEST(Memory, WordsStartFull)
{
    // Normal data is "full"; empty is the synchronization state.
    SharedMemory m({.numNodes = 1, .wordsPerNode = 64});
    EXPECT_TRUE(m.isFull(0));
    EXPECT_TRUE(m.isFull(63));
}

TEST(Memory, FullEmptyBitPerWord)
{
    SharedMemory m({.numNodes = 1, .wordsPerNode = 64});
    m.setFull(5, false);
    EXPECT_FALSE(m.isFull(5));
    EXPECT_TRUE(m.isFull(6));
    m.writeFe(5, 7, true);
    EXPECT_TRUE(m.isFull(5));
    EXPECT_EQ(m.read(5), 7u);
}

TEST(Memory, HomeNodeIsAddressSegment)
{
    SharedMemory m({.numNodes = 4, .wordsPerNode = 100});
    EXPECT_EQ(m.homeNode(0), 0u);
    EXPECT_EQ(m.homeNode(99), 0u);
    EXPECT_EQ(m.homeNode(100), 1u);
    EXPECT_EQ(m.homeNode(399), 3u);
    EXPECT_EQ(m.nodeBase(2), 200u);
}

TEST(Memory, OutOfRangePanics)
{
    SharedMemory m({.numNodes = 2, .wordsPerNode = 16});
    EXPECT_THROW(m.read(32), PanicError);
    EXPECT_THROW(m.word(32), PanicError);       // the mutable path
    EXPECT_THROW(m.write(32, 1), PanicError);
    EXPECT_THROW(m.nodeBase(2), PanicError);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(Memory, ZeroConfigIsFatal)
{
    EXPECT_THROW(SharedMemory({.numNodes = 0, .wordsPerNode = 16}),
                 FatalError);
}

TEST(Memory, SizeWords)
{
    SharedMemory m({.numNodes = 3, .wordsPerNode = 50});
    EXPECT_EQ(m.sizeWords(), 150u);
}

TEST(Memory, FreshMemoryReadsFullZeroWithNoPages)
{
    SharedMemory m({.numNodes = 4, .wordsPerNode = 1u << 14});
    for (Addr a = 0; a < m.sizeWords(); a += 97) {
        EXPECT_EQ(m.read(a), 0u) << a;
        EXPECT_TRUE(m.isFull(a)) << a;
    }
    EXPECT_EQ(m.read(m.sizeWords() - 1), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(Memory, ConstReadsDoNotMaterialisePages)
{
    SharedMemory m({.numNodes = 2, .wordsPerNode = 1u << 13});
    m.write(5, 1);
    const SharedMemory &image = m;
    for (Addr a = 0; a < m.sizeWords(); a += 64) {
        (void)image.word(a);
        (void)m.read(a);
        (void)m.isFull(a);
    }
    EXPECT_EQ(m.residentPages(), 1u);
}

TEST(Memory, FirstWriteMaterialisesOnePage)
{
    SharedMemory m({.numNodes = 2, .wordsPerNode = 1u << 13});
    m.write(4097, 9);
    EXPECT_EQ(m.residentPages(), 1u);
    m.setFull(4096, false);       // same page
    m.writeFe(4098, 3, true);
    EXPECT_EQ(m.residentPages(), 1u);
    // The rest of the new page is fresh.
    EXPECT_EQ(m.read(4099), 0u);
    EXPECT_TRUE(m.isFull(4099));
    EXPECT_FALSE(m.isFull(4096));
    EXPECT_EQ(m.read(4097), 9u);
    m.word(0).data = 1;           // mutable access, another page
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(Memory, NoPageSpansTwoNodes)
{
    // 100 words per node: pages shrink to 4 words, which divides the
    // node span, so node 0's last word and node 1's first word live
    // in different pages.
    SharedMemory m({.numNodes = 4, .wordsPerNode = 100});
    m.write(99, 1);
    EXPECT_EQ(m.residentPages(), 1u);
    m.write(100, 2);
    EXPECT_EQ(m.residentPages(), 2u);
    EXPECT_EQ(m.read(99), 1u);
    EXPECT_EQ(m.read(100), 2u);

    size_t visited = 0;
    m.forEachResidentPage(
        [&](Addr base, const MemWord *, uint32_t count) {
            EXPECT_EQ(m.homeNode(base), m.homeNode(base + count - 1));
            ++visited;
        });
    EXPECT_EQ(visited, 2u);
}

/** Pages are one 4 KiB host page at most and the page table has two
 *  levels; at every node size, neither a page nor a leaf of page
 *  pointers holds words of two homes, and resident pages are visited
 *  in address order across leaf boundaries. */
TEST(Memory, PagesAndLeavesStayWithinOneHome)
{
    struct Shape
    {
        uint32_t wordsPerNode;
        size_t pageWords;
        size_t leafPages;
    };
    for (Shape sh : {Shape{100, 4, 1}, Shape{256, 256, 1},
                     Shape{1024, 512, 2}, Shape{1u << 16, 512, 128},
                     Shape{1u << 21, 512, 512}}) {
        SCOPED_TRACE(sh.wordsPerNode);
        SharedMemory m({.numNodes = 3, .wordsPerNode = sh.wordsPerNode});
        EXPECT_EQ(m.pageWords(), sh.pageWords);
        EXPECT_EQ(m.leafPages(), sh.leafPages);
        EXPECT_EQ(sh.wordsPerNode % (m.pageWords() * m.leafPages()), 0u);

        // Each node's first and last word, and a word past the first
        // leaf, written from the top of memory down.
        std::vector<Addr> written;
        for (uint32_t n = 0; n < m.numNodes(); ++n) {
            Addr base = m.nodeBase(n);
            written.push_back(base);
            written.push_back(base + sh.wordsPerNode - 1);
            Addr past_leaf = base + m.pageWords() * m.leafPages();
            if (past_leaf < base + sh.wordsPerNode)
                written.push_back(past_leaf);
        }
        std::sort(written.begin(), written.end());
        for (auto it = written.rbegin(); it != written.rend(); ++it)
            m.write(*it, Word(*it + 1));

        std::vector<Addr> bases;
        m.forEachResidentPage(
            [&](Addr base, const MemWord *words, size_t count) {
                EXPECT_EQ(count, m.pageWords());
                EXPECT_EQ(m.homeNode(base), m.homeNode(base + count - 1));
                EXPECT_TRUE(bases.empty() || bases.back() < base);
                for (size_t i = 0; i < count; ++i) {
                    bool was_written = std::binary_search(
                        written.begin(), written.end(), base + i);
                    EXPECT_EQ(words[i].data,
                              was_written ? Word(base + i + 1) : 0u);
                }
                bases.push_back(base);
            });
        std::vector<Addr> pages;
        for (Addr a : written)
            pages.push_back(a / m.pageWords() * m.pageWords());
        pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
        EXPECT_EQ(bases, pages);
        EXPECT_EQ(m.residentPages(), pages.size());
    }
}

} // namespace
} // namespace april
