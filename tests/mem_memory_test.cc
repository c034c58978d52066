/** @file Unit tests for the distributed shared memory image. */

#include <gtest/gtest.h>

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

} // namespace
} // namespace april
