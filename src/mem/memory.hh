/**
 * @file
 * Distributed, globally shared memory with full/empty bits.
 *
 * ALEWIFE distributes main memory with the processing nodes (Figure 1)
 * while presenting one global word-addressed space. Every word carries
 * a full/empty synchronization bit (Section 3.3). The home node of a
 * word is determined by its address (contiguous per-node segments).
 *
 * The image is materialised lazily. A run touches a small part of its
 * memory (node blocks, queues, the bump-allocated heap), so a page of
 * up to 512 words (4 KiB, one host page) is allocated on the first
 * mutable access to one of its words; an absent page reads as data 0,
 * full, which is what a fresh word holds. The page pointers sit in a
 * two-level table, a PagedArray whose pages are leaves of up to 512
 * pointers, so building a machine writes one small leaf per node it
 * boots instead of a pointer per page of the whole image. Neither a
 * page nor a leaf straddles two nodes' home ranges: each is only ever
 * created by its home node, which keeps the sharded engine race-free
 * without atomics (DESIGN.md §7.11).
 *
 * This class is purely functional state — timing (cache hits, network
 * latency, directory protocol) is layered on top by the cache,
 * coherence and machine modules.
 */

#ifndef APRIL_MEM_MEMORY_HH
#define APRIL_MEM_MEMORY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "common/logging.hh"
#include "isa/types.hh"
#include "mem/paged_array.hh"

namespace april
{

/** Sizing parameters of the distributed shared memory. */
struct MemoryParams
{
    uint32_t numNodes = 1;
    uint32_t wordsPerNode = 1u << 22;   ///< 4M words (16 MB) per node
};

/** The global shared-memory image. */
class SharedMemory
{
  public:
    explicit SharedMemory(const MemoryParams &params)
        : _params(params),
          _sizeWords(size_t(params.numNodes) * params.wordsPerNode),
          // The page size divides wordsPerNode, and so does the span
          // of a leaf: neither holds words of two homes.
          pageShift(std::min<unsigned>(
              maxPageShift, std::countr_zero(params.wordsPerNode))),
          pageMask((size_t(1) << pageShift) - 1),
          table(_sizeWords >> pageShift,
                std::min<unsigned>(maxLeafShift,
                                   std::countr_zero(params.wordsPerNode) -
                                       pageShift))
    {
        if (params.numNodes == 0 || params.wordsPerNode == 0)
            fatal("SharedMemory: zero-sized configuration");
    }

    uint32_t numNodes() const { return _params.numNodes; }
    uint32_t wordsPerNode() const { return _params.wordsPerNode; }
    Addr sizeWords() const { return Addr(_sizeWords); }

    /** @return the node whose local memory holds word @p a. */
    uint32_t
    homeNode(Addr a) const
    {
        return checkAddr(a) / _params.wordsPerNode;
    }

    /** @return the first word address homed on node @p n. */
    Addr
    nodeBase(uint32_t n) const
    {
        if (n >= _params.numNodes)
            panic("nodeBase: bad node ", n);
        return Addr(n) * _params.wordsPerNode;
    }

    /**
     * Mutable access to a word (data + f/e bit). Materialises the
     * word's page on first use.
     */
    MemWord &
    word(Addr a)
    {
        Page &page = table[checkAddr(a) >> pageShift];
        if (!page) [[unlikely]]
            page = std::make_unique<MemWord[]>(pageMask + 1);
        return page[a & pageMask];
    }

    /** Read-only access; an absent page reads as a fresh word. */
    const MemWord &
    word(Addr a) const
    {
        const Page *page = table.find(checkAddr(a) >> pageShift);
        return page && *page ? (*page)[a & pageMask] : absentWord;
    }

    // Convenience accessors used by the runtime and by tests.

    Word read(Addr a) const { return word(a).data; }

    void
    write(Addr a, Word v)
    {
        MemWord &w = word(a);
        w.data = v;
    }

    bool isFull(Addr a) const { return word(a).full; }
    void setFull(Addr a, bool full) { word(a).full = full; }

    /** Write data and f/e state together (producer-style store). */
    void
    writeFe(Addr a, Word v, bool full)
    {
        MemWord &w = word(a);
        w.data = v;
        w.full = full;
    }

    /** Words per page (a power of two dividing wordsPerNode). */
    size_t pageWords() const { return pageMask + 1; }

    /** Page pointers per leaf of the table (a power of two). */
    size_t leafPages() const { return table.pageSize(); }

    /** @return the number of pages materialised so far. */
    size_t
    residentPages() const
    {
        size_t n = 0;
        forEachResidentPage([&](Addr, const MemWord *, size_t) { ++n; });
        return n;
    }

    /**
     * Call @p fn(base, words, count) for every resident page in
     * address order; absent pages hold only fresh words.
     */
    template <typename Fn>
    void
    forEachResidentPage(Fn &&fn) const
    {
        table.forEachResidentPage(
            [&](size_t first, const Page *leaf, size_t count) {
                for (size_t i = 0; i < count; ++i) {
                    if (leaf[i])
                        fn(Addr((first + i) << pageShift), leaf[i].get(),
                           pageMask + 1);
                }
            });
    }

  private:
    using Page = std::unique_ptr<MemWord[]>;

    /** log2 of the largest page, in words: 4 KiB of MemWords. */
    static constexpr unsigned maxPageShift = 9;
    /** log2 of the most page pointers in one leaf (4 KiB). */
    static constexpr unsigned maxLeafShift = 9;
    static constexpr MemWord absentWord{};

    Addr
    checkAddr(Addr a) const
    {
        if (a >= _sizeWords)
            panic("shared-memory access out of range: addr=", a,
                  " size=", _sizeWords);
        return a;
    }

    MemoryParams _params;
    size_t _sizeWords;
    unsigned pageShift;
    size_t pageMask;
    /// Page pointers, indexed by address >> pageShift; a leaf is
    /// made on the first write to one of its pages.
    PagedArray<Page> table;
};

} // namespace april

#endif // APRIL_MEM_MEMORY_HH
