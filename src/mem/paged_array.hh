/**
 * @file
 * A lazily paged array. The index space is cut into pages of
 * 2^pageShift elements, and a page is allocated, value-initialised,
 * on the first operator[] access to one of its elements. An absent page
 * has no storage: find() reports it as nullptr and the caller
 * supplies the default it stands for.
 *
 * The shared-memory image (one element per word), each home's
 * coherence directory (one entry per line) and each cache (its frames
 * and their words) page this way, because a run touches a small part
 * of any of them. Pages never move once made, so element references
 * stay valid while other pages materialise.
 */

#ifndef APRIL_MEM_PAGED_ARRAY_HH
#define APRIL_MEM_PAGED_ARRAY_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace april
{

template <typename T>
class PagedArray
{
  public:
    /** @p size elements in pages of 2^@p page_shift. */
    PagedArray(size_t size, unsigned page_shift)
        : _size(size), shift(page_shift),
          mask((size_t(1) << page_shift) - 1),
          pages((size + mask) >> page_shift)
    {}

    size_t size() const { return _size; }
    size_t pageSize() const { return mask + 1; }

    /** Element @p i (< size()); materialises its page on first use. */
    T &
    operator[](size_t i)
    {
        std::unique_ptr<T[]> &page = pages[i >> shift];
        if (!page) [[unlikely]]
            page = std::make_unique<T[]>(mask + 1);
        return page[i & mask];
    }

    /** Element @p i (< size()), or nullptr when its page is absent. */
    const T *
    find(size_t i) const
    {
        const T *page = pages[i >> shift].get();
        return page ? page + (i & mask) : nullptr;
    }

    /** find() for writing; an absent page stays absent. */
    T *
    find(size_t i)
    {
        T *page = pages[i >> shift].get();
        return page ? page + (i & mask) : nullptr;
    }

    /** @return the number of pages materialised so far. */
    size_t
    residentPages() const
    {
        return size_t(std::count_if(pages.begin(), pages.end(),
                                    [](const auto &p) { return bool(p); }));
    }

    /**
     * Call @p fn(first, elements, count) for every resident page in
     * index order; @p first is the index of the page's first element
     * and @p count stops at size().
     */
    template <typename Fn>
    void
    forEachResidentPage(Fn &&fn) const
    {
        for (size_t p = 0; p < pages.size(); ++p) {
            if (!pages[p])
                continue;
            size_t first = p << shift;
            fn(first, pages[p].get(), std::min(mask + 1, _size - first));
        }
    }

  private:
    size_t _size;
    unsigned shift;
    size_t mask;
    std::vector<std::unique_ptr<T[]>> pages;
};

} // namespace april

#endif // APRIL_MEM_PAGED_ARRAY_HH
