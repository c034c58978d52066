/**
 * @file
 * Heap allocations and bytes per machine construct. A machine builds
 * the same few hundred statistics every time; their names and
 * descriptions are static text, so building one must not copy them
 * onto the heap, and the memory image materialises only the 4 KiB
 * pages (and leaves of page pointers) that boot writes. The counting
 * global operator new lives in this test binary only.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "machine/alewife_machine.hh"
#include "machine/perfect_machine.hh"
#include "mult/compiler.hh"
#include "workloads/workloads.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};
std::atomic<uint64_t> allocatedBytes{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        allocatedBytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (size == 0)
        size = 1;
    if (align > alignof(std::max_align_t))
        return std::aligned_alloc(align, (size + align - 1) / align * align);
    return std::malloc(size);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlloc(size, std::size_t(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

// GCC pairs a builtin operator new with these frees once they inline;
// the replacement new above is malloc, so the pairing is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace april
{
namespace
{

/** What one construct asked of the heap. */
struct Allocs
{
    uint64_t count = 0;
    uint64_t bytes = 0;
};

/**
 * Heap allocations made by one call of @p make, a machine factory.
 * The first machine of a process also builds the per-process stat
 * name tables, so the count is of the second: what every later
 * construct pays.
 */
template <typename Make>
Allocs
constructAllocations(Make &&make)
{
    make();
    allocations = 0;
    allocatedBytes = 0;
    counting = true;
    auto m = make();
    counting = false;
    return {allocations.load(), allocatedBytes.load()};
}

Program
table3Program()
{
    return mult::compileProgram(workloads::fibSource(10), {});
}

// The Table-3 ALEWIFE machine of the benchmark: a 4x4 mesh, 2M words
// per node, one host thread. 2,131 allocations while every stat
// copied its text onto the heap, 726 (841,112 bytes) while stat lists
// grew by push_back, controllers built empty deques and memory pages
// held 4,096 words.
TEST(MachineAlloc, AlewifeConstructStaysUnderBudget)
{
    const Program prog = table3Program();
    AlewifeParams ap;
    ap.network = {.dim = 2, .radix = 4};
    ap.wordsPerNode = 1u << 21;
    ap.hostThreads = 1;
    Allocs a = constructAllocations(
        [&] { return std::make_unique<AlewifeMachine>(ap, &prog); });
    std::printf("4x4 ALEWIFE construct: %llu allocations, %llu bytes\n",
                (unsigned long long)a.count, (unsigned long long)a.bytes);
    EXPECT_LE(a.count, 420u);
    EXPECT_LE(a.bytes, 440'000u);
}

// The 16-node perfect-memory machine: 668 allocations with heap stat
// text, then 296 (656,120 bytes) with growing stat lists and
// 4,096-word pages.
TEST(MachineAlloc, PerfectConstructStaysUnderBudget)
{
    const Program prog = table3Program();
    PerfectMachineParams mp;
    mp.numNodes = 16;
    mp.wordsPerNode = 1u << 21;
    Allocs a = constructAllocations(
        [&] { return std::make_unique<PerfectMachine>(mp, &prog); });
    std::printf("16-node perfect construct: %llu allocations, %llu "
                "bytes\n",
                (unsigned long long)a.count, (unsigned long long)a.bytes);
    EXPECT_LE(a.count, 220u);
    EXPECT_LE(a.bytes, 240'000u);
}

} // namespace
} // namespace april
