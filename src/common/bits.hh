/**
 * @file
 * Bit-manipulation helpers shared across the simulator.
 */

#ifndef APRIL_COMMON_BITS_HH
#define APRIL_COMMON_BITS_HH

#include <cstdint>

namespace april
{

/**
 * "No event, ever" sentinel for nextEventCycle() reports. Components
 * that can do no further observable work without external input
 * (halted processors, idle controllers, empty networks) return this so
 * the machines' cycle-skipping run loop can fast-forward past them.
 */
constexpr uint64_t kNeverCycle = ~uint64_t(0);

/** @return a mask with the low @p n bits set (n may be 0..64). */
constexpr uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1;
}

/** Extract bits [first, last] (inclusive, last >= first) of @p value. */
constexpr uint64_t
bits(uint64_t value, unsigned last, unsigned first)
{
    return (value >> first) & mask(last - first + 1);
}

/** @return @p value with bits [first, last] replaced by @p field. */
constexpr uint64_t
insertBits(uint64_t value, unsigned last, unsigned first, uint64_t field)
{
    uint64_t m = mask(last - first + 1) << first;
    return (value & ~m) | ((field << first) & m);
}

/** Sign-extend the low @p width bits of @p value to 64 bits. */
constexpr int64_t
signExtend(uint64_t value, unsigned width)
{
    uint64_t sign = uint64_t(1) << (width - 1);
    uint64_t v = value & mask(width);
    return int64_t((v ^ sign) - sign);
}

/** @return true when @p value is a power of two (0 is not). */
constexpr bool
isPowerOf2(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr unsigned
log2i(uint64_t value)
{
    unsigned n = 0;
    while (value > 1) {
        value >>= 1;
        ++n;
    }
    return n;
}

/** Round @p value up to the next multiple of @p align (a power of 2). */
constexpr uint64_t
roundUp(uint64_t value, uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

} // namespace april

#endif // APRIL_COMMON_BITS_HH
