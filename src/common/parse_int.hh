/**
 * @file
 * Strict number parses for command-line values and workload specs:
 * digits only, no sign, no whitespace, no trailing junk, no overflow.
 * atoi-style parsing turns "abc" into 0; these refuse it instead.
 */

#ifndef APRIL_COMMON_PARSE_INT_HH
#define APRIL_COMMON_PARSE_INT_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>

namespace april::cli
{

/** Parse @p s as an unsigned number in @p base; false on any
 *  malformed text. */
inline bool
parseU64(std::string_view s, uint64_t &out, int base = 10)
{
    uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/** parseU64 limited to 32 bits. */
inline bool
parseU32(const char *s, uint32_t &out)
{
    uint64_t v = 0;
    if (!parseU64(s, v) || v > UINT32_MAX)
        return false;
    out = uint32_t(v);
    return true;
}

/** parseU64 of a value that is not zero and fits @p out. */
template <typename T>
bool
parsePositive(const char *s, T &out)
{
    uint64_t v = 0;
    if (!parseU64(s, v) || v == 0 ||
        v > uint64_t(std::numeric_limits<T>::max()))
        return false;
    out = T(v);
    return true;
}

} // namespace april::cli

#endif // APRIL_COMMON_PARSE_INT_HH
