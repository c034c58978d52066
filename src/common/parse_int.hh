/**
 * @file
 * Strict decimal parses for command-line values and workload specs:
 * digits only, no sign, no whitespace, no trailing junk, no overflow.
 * atoi-style parsing turns "abc" into 0; these refuse it instead.
 */

#ifndef APRIL_COMMON_PARSE_INT_HH
#define APRIL_COMMON_PARSE_INT_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace april::cli
{

/** Parse @p s as an unsigned decimal; false on any malformed text. */
inline bool
parseU64(const char *s, uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end || errno == ERANGE)
        return false;
    out = uint64_t(v);
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
