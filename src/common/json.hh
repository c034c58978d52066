/**
 * @file
 * Tiny helpers for emitting valid JSON, shared by the statistics
 * exporter (stats::Group::dumpJson) and the Chrome-trace-event writer
 * (trace::Recorder). Not a JSON library — just the two things a
 * hand-rolled emitter gets wrong: string escaping and non-finite
 * numbers.
 */

#ifndef APRIL_COMMON_JSON_HH
#define APRIL_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace april::json
{

/** Write @p s escaped for the inside of a JSON string, unquoted. */
inline void
writeEscaped(std::ostream &os, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

/** Write @p s as a quoted, escaped JSON string. */
inline void
writeString(std::ostream &os, std::string_view s)
{
    os << '"';
    writeEscaped(os, s);
    os << '"';
}

/**
 * Write @p v as a JSON number. JSON has no NaN/Infinity, so
 * non-finite values are emitted as null; integral values print
 * without a fraction so counters stay exact and readable.
 */
inline void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        os << static_cast<int64_t>(v);
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace april::json

#endif // APRIL_COMMON_JSON_HH
