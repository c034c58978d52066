/**
 * @file
 * Tiny helpers for emitting valid JSON, shared by the statistics
 * exporter (stats::Group::dumpJson), the Chrome-trace-event writer
 * (trace::Recorder) and the benches' BENCH_*.json files. Not a JSON
 * library — just the things a hand-rolled emitter gets wrong: string
 * escaping, non-finite numbers and comma placement.
 */

#ifndef APRIL_COMMON_JSON_HH
#define APRIL_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace april::json
{

/** Write @p s escaped for the inside of a JSON string, unquoted. */
inline void
writeEscaped(std::ostream &os, std::string_view s)
{
    // Runs that need no escape go out in one write.
    size_t plain = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        os.write(s.data() + plain, std::streamsize(i - plain));
        plain = i + 1;
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
          }
        }
    }
    os.write(s.data() + plain, std::streamsize(s.size() - plain));
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

/**
 * Streaming writer: values go straight to the stream, and the writer
 * places the commas between the members of each open object or array.
 * Strings and doubles print as writeString()/writeNumber() do;
 * integers print exactly, so a 64-bit counter keeps every digit.
 *
 *     Writer w(os);
 *     w.beginObject().field("cycles", c).key("points").beginArray();
 *     ...
 *     w.endArray().endObject();
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : _os(os) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Name the next value, inside an object. */
    Writer &
    key(std::string_view k)
    {
        separate();
        writeString(_os, k);
        _os << ':';
        _afterKey = true;
        return *this;
    }

    /** A string (anything a std::string_view is built from), a bool,
     *  an integer or a floating-point number. */
    template <typename T>
    Writer &
    value(const T &v)
    {
        separate();
        if constexpr (std::is_same_v<T, bool>)
            _os << (v ? "true" : "false");
        else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            _os << int64_t(v);
        else if constexpr (std::is_integral_v<T>)
            _os << uint64_t(v);
        else if constexpr (std::is_floating_point_v<T>)
            writeNumber(_os, double(v));
        else
            writeString(_os, v);
        return *this;
    }

    /** key(@p k) followed by value(@p v). */
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

  private:
    /** A comma before every member but the first of its container;
     *  none between a key and its value. */
    void
    separate()
    {
        if (!_hasMember.empty()) {
            if (_hasMember.back() && !_afterKey)
                _os << ',';
            _hasMember.back() = true;
        }
        _afterKey = false;
    }

    Writer &
    open(char c)
    {
        separate();
        _os << c;
        _hasMember.push_back(false);
        return *this;
    }

    Writer &
    close(char c)
    {
        _hasMember.pop_back();
        _os << c;
        return *this;
    }

    std::ostream &_os;
    std::vector<bool> _hasMember;  ///< per open container
    bool _afterKey = false;
};

} // namespace april::json

#endif // APRIL_COMMON_JSON_HH
