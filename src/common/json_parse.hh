/**
 * @file
 * A minimal recursive-descent JSON parser. Only the features the
 * simulator's own emitters use are supported (objects, arrays, strings
 * with \-escapes, numbers, true/false/null); a parse error throws
 * std::runtime_error with the offending offset. Arrays and objects
 * nest at most kMaxDepth deep, so no input can exhaust the stack.
 * Used by `april` to read back report JSON (for diff and check) and
 * by the tests to validate every JSON emitter in the tree.
 */

#ifndef APRIL_COMMON_JSON_PARSE_HH
#define APRIL_COMMON_JSON_PARSE_HH

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace april::json
{

struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    bool has(const std::string &key) const
    {
        return kind == Kind::Object && object.count(key) > 0;
    }

    const Json &
    at(const std::string &key) const
    {
        if (!has(key))
            throw std::runtime_error("json: missing key '" + key + "'");
        return object.at(key);
    }
};

class JsonParser
{
  public:
    /// Deepest nesting of arrays and objects accepted; far beyond any
    /// report the simulator writes.
    static constexpr int kMaxDepth = 512;

    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("json: " + why + " at offset " +
                                 std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < s.size() && std::isspace(uint8_t(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    Json
    value()
    {
        switch (peek()) {
          case '{': return nested(&JsonParser::object);
          case '[': return nested(&JsonParser::array);
          case '"': return string();
          case 't': return keyword("true", boolean(true));
          case 'f': return keyword("false", boolean(false));
          case 'n': return keyword("null", {});
          default: return number();
        }
    }

    /** Parse a container with @p parse, one level deeper. */
    Json
    nested(Json (JsonParser::*parse)())
    {
        if (++depth > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth));
        Json v = (this->*parse)();
        --depth;
        return v;
    }

    static Json
    boolean(bool v)
    {
        Json j;
        j.kind = Json::Kind::Bool;
        j.boolean = v;
        return j;
    }

    Json
    keyword(const std::string &word, Json result)
    {
        if (s.compare(pos, word.size(), word) != 0)
            fail("bad keyword");
        pos += word.size();
        return result;
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            Json key = string();
            expect(':');
            v.object.emplace(key.str, value());
            if (peek() != ',')
                break;
            ++pos;
        }
        expect('}');
        return v;
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() != ',')
                break;
            ++pos;
        }
        expect(']');
        return v;
    }

    Json
    string()
    {
        Json v;
        v.kind = Json::Kind::String;
        expect('"');
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                v.str += c;
                continue;
            }
            if (pos >= s.size())
                fail("unterminated escape");
            char e = s[pos++];
            switch (e) {
              case '"': v.str += '"'; break;
              case '\\': v.str += '\\'; break;
              case '/': v.str += '/'; break;
              case 'b': v.str += '\b'; break;
              case 'f': v.str += '\f'; break;
              case 'n': v.str += '\n'; break;
              case 'r': v.str += '\r'; break;
              case 't': v.str += '\t'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    fail("short \\u escape");
                v.str += char(std::stoi(s.substr(pos, 4), nullptr, 16));
                pos += 4;
                break;
              }
              default: fail("bad escape");
            }
        }
        if (pos >= s.size())
            fail("unterminated string");
        ++pos;
        return v;
    }

    Json
    number()
    {
        size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(uint8_t(s[pos])) || s[pos] == '-' ||
                s[pos] == '+' || s[pos] == '.' || s[pos] == 'e' ||
                s[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        Json v;
        v.kind = Json::Kind::Number;
        v.number = std::stod(s.substr(start, pos - start));
        return v;
    }

    const std::string &s;
    size_t pos = 0;
    int depth = 0;      ///< containers open around pos
};

inline Json
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace april::json

#endif // APRIL_COMMON_JSON_PARSE_HH
