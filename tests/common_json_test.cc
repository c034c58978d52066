/** @file Unit tests for the streaming JSON writer and the parser's
 *  nesting limit. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hh"
#include "common/json_parse.hh"

namespace april::json
{
namespace
{

TEST(JsonWriter, CommasSeparateMembersOfNestedContainers)
{
    std::ostringstream os;
    Writer w(os);
    w.beginObject().field("a", 1).key("b").beginArray();
    w.value(1).beginObject().field("c", true).endObject();
    w.beginArray().endArray().endArray();
    w.key("d").beginObject().endObject();
    w.key("e").beginArray().value("x").value("y").endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              R"({"a":1,"b":[1,{"c":true},[]],"d":{},"e":["x","y"]})");
    EXPECT_TRUE(parseJson(os.str()).isObject());
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    std::ostringstream os;
    Writer w(os);
    w.beginObject()
        .field("q\"k", "a\"b\\c")
        .field("ws", "l1\nl2\tx\r")
        .field("ctl", std::string("\x01", 1))
        .endObject();
    EXPECT_EQ(os.str(), R"({"q\"k":"a\"b\\c","ws":"l1\nl2\tx\r",)"
                        R"("ctl":"\u0001"})");
    Json j = parseJson(os.str());
    EXPECT_EQ(j.object.at("q\"k").str, "a\"b\\c");
    EXPECT_EQ(j.object.at("ws").str, "l1\nl2\tx\r");
}

TEST(JsonWriter, NonFiniteNumbersAreNull)
{
    std::ostringstream os;
    Writer w(os);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(0.5)
        .value(3.0)
        .endArray();
    EXPECT_EQ(os.str(), "[null,null,null,0.5,3]");
}

TEST(JsonWriter, IntegersPrintEveryDigit)
{
    // A double holds 53 bits; counters past that must not round.
    std::ostringstream os;
    Writer w(os);
    w.beginObject()
        .field("max", std::numeric_limits<uint64_t>::max())
        .field("min", std::numeric_limits<int64_t>::min())
        .field("odd", (uint64_t(1) << 53) + 1)
        .field("u32", uint32_t(4000000000u))
        .field("neg", -7)
        .endObject();
    EXPECT_EQ(os.str(), R"({"max":18446744073709551615,)"
                        R"("min":-9223372036854775808,)"
                        R"("odd":9007199254740993,"u32":4000000000,)"
                        R"("neg":-7})");
}

/** @p depth arrays nested in each other, with objects at every
 *  third level. */
std::string
nestedJson(int depth)
{
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
        bool object = i % 3 == 2;
        open += object ? "{\"k\":" : "[";
        close.insert(0, object ? "}" : "]");
    }
    return open + "0" + close;
}

TEST(JsonParse, NestingStopsAtTheDepthLimit)
{
    const int limit = JsonParser::kMaxDepth;
    Json j = parseJson(nestedJson(limit));
    EXPECT_TRUE(j.isArray());
    try {
        parseJson(nestedJson(limit + 1));
        FAIL() << "one level past the limit parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(parseJson(std::string(200'000, '[')), std::runtime_error);
}

} // namespace
} // namespace april::json
