/**
 * @file
 * Test alias for the minimal JSON parser. The parser itself now lives
 * in src/common/json_parse.hh (`april diff` and `april check` use
 * it); tests keep their historical april::testutil
 * spelling via these aliases.
 */

#ifndef APRIL_TESTS_JSON_TEST_UTIL_HH
#define APRIL_TESTS_JSON_TEST_UTIL_HH

#include "common/json_parse.hh"

namespace april::testutil
{

using Json = april::json::Json;
using JsonParser = april::json::JsonParser;
using april::json::parseJson;

} // namespace april::testutil

#endif // APRIL_TESTS_JSON_TEST_UTIL_HH
