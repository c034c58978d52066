/**
 * @file
 * Minimal JSON-schema-subset validator behind `april check`.
 *
 * Supports the subset the checked-in schemas use: "type" (object,
 * array, string, number, integer, boolean), "required", "properties",
 * "items". Unknown keywords are ignored (permissive forward
 * compatibility); errors carry a JSON-pointer-ish path.
 */

#ifndef APRIL_COMMON_JSON_SCHEMA_HH
#define APRIL_COMMON_JSON_SCHEMA_HH

#include <cmath>
#include <string>
#include <vector>

#include "common/json_parse.hh"

namespace april::json
{

inline void
validateSchema(const Json &value, const Json &schema,
               const std::string &path,
               std::vector<std::string> &errors)
{
    if (schema.has("type")) {
        const std::string &t = schema.at("type").str;
        bool ok = true;
        if (t == "object")
            ok = value.kind == Json::Kind::Object;
        else if (t == "array")
            ok = value.kind == Json::Kind::Array;
        else if (t == "string")
            ok = value.kind == Json::Kind::String;
        else if (t == "boolean")
            ok = value.kind == Json::Kind::Bool;
        else if (t == "number")
            ok = value.kind == Json::Kind::Number;
        else if (t == "integer")
            ok = value.kind == Json::Kind::Number &&
                 value.number == std::floor(value.number);
        if (!ok) {
            errors.push_back(path + ": expected " + t);
            return;
        }
    }
    if (schema.has("required")) {
        for (const Json &key : schema.at("required").array) {
            if (!value.has(key.str))
                errors.push_back(path + ": missing required key '" +
                                 key.str + "'");
        }
    }
    if (schema.has("properties") && value.kind == Json::Kind::Object) {
        for (const auto &[key, sub] : schema.at("properties").object) {
            if (value.has(key))
                validateSchema(value.at(key), sub, path + "/" + key,
                               errors);
        }
    }
    if (schema.has("items") && value.kind == Json::Kind::Array) {
        const Json &item_schema = schema.at("items");
        for (size_t i = 0; i < value.array.size(); ++i)
            validateSchema(value.array[i], item_schema,
                           path + "/" + std::to_string(i), errors);
    }
}

} // namespace april::json

#endif // APRIL_COMMON_JSON_SCHEMA_HH
