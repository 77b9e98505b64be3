// Minimal JSON reader for telemetry artifacts.
//
// Parses exactly the JSON this repo emits (run-report and stream JSONL
// lines, Chrome trace files) back into a DOM — what spider-trace and the
// schema round-trip tests consume. Nesting deeper than 64 levels is
// refused, so hostile input cannot exhaust the stack. Not a general-purpose
// parser: \uXXXX decodes only below U+0080, numbers are doubles, input
// must be a single value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace spider::telemetry {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered object members (duplicates keep the last value).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  // Convenience accessors with defaults.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
};

// Parses one JSON value (surrounding whitespace allowed). Returns false on
// malformed input or trailing garbage; `error` (optional) gets a short
// byte-offset message.
bool parse_json(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

}  // namespace spider::telemetry
