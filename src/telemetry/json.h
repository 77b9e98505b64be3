// JSON for telemetry artifacts: the fragment writers every emitter shares,
// and a minimal reader.
//
// The writers render the stream's lines (stream_exporter.h), spider-trace's
// Chrome export and the tools' JSON output. They are deterministic for a
// given value and produce valid JSON for every value: doubles render as
// %.17g (null when not finite), hex64 as a quoted "0x%016x" string, and
// string control characters other than \n and \t as \u00XX.
//
// The reader parses exactly the JSON this repo emits back into a DOM — what
// spider-trace and the schema round-trip tests consume. Nesting deeper than
// 64 levels is refused, so hostile input cannot exhaust the stack. Not a
// general-purpose parser: \uXXXX decodes only below U+0080, numbers are
// doubles, input must be a single value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace spider::telemetry {

struct MetricsSnapshot;

void append_json_quoted(std::string& out, std::string_view s);
void append_json_u64(std::string& out, std::uint64_t v);
void append_json_i64(std::string& out, std::int64_t v);
void append_json_double(std::string& out, double v);
void append_json_hex64(std::string& out, std::uint64_t v);

// Renders the three metric maps: "counters":{name:value,…},
// "gauges":{name:{"value":v,"high_water":h},…} and
// "histograms":{name:{"count":c,"sum":s,"min":m,"max":M,
// "buckets":[[index,count],…]},…} (buckets sparse, no surrounding braces),
// appended to `out`.
void append_snapshot_json(std::string& out, const MetricsSnapshot& snapshot);

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
