#include "telemetry/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/metrics.h"

namespace spider::telemetry {

void append_json_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
}

void append_json_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_json_i64(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// Shortest-round-trip formatting would be ideal; %.17g is deterministic for
// a given value, which is the property the export actually needs. JSON has
// no NaN or infinity, so non-finite values (a NaN histogram sample, a sum
// that overflowed) render as null.
void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_json_hex64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  out += buf;
}

namespace {

void append_histogram(std::string& out, const HistogramSample& h) {
  out += "{\"count\":";
  append_json_u64(out, h.count);
  out += ",\"sum\":";
  append_json_double(out, h.sum);
  out += ",\"min\":";
  append_json_double(out, h.min);
  out += ",\"max\":";
  append_json_double(out, h.max);
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [index, count] : h.buckets) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('[');
    append_json_u64(out, index);
    out.push_back(',');
    append_json_u64(out, count);
    out.push_back(']');
  }
  out += "]}";
}

}  // namespace

void append_snapshot_json(std::string& out, const MetricsSnapshot& snapshot) {
  out += "\"counters\":{";
  bool first = true;
  for (const CounterSample& c : snapshot.counters) {
    if (!first) out.push_back(',');
    first = false;
    append_json_quoted(out, c.name);
    out.push_back(':');
    append_json_u64(out, c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : snapshot.gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_json_quoted(out, g.name);
    out += ":{\"value\":";
    append_json_i64(out, g.value);
    out += ",\"high_water\":";
    append_json_i64(out, g.high_water);
    out += "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : snapshot.histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_quoted(out, h.name);
    out.push_back(':');
    append_histogram(out, h);
  }
  out += "}";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      fail("malformed value");
    } else {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing garbage");
    }
    if (failed_ && error != nullptr) {
      *error = message_ + " at byte " + std::to_string(pos_);
    }
    return !failed_;
  }

 private:
  void fail(const char* message) {
    if (!failed_) {
      failed_ = true;
      message_ = message;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u':
            if (!parse_unicode_escape(out)) return false;
            break;
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  // The four hex digits after "\u". Only ASCII code points decode; the
  // emitters escape nothing else (control characters as \u00XX).
  bool parse_unicode_escape(std::string& out) {
    if (text_.size() - pos_ < 4) return false;
    const char* first = text_.data() + pos_;
    unsigned code = 0;
    const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
    if (ec != std::errc() || end != first + 4 || code >= 0x80) return false;
    pos_ += 4;
    out.push_back(static_cast<char>(code));
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  bool parse_value(JsonValue& out) {
    if (failed_ || depth_ > 64) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    }
    if (literal("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return true;
    }
    if (literal("null")) {
      out.type = JsonValue::Type::kNull;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    ++depth_;
    if (!consume('{')) return false;
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) {
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    ++depth_;
    if (!consume('[')) return false;
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) {
        --depth_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  std::string message_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;  // duplicates: last one wins
  }
  return found;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  Parser parser(text);
  return parser.parse(out, error);
}

}  // namespace spider::telemetry
