#include "telemetry/run_report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <mutex>

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

std::string run_report_line(std::string_view label, std::size_t run_index,
                            std::uint64_t seed, std::uint64_t digest,
                            std::uint64_t events_executed,
                            const MetricsSnapshot& snapshot) {
  std::string out = "{\"schema\":";
  append_json_quoted(out, kRunReportSchema);
  out += ",\"kind\":\"run\",\"label\":";
  append_json_quoted(out, label);
  out += ",\"run\":";
  append_json_u64(out, run_index);
  out += ",\"seed\":";
  append_json_u64(out, seed);
  out += ",\"digest\":";
  append_json_hex64(out, digest);
  out += ",\"events\":";
  append_json_u64(out, events_executed);
  out.push_back(',');
  append_snapshot_json(out, snapshot);
  out.push_back('}');
  return out;
}

std::string sweep_report_line(std::string_view label, std::size_t runs,
                              std::uint64_t combined_digest,
                              const MetricsSnapshot& merged) {
  std::string out = "{\"schema\":";
  append_json_quoted(out, kRunReportSchema);
  out += ",\"kind\":\"sweep\",\"label\":";
  append_json_quoted(out, label);
  out += ",\"runs\":";
  append_json_u64(out, runs);
  out += ",\"combined_digest\":";
  append_json_hex64(out, combined_digest);
  out += ",\"merged\":{";
  append_snapshot_json(out, merged);
  out += "},\"process\":{";
  {
    std::lock_guard<std::mutex> lock(process_registry_mutex());
    const MetricsSnapshot process = process_registry().snapshot();
    append_snapshot_json(out, process);
  }
  out += "}}";
  return out;
}

bool append_to_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace spider::telemetry
