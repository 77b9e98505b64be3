// spider-trace — terminal summaries of the repo's telemetry artifacts.
//
// Accepts any artifact the benches emit:
//   * a spider-telemetry-v1 JSONL file (from --telemetry): prints each
//     sweep's top counters, gauge levels/peaks, histogram summaries with
//     log-bucket quantiles, and a per-channel dwell/traffic table;
//   * a spider-telemetry-stream-v1 JSONL file (from --stream): prints
//     per-run stream statistics and the final streamed metric values;
//     mixed files work — lines with an unknown schema or kind are skipped
//     with a warning, so v1 consumers can skim stream files and vice versa;
//   * a Chrome trace JSON file (from --trace, one document on one line):
//     prints per-(category, name) span statistics, instant-event counts,
//     counter-track statistics (samples / value range / final value, per
//     series id), the named tracks, and the ring's dropped-event count.
//
// Usage: spider-trace <file> [--top N] [--strict]
//
// JSONL files are read one line at a time, so memory is bounded by the
// longest line, not the file. To watch a run live, stream it to a file
// (--stream PATH) and read that file while the run writes it: a last line
// without its newline that does not parse yet is skipped with a note. The
// file may come from anywhere, so every number that becomes an integer is
// range-checked first (Checked below): a line or trace event carrying a
// non-finite, negative-where-unsigned or out-of-range value is skipped with
// a warning, like a line of unknown schema. --strict exits nonzero when the
// trace recorder's ring overwrote events (a run_end's "trace_dropped" or a
// Chrome trace's "droppedEvents") — the CI guard that trace windows were
// big enough.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/trace_recorder.h"

namespace {

using spider::telemetry::Histogram;
using spider::telemetry::JsonValue;

// ---------------------------------------------------------------------------
// Shared helpers

// A file read one line at a time; memory is bounded by the longest line.
class Lines {
 public:
  explicit Lines(std::istream& in) : in_(in) {}

  // Moves to the next line (or, after hold(), stays on the current one).
  bool next() {
    if (held_) {
      held_ = false;
      return true;
    }
    if (!std::getline(in_, text_)) return false;
    ++number_;
    terminated_ = !in_.eof();
    return true;
  }
  // Makes the next call to next() return the current line again.
  void hold() { held_ = true; }

  const std::string& text() const { return text_; }
  std::size_t number() const { return number_; }
  // False only for a last line that did not end in '\n'.
  bool terminated() const { return terminated_; }

 private:
  std::istream& in_;
  std::string text_;
  std::size_t number_ = 0;
  bool terminated_ = false;
  bool held_ = false;
};

// The one way a JSON number becomes an integer here. Casting NaN, an
// infinity, a negative value to an unsigned type, or anything past the
// type's range is undefined behaviour, so integer() refuses those, returns
// 0, and remembers the first field that failed; the caller then skips the
// whole line (or trace event) with warn().
class Checked {
 public:
  template <typename T>
  T integer(double v, std::string_view field) {
    constexpr double kLo = static_cast<double>(std::numeric_limits<T>::min());
    // 2^bits (2^(bits-1) if signed), built from a power of two so it is
    // exact in a double; every double below it truncates into range.
    constexpr double kEnd =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (v >= kLo && v < kEnd) return static_cast<T>(v);  // NaN fails both
    if (ok_) {
      ok_ = false;
      field_ = field;
      value_ = v;
    }
    return T{};
  }

  bool ok() const { return ok_; }

  void warn(const char* where, std::size_t index) const {
    std::fprintf(stderr, "%s %zu: skipping: \"%s\" = %g is out of range\n",
                 where, index, field_.c_str(), value_);
  }

 private:
  bool ok_ = true;
  std::string field_;
  double value_ = 0.0;
};

// The sparse (bucket index, count) pairs a JSONL histogram carries.
using Buckets = std::vector<std::pair<std::size_t, std::uint64_t>>;

Buckets read_buckets(const JsonValue& buckets, Checked& in) {
  Buckets out;
  for (const JsonValue& pair : buckets.array) {
    if (pair.array.size() != 2) continue;
    const auto index =
        in.integer<std::size_t>(pair.array[0].number, "bucket index");
    const auto count =
        in.integer<std::uint64_t>(pair.array[1].number, "bucket count");
    out.emplace_back(index, count);
  }
  return out;
}

// Nearest-bucket quantile over an exported histogram; mirrors
// Histogram::quantile but works on the export.
double bucket_quantile(const Buckets& buckets, double q, double min_v,
                       double max_v) {
  std::uint64_t total = 0;
  for (const auto& [index, count] : buckets) total += count;
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (const auto& [index, count] : buckets) {
    cum += count;
    if (cum > target) {
      if (index == 0) return min_v;
      if (index >= Histogram::kBuckets - 1) return max_v;
      return Histogram::bucket_upper_bound(index);
    }
  }
  return max_v;
}

// ---------------------------------------------------------------------------
// spider-telemetry-v1 JSONL mode
//
// A sweep line's numbers are read into rows before anything is printed, so
// a line with a bad number prints nothing but its warning.

using CounterRows = std::vector<std::pair<std::string, std::uint64_t>>;

CounterRows counter_rows(const JsonValue& counters, Checked& in) {
  CounterRows rows;
  for (const auto& [name, value] : counters.object) {
    rows.emplace_back(name, in.integer<std::uint64_t>(value.number, name));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return rows;
}

void print_counters(const CounterRows& rows, int top) {
  const std::size_t shown =
      std::min<std::size_t>(rows.size(), static_cast<std::size_t>(top));
  std::printf("  counters (top %zu of %zu):\n", shown, rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("    %-40s %12llu\n", rows[i].first.c_str(),
                static_cast<unsigned long long>(rows[i].second));
  }
}

void print_gauges(const JsonValue& gauges) {
  if (gauges.object.empty()) return;
  std::printf("  gauges (level / high-water):\n");
  for (const auto& [name, g] : gauges.object) {
    std::printf("    %-40s %10.0f / %.0f\n", name.c_str(),
                g.number_or("value", 0.0), g.number_or("high_water", 0.0));
  }
}

struct HistogramRow {
  std::string name;
  double count = 0.0;
  double sum = 0.0;
  double max_v = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

std::vector<HistogramRow> histogram_rows(const JsonValue& histograms,
                                         Checked& in) {
  std::vector<HistogramRow> rows;
  for (const auto& [name, h] : histograms.object) {
    HistogramRow row;
    row.name = name;
    row.count = h.number_or("count", 0.0);
    row.sum = h.number_or("sum", 0.0);
    row.max_v = h.number_or("max", 0.0);
    if (const JsonValue* buckets = h.find("buckets")) {
      const Buckets pairs = read_buckets(*buckets, in);
      const double min_v = h.number_or("min", 0.0);
      row.p50 = bucket_quantile(pairs, 0.5, min_v, row.max_v);
      row.p90 = bucket_quantile(pairs, 0.9, min_v, row.max_v);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_histograms(const std::vector<HistogramRow>& rows) {
  if (rows.empty()) return;
  std::printf("  histograms:\n");
  for (const HistogramRow& h : rows) {
    std::printf(
        "    %-32s n=%-7.0f mean=%-9.4g p50~%-9.4g p90~%-9.4g max=%.4g\n",
        h.name.c_str(), h.count, h.count > 0 ? h.sum / h.count : 0.0, h.p50,
        h.p90, h.max_v);
  }
}

// The per-channel table: dwell time (driver.dwell_us.chN) against the frames
// the medium carried there — the figure-level "where did airtime go" view.
void print_channel_table(const JsonValue& counters) {
  struct Row {
    double dwell_us = 0.0;
    double sent = 0.0;
    double delivered = 0.0;
    bool any = false;
  };
  std::map<int, Row> rows;
  // -1 unless `name` is `prefix` followed by a channel number that fits.
  const auto channel_of = [](const std::string& name,
                             std::string_view prefix) -> int {
    if (name.compare(0, prefix.size(), prefix) != 0) return -1;
    int ch = -1;
    std::from_chars(name.data() + prefix.size(), name.data() + name.size(),
                    ch);
    return ch;
  };
  for (const auto& [name, value] : counters.object) {
    if (int ch = channel_of(name, "driver.dwell_us.ch"); ch >= 0) {
      rows[ch].dwell_us = value.number;
      rows[ch].any = true;
    } else if (ch = channel_of(name, "phy.frames_sent.ch"); ch >= 0) {
      rows[ch].sent = value.number;
      rows[ch].any = true;
    } else if (ch = channel_of(name, "phy.frames_delivered.ch"); ch >= 0) {
      rows[ch].delivered = value.number;
      rows[ch].any = true;
    }
  }
  if (rows.empty()) return;
  double total_dwell = 0.0;
  for (const auto& [ch, row] : rows) total_dwell += row.dwell_us;
  std::printf("  per-channel (dwell from driver, frames from medium):\n");
  std::printf("    %3s %12s %7s %12s %12s\n", "ch", "dwell_s", "share",
              "sent", "delivered");
  for (const auto& [ch, row] : rows) {
    if (!row.any) continue;
    std::printf("    %3d %12.3f %6.1f%% %12.0f %12.0f\n", ch,
                row.dwell_us / 1e6,
                total_dwell > 0.0 ? 100.0 * row.dwell_us / total_dwell : 0.0,
                row.sent, row.delivered);
  }
}

// ---------------------------------------------------------------------------
// spider-telemetry-stream-v1 mode

// Accumulates one run's stream. Metric values are cumulative on the wire, so
// "latest value seen" IS the final total — which is what reconciles against
// the end-of-run MetricsSnapshot.
struct RunStreamState {
  double seed = 0.0;
  bool begun = false;
  bool ended = false;
  std::int64_t first_ts_us = 0;
  std::int64_t last_ts_us = 0;
  std::uint64_t metrics_lines = 0;
  std::uint64_t spans = 0;
  std::uint64_t instants = 0;
  std::uint64_t counter_samples = 0;
  double events = 0.0;
  double trace_dropped = 0.0;
  std::string digest;
  std::map<std::string, double> counters;                      // latest
  std::map<std::string, std::pair<double, double>> gauges;     // value, hw
  std::map<std::string, std::pair<double, double>> histograms; // count, sum
};

class StreamSummary {
 public:
  // Folds one stream line in. Returns false, after a warning, when the
  // line's run tag or timestamp is not a valid integer.
  bool consume(const JsonValue& doc, std::size_t line_no) {
    Checked in;
    const auto tag =
        in.integer<std::uint32_t>(doc.number_or("run", 0.0), "run");
    const auto ts =
        in.integer<std::int64_t>(doc.number_or("ts_us", 0.0), "ts_us");
    if (!in.ok()) {
      in.warn("line", line_no);
      return false;
    }
    ++lines_;
    const std::string kind = doc.string_or("kind", "");
    RunStreamState& run = runs_[tag];
    if (!run.begun || ts < run.first_ts_us) run.first_ts_us = ts;
    if (ts > run.last_ts_us) run.last_ts_us = ts;
    if (kind == "run_begin") {
      run.begun = true;
      run.seed = doc.number_or("seed", 0.0);
    } else if (kind == "metrics") {
      ++run.metrics_lines;
      merge_metrics(run, doc);
    } else if (kind == "span") {
      ++run.spans;
    } else if (kind == "instant") {
      ++run.instants;
    } else if (kind == "counter_sample") {
      ++run.counter_samples;
    } else if (kind == "run_end") {
      run.ended = true;
      run.events = doc.number_or("events", 0.0);
      run.trace_dropped = doc.number_or("trace_dropped", 0.0);
      run.digest = doc.string_or("digest", "?");
    }
    // Unknown kinds within the stream schema are forward-compatible: the
    // timestamps above were already folded in, nothing else to do.
    return true;
  }

  std::size_t lines_consumed() const { return lines_; }

  double trace_dropped() const {
    double total = 0.0;
    for (const auto& [tag, run] : runs_) total += run.trace_dropped;
    return total;
  }

  void print(int top) const {
    for (const auto& [tag, run] : runs_) {
      std::printf("stream run %-3u seed=%-6.0f %s window=%.3fs..%.3fs",
                  static_cast<unsigned>(tag), run.seed,
                  run.ended ? "finished" : (run.begun ? "running" : "partial"),
                  static_cast<double>(run.first_ts_us) / 1e6,
                  static_cast<double>(run.last_ts_us) / 1e6);
      if (run.ended) {
        std::printf(" events=%.0f digest=%s", run.events, run.digest.c_str());
      }
      std::printf("\n");
      std::printf(
          "  lines: %llu metrics, %llu spans, %llu instants, %llu samples; "
          "trace events overwritten: %.0f\n",
          static_cast<unsigned long long>(run.metrics_lines),
          static_cast<unsigned long long>(run.spans),
          static_cast<unsigned long long>(run.instants),
          static_cast<unsigned long long>(run.counter_samples),
          run.trace_dropped);
      std::vector<std::pair<std::string, double>> rows(run.counters.begin(),
                                                       run.counters.end());
      std::stable_sort(rows.begin(), rows.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      const std::size_t shown =
          std::min<std::size_t>(rows.size(), static_cast<std::size_t>(top));
      if (shown > 0) {
        std::printf("  final counters (top %zu of %zu):\n", shown,
                    rows.size());
        for (std::size_t i = 0; i < shown; ++i) {
          std::printf("    %-40s %12.0f\n", rows[i].first.c_str(),
                      rows[i].second);
        }
      }
      for (const auto& [name, g] : run.gauges) {
        std::printf("  gauge %-36s %10.0f / %.0f\n", name.c_str(), g.first,
                    g.second);
      }
      for (const auto& [name, h] : run.histograms) {
        std::printf("  histogram %-32s n=%-8.0f mean=%.4g\n", name.c_str(),
                    h.first, h.first > 0 ? h.second / h.first : 0.0);
      }
    }
  }

 private:
  void merge_metrics(RunStreamState& run, const JsonValue& doc) {
    if (const JsonValue* counters = doc.find("counters")) {
      for (const auto& [name, value] : counters->object) {
        run.counters[name] = value.number;
      }
    }
    if (const JsonValue* gauges = doc.find("gauges")) {
      for (const auto& [name, g] : gauges->object) {
        run.gauges[name] = {g.number_or("value", 0.0),
                            g.number_or("high_water", 0.0)};
      }
    }
    if (const JsonValue* histograms = doc.find("histograms")) {
      for (const auto& [name, h] : histograms->object) {
        run.histograms[name] = {h.number_or("count", 0.0),
                                h.number_or("sum", 0.0)};
      }
    }
  }

  std::map<std::uint32_t, RunStreamState> runs_;
  std::size_t lines_ = 0;
};

int summarize_jsonl(Lines& lines, int top, bool strict) {
  std::size_t runs_seen = 0;
  std::size_t sweeps_seen = 0;
  std::size_t skipped = 0;
  StreamSummary stream;
  while (lines.next()) {
    const std::string& line = lines.text();
    const std::size_t line_no = lines.number();
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    if (!spider::telemetry::parse_json(line, doc, &error)) {
      if (!lines.terminated()) {
        std::fprintf(stderr,
                     "line %zu: skipping unterminated last line (the file "
                     "may still be being written)\n",
                     line_no);
        break;
      }
      std::fprintf(stderr, "line %zu: parse error: %s\n", line_no,
                   error.c_str());
      return 1;
    }
    const std::string schema = doc.string_or("schema", "");
    if (schema == spider::telemetry::kStreamSchema) {
      if (!stream.consume(doc, line_no)) ++skipped;
      continue;
    }
    // Unknown schemas are skipped, not fatal: consumers of either schema
    // must tolerate lines (and keys) they don't know.
    if (schema != spider::telemetry::kRunReportSchema) {
      std::fprintf(stderr, "line %zu: skipping unknown schema \"%s\"\n",
                   line_no, schema.c_str());
      ++skipped;
      continue;
    }
    const std::string kind = doc.string_or("kind", "");
    if (kind == "run") {
      Checked in;
      std::uint64_t joins = 0;
      if (const JsonValue* counters = doc.find("counters")) {
        joins = in.integer<std::uint64_t>(
            counters->number_or("driver.joins", 0.0), "driver.joins");
      }
      if (!in.ok()) {
        in.warn("line", line_no);
        ++skipped;
        continue;
      }
      ++runs_seen;
      std::printf("run   %-20s #%-3.0f seed=%-6.0f events=%-9.0f "
                  "joins=%llu digest=%s\n",
                  doc.string_or("label", "?").c_str(),
                  doc.number_or("run", 0.0), doc.number_or("seed", 0.0),
                  doc.number_or("events", 0.0),
                  static_cast<unsigned long long>(joins),
                  doc.string_or("digest", "?").c_str());
    } else if (kind == "sweep") {
      const JsonValue* merged = doc.find("merged");
      const auto section = [merged](const char* key) {
        return merged != nullptr ? merged->find(key) : nullptr;
      };
      const JsonValue* counters = section("counters");
      const JsonValue* histograms = section("histograms");
      Checked in;
      const CounterRows counter_table =
          counters != nullptr ? counter_rows(*counters, in) : CounterRows{};
      const std::vector<HistogramRow> histogram_table =
          histograms != nullptr ? histogram_rows(*histograms, in)
                                : std::vector<HistogramRow>{};
      if (!in.ok()) {
        in.warn("line", line_no);
        ++skipped;
        continue;
      }
      ++sweeps_seen;
      std::printf("sweep %-20s runs=%-3.0f combined_digest=%s\n",
                  doc.string_or("label", "?").c_str(),
                  doc.number_or("runs", 0.0),
                  doc.string_or("combined_digest", "?").c_str());
      if (counters != nullptr) {
        print_counters(counter_table, top);
        print_channel_table(*counters);
      }
      if (const JsonValue* gauges = section("gauges")) print_gauges(*gauges);
      print_histograms(histogram_table);
      if (const JsonValue* process = doc.find("process")) {
        if (const JsonValue* totals = process->find("counters")) {
          for (const auto& [name, value] : totals->object) {
            if (value.number != 0.0) {
              std::printf("  process %-30s %12.0f\n", name.c_str(),
                          value.number);
            }
          }
        }
      }
    } else {
      std::fprintf(stderr, "line %zu: skipping unknown kind \"%s\"\n",
                   line_no, kind.c_str());
      ++skipped;
    }
  }
  if (runs_seen == 0 && sweeps_seen == 0 && stream.lines_consumed() == 0) {
    std::fprintf(stderr, "no telemetry lines found\n");
    return 1;
  }
  if (stream.lines_consumed() > 0) stream.print(top);
  std::printf("%zu run line(s), %zu sweep block(s), %zu stream line(s)",
              runs_seen, sweeps_seen, stream.lines_consumed());
  if (skipped > 0) std::printf(", %zu skipped", skipped);
  std::printf("\n");
  if (strict && stream.trace_dropped() > 0.0) {
    std::fprintf(stderr,
                 "--strict: %.0f trace event(s) overwritten in the stream\n",
                 stream.trace_dropped());
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Chrome trace mode

int summarize_trace(const JsonValue& doc, int top, bool strict) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "no traceEvents array\n");
    return 1;
  }
  struct SpanStats {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
  };
  struct CounterStats {
    std::uint64_t samples = 0;
    double min_v = 0.0;
    double max_v = 0.0;
    double last_v = 0.0;
  };
  std::map<std::string, SpanStats> spans;    // "category/name"
  std::map<std::string, std::uint64_t> instants;
  std::map<std::string, CounterStats> counters;  // "category/name[id]"
  std::map<std::uint32_t, std::string> tracks;
  std::int64_t first_ts = 0;
  std::int64_t last_ts = 0;
  bool any_ts = false;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string ph = ev.string_or("ph", "");
    Checked in;
    if (ph == "M") {
      const auto tid =
          in.integer<std::uint32_t>(ev.number_or("tid", 0.0), "tid");
      if (!in.ok()) {
        in.warn("traceEvents", i);
        ++skipped;
      } else if (const JsonValue* args = ev.find("args")) {
        tracks[tid] = args->string_or("name", "?");
      }
      continue;
    }
    const double ts = ev.number_or("ts", 0.0);
    const double dur = ev.number_or("dur", 0.0);
    const auto start = in.integer<std::int64_t>(ts, "ts");
    const auto end = in.integer<std::int64_t>(ts + dur, "ts + dur");
    if (!in.ok()) {
      in.warn("traceEvents", i);
      ++skipped;
      continue;
    }
    if (!any_ts || start < first_ts) first_ts = start;
    if (!any_ts || end > last_ts) last_ts = end;
    any_ts = true;
    const std::string key =
        ev.string_or("cat", "?") + "/" + ev.string_or("name", "?");
    if (ph == "X") {
      SpanStats& s = spans[key];
      if (s.count == 0 || dur < s.min_us) s.min_us = dur;
      if (s.count == 0 || dur > s.max_us) s.max_us = dur;
      ++s.count;
      s.total_us += dur;
    } else if (ph == "i") {
      ++instants[key];
    } else if (ph == "C") {
      // Counter series are keyed per "id" (one series per AP, say); the
      // sampled value is the single integer arg the recorder emits.
      std::string ckey = key;
      const std::string id = ev.string_or("id", "");
      if (!id.empty()) ckey += "[" + id + "]";
      double value = 0.0;
      if (const JsonValue* args = ev.find("args")) {
        value = args->number_or("value", 0.0);
      }
      CounterStats& c = counters[ckey];
      if (c.samples == 0 || value < c.min_v) c.min_v = value;
      if (c.samples == 0 || value > c.max_v) c.max_v = value;
      ++c.samples;
      c.last_v = value;
    }
  }
  if (any_ts) {
    std::printf("trace window: %.3f s .. %.3f s (%.3f s)\n",
                static_cast<double>(first_ts) / 1e6,
                static_cast<double>(last_ts) / 1e6,
                (static_cast<double>(last_ts) -
                 static_cast<double>(first_ts)) / 1e6);
  }
  if (!tracks.empty()) {
    std::printf("tracks:");
    for (const auto& [tid, name] : tracks) {
      std::printf(" %u=%s", static_cast<unsigned>(tid), name.c_str());
    }
    std::printf("\n");
  }
  if (!spans.empty()) {
    std::printf("spans (cat/name, durations in ms):\n");
    std::printf("  %-28s %8s %10s %10s %10s %10s\n", "span", "count", "total",
                "mean", "min", "max");
    std::vector<std::pair<std::string, SpanStats>> rows(spans.begin(),
                                                        spans.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.total_us > b.second.total_us;
                     });
    const std::size_t shown =
        std::min<std::size_t>(rows.size(), static_cast<std::size_t>(top));
    for (std::size_t i = 0; i < shown; ++i) {
      const SpanStats& s = rows[i].second;
      std::printf("  %-28s %8llu %10.2f %10.2f %10.2f %10.2f\n",
                  rows[i].first.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_us / 1e3,
                  s.total_us / 1e3 / static_cast<double>(s.count),
                  s.min_us / 1e3, s.max_us / 1e3);
    }
  }
  if (!instants.empty()) {
    std::printf("instants:\n");
    for (const auto& [name, count] : instants) {
      std::printf("  %-28s %8llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  if (!counters.empty()) {
    std::printf("counters (samples, value range, final):\n");
    std::printf("  %-32s %8s %10s %10s %10s\n", "counter", "samples", "min",
                "max", "last");
    for (const auto& [name, c] : counters) {
      std::printf("  %-32s %8llu %10.0f %10.0f %10.0f\n", name.c_str(),
                  static_cast<unsigned long long>(c.samples), c.min_v,
                  c.max_v, c.last_v);
    }
  }
  if (skipped > 0) {
    std::printf("skipped events (numbers out of range): %zu\n", skipped);
  }
  // Events overwritten by the recorder's bounded ring — the exported file
  // holds only the most recent window when this is nonzero.
  const double dropped = doc.number_or("droppedEvents", 0.0);
  if (dropped > 0.0) {
    std::printf("dropped events (ring overwrites): %.0f\n", dropped);
  }
  if (strict && dropped > 0.0) {
    std::fprintf(stderr,
                 "--strict: %.0f event(s) overwritten; the recorder keeps the "
                 "newest %zu, so trace a shorter run\n",
                 dropped, spider::telemetry::TraceRecorder::kDefaultCapacity);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  int top = 12;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--top=", 6) == 0) {
      top = std::atoi(argv[i] + 6);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (path == nullptr || top <= 0) {
    std::fprintf(stderr,
                 "usage: spider-trace <telemetry.jsonl | stream.jsonl | "
                 "trace.json> [--top N] [--strict]\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  // A Chrome trace is one JSON object with "traceEvents" on one line;
  // everything else is treated as JSONL (run-report or stream), starting
  // with that same first line.
  Lines lines(in);
  if (lines.next()) {
    JsonValue doc;
    if (spider::telemetry::parse_json(lines.text(), doc, nullptr) &&
        doc.find("traceEvents") != nullptr) {
      return summarize_trace(doc, top, strict);
    }
    lines.hold();
  }
  return summarize_jsonl(lines, top, strict);
}
