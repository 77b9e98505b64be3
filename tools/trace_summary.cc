// spider-trace — terminal summary of a telemetry stream, and its Chrome
// trace export.
//
// Reads the spider-telemetry-stream-v1 JSONL a run writes with --stream
// (DESIGN.md "Live telemetry plane") and prints
//   * per run: its state, simulated-time window, line counts and the final
//     streamed counters, gauges and histograms;
//   * one merged summary over the file's finished runs: their run_end
//     snapshots merged in run-tag order by MetricsSnapshot::merge_from (the
//     rules of core::SweepReport::merged_telemetry), printed as the top
//     counters, a per-channel dwell/traffic table, gauge levels/peaks,
//     histogram quantiles from the log buckets, and the nonzero process
//     counters (SPIDER_CHECK failures) of the exporter's closing line.
// With --chrome OUT it also writes the span, instant and counter_sample
// lines to OUT as one {"traceEvents":[…]} document that chrome://tracing and
// Perfetto load: one process per run tag, one thread per lane owner, and a
// thread_name record for every owner the run named.
//
// Usage: spider-trace [--top N] [--chrome OUT] <stream.jsonl>
//   --top N       rows in the counter tables, 1..1000 (default 12)
//   --chrome OUT  also write the Chrome trace-event document to OUT
// Both also accept --flag=value. A bad flag or value exits 2.
//
// The file is read one line at a time, so memory is bounded by the longest
// line plus one snapshot per run. To watch a run live, read the file while
// the run writes it: a last line without its newline that does not parse
// yet is skipped with a note. Lines of another schema are skipped with a
// warning. The file may come from anywhere, so every number that becomes an
// integer is range-checked first (Checked below): a line carrying a
// non-finite, negative-where-unsigned or out-of-range value is skipped with
// a warning, and the Chrome document stays valid JSON.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/stream_exporter.h"

namespace {

using spider::telemetry::append_json_double;
using spider::telemetry::append_json_i64;
using spider::telemetry::append_json_quoted;
using spider::telemetry::append_json_u64;
using spider::telemetry::Histogram;
using spider::telemetry::JsonValue;
using spider::telemetry::MetricsSnapshot;

// A file read one line at a time; memory is bounded by the longest line.
class Lines {
 public:
  explicit Lines(std::istream& in) : in_(in) {}

  bool next() {
    if (!std::getline(in_, text_)) return false;
    ++number_;
    terminated_ = !in_.eof();
    return true;
  }

  const std::string& text() const { return text_; }
  std::size_t number() const { return number_; }
  // False only for a last line that did not end in '\n'.
  bool terminated() const { return terminated_; }

 private:
  std::istream& in_;
  std::string text_;
  std::size_t number_ = 0;
  bool terminated_ = false;
};

// The one way a JSON number becomes an integer here. Casting NaN, an
// infinity, a negative value to an unsigned type, or anything past the
// type's range is undefined behaviour, so integer() refuses those, returns
// 0, and remembers the first field that failed; the caller then skips the
// whole line with warn().
class Checked {
 public:
  template <typename T>
  T integer(double v, std::string_view field) {
    // 2^bits (2^(bits-1) if signed), built from a power of two so it is
    // exact in a double; every double below it truncates into range.
    constexpr double kEnd =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    return below<T>(v, kEnd, field);
  }

  // An integer of T in [min(T), end).
  template <typename T>
  T below(double v, double end, std::string_view field) {
    constexpr double kLo = static_cast<double>(std::numeric_limits<T>::min());
    if (v >= kLo && v < end) return static_cast<T>(v);  // NaN fails both
    if (ok_) {
      ok_ = false;
      field_ = field;
      value_ = v;
    }
    return T{};
  }

  bool ok() const { return ok_; }

  void warn(std::size_t line_no) const {
    std::fprintf(stderr, "line %zu: skipping: \"%s\" = %g is out of range\n",
                 line_no, field_.c_str(), value_);
  }

 private:
  bool ok_ = true;
  std::string field_;
  double value_ = 0.0;
};

// ---------------------------------------------------------------------------
// Snapshots: the run_end "snapshot" and the closing line's "process" object,
// read back into the MetricsSnapshot that append_snapshot_json rendered.

MetricsSnapshot read_snapshot(const JsonValue& doc, Checked& in) {
  MetricsSnapshot snap;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->object) {
      snap.counters.push_back(
          {name, in.integer<std::uint64_t>(value.number, name)});
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, g] : gauges->object) {
      snap.gauges.push_back(
          {name, in.integer<std::int64_t>(g.number_or("value", 0.0), name),
           in.integer<std::int64_t>(g.number_or("high_water", 0.0), name)});
    }
  }
  if (const JsonValue* histograms = doc.find("histograms")) {
    for (const auto& [name, h] : histograms->object) {
      spider::telemetry::HistogramSample sample;
      sample.name = name;
      sample.count = in.integer<std::uint64_t>(h.number_or("count", 0.0),
                                               "histogram count");
      sample.sum = h.number_or("sum", 0.0);
      sample.min = h.number_or("min", 0.0);
      sample.max = h.number_or("max", 0.0);
      if (const JsonValue* buckets = h.find("buckets")) {
        for (const JsonValue& pair : buckets->array) {
          if (pair.array.size() != 2) continue;
          sample.buckets.emplace_back(
              in.below<std::uint32_t>(pair.array[0].number,
                                      static_cast<double>(Histogram::kBuckets),
                                      "bucket index"),
              in.integer<std::uint64_t>(pair.array[1].number,
                                        "bucket count"));
        }
        std::sort(sample.buckets.begin(), sample.buckets.end());
      }
      snap.histograms.push_back(std::move(sample));
    }
  }
  // merge_from takes name-sorted vectors; the writer emits them so, a
  // hand-edited file need not.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::stable_sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::stable_sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::stable_sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

// Nearest-bucket quantile over an exported histogram: the bucket where the
// cumulative count first passes q of the total.
double bucket_quantile(const spider::telemetry::HistogramSample& h,
                       double q) {
  std::uint64_t total = 0;
  for (const auto& [index, count] : h.buckets) total += count;
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (const auto& [index, count] : h.buckets) {
    cum += count;
    if (cum > target) {
      if (index == 0) return h.min;
      if (index >= Histogram::kBuckets - 1) return h.max;
      return Histogram::bucket_upper_bound(index);
    }
  }
  return h.max;
}

void print_counters(const MetricsSnapshot& snap, int top) {
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  for (const auto& c : snap.counters) rows.emplace_back(c.name, c.value);
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  const std::size_t shown =
      std::min<std::size_t>(rows.size(), static_cast<std::size_t>(top));
  std::printf("  counters (top %zu of %zu):\n", shown, rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("    %-40s %12llu\n", rows[i].first.c_str(),
                static_cast<unsigned long long>(rows[i].second));
  }
}

// The per-channel table: dwell time (driver.dwell_us.chN) against the frames
// the medium carried there — the figure-level "where did airtime go" view.
void print_channel_table(const MetricsSnapshot& snap) {
  struct Row {
    std::uint64_t dwell_us = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
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
  for (const auto& c : snap.counters) {
    if (int ch = channel_of(c.name, "driver.dwell_us.ch"); ch >= 0) {
      rows[ch].dwell_us = c.value;
    } else if (ch = channel_of(c.name, "phy.frames_sent.ch"); ch >= 0) {
      rows[ch].sent = c.value;
    } else if (ch = channel_of(c.name, "phy.frames_delivered.ch"); ch >= 0) {
      rows[ch].delivered = c.value;
    }
  }
  if (rows.empty()) return;
  double total_dwell = 0.0;
  for (const auto& [ch, row] : rows) {
    total_dwell += static_cast<double>(row.dwell_us);
  }
  std::printf("  per-channel (dwell from driver, frames from medium):\n");
  std::printf("    %3s %12s %7s %12s %12s\n", "ch", "dwell_s", "share",
              "sent", "delivered");
  for (const auto& [ch, row] : rows) {
    const auto dwell = static_cast<double>(row.dwell_us);
    std::printf("    %3d %12.3f %6.1f%% %12llu %12llu\n", ch, dwell / 1e6,
                total_dwell > 0.0 ? 100.0 * dwell / total_dwell : 0.0,
                static_cast<unsigned long long>(row.sent),
                static_cast<unsigned long long>(row.delivered));
  }
}

void print_snapshot(const MetricsSnapshot& snap, int top) {
  print_counters(snap, top);
  print_channel_table(snap);
  if (!snap.gauges.empty()) {
    std::printf("  gauges (level / high-water):\n");
    for (const auto& g : snap.gauges) {
      std::printf("    %-40s %10lld / %lld\n", g.name.c_str(),
                  static_cast<long long>(g.value),
                  static_cast<long long>(g.high_water));
    }
  }
  if (!snap.histograms.empty()) {
    std::printf("  histograms:\n");
    for (const auto& h : snap.histograms) {
      const auto n = static_cast<double>(h.count);
      std::printf(
          "    %-32s n=%-7llu mean=%-9.4g p50~%-9.4g p90~%-9.4g max=%.4g\n",
          h.name.c_str(), static_cast<unsigned long long>(h.count),
          h.count > 0 ? h.sum / n : 0.0, bucket_quantile(h, 0.5),
          bucket_quantile(h, 0.9), h.max);
    }
  }
}

// ---------------------------------------------------------------------------
// --chrome: the trace lines as one Chrome trace-event document, written as
// they are read.

class ChromeWriter {
 public:
  explicit ChromeWriter(const char* path)
      : path_(path), file_(std::fopen(path, "w")) {
    put("{\"traceEvents\":[");
  }
  ~ChromeWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool ok() const { return file_ != nullptr && !failed_; }
  const char* path() const { return path_; }
  std::size_t events() const { return events_; }

  // One span, instant or counter_sample line, its integers already checked.
  void event(const JsonValue& doc, const std::string& kind, std::uint32_t run,
             std::int64_t ts, std::int64_t dur, std::uint32_t track) {
    const std::uint64_t tid = current_tid(run, track);
    const char phase = kind == "span" ? 'X' : kind == "instant" ? 'i' : 'C';
    std::string out = "{\"name\":";
    append_json_quoted(out, doc.string_or("name", ""));
    out += ",\"cat\":";
    append_json_quoted(out, doc.string_or("cat", ""));
    out += ",\"ph\":\"";
    out += phase;
    out += "\",\"ts\":";
    append_json_i64(out, ts);
    if (phase == 'X') {
      out += ",\"dur\":";
      append_json_i64(out, dur);
    }
    out += ",\"pid\":";
    append_json_u64(out, run);
    out += ",\"tid\":";
    append_json_u64(out, tid);
    if (phase == 'C') {
      // Counter series are keyed by (pid, name, id), not tid; a nonzero
      // tid becomes the "id" so several same-named series (one per AP,
      // say) render as separate graphs.
      if (tid != 0) {
        out += ",\"id\":\"";
        append_json_u64(out, tid);
        out += '"';
      }
      out += ",\"args\":{\"value\":";
      append_json_double(out, doc.number_or("value", 0.0));
      out += '}';
    } else if (const JsonValue* args = doc.find("args")) {
      out += ",\"args\":{";
      bool first = true;
      for (const auto& [name, value] : args->object) {
        if (!first) out += ',';
        first = false;
        append_json_quoted(out, name);
        out += ':';
        append_json_double(out, value.number);
      }
      out += '}';
    }
    out += '}';
    record(out);
    ++events_;
  }

  // A "track" line: `track`'s next owner, named `name`.
  void track_name(std::uint32_t run, std::uint32_t track,
                  const std::string& name) {
    std::string out = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    append_json_u64(out, run);
    out += ",\"tid\":";
    append_json_u64(out, new_owner(run, track));
    out += ",\"args\":{\"name\":";
    append_json_quoted(out, name);
    out += "}}";
    record(out);
  }

  // Ends the document and closes the file; false if any write failed.
  bool close() {
    put("],\"displayTimeUnit\":\"ms\"}\n");
    if (file_ != nullptr && std::fclose(file_) != 0) failed_ = true;
    file_ = nullptr;
    return !failed_;
  }

 private:
  void record(const std::string& text) {
    if (!first_) put(",");
    first_ = false;
    put(text);
  }
  void put(std::string_view text) {
    if (file_ == nullptr ||
        std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      failed_ = true;
    }
  }

  // The recorder hands a lane to successive owners (one virtual interface,
  // then another), and each owner's "track" line names it afresh; giving the
  // owners one tid would give that tid several names. So each owner gets a
  // tid of its own: a lane's first owner keeps the lane number, and every
  // later one adds 2^32 to its predecessor's tid, past any 32-bit lane.
  // Lines on a lane go to its current owner; lane 0, the world's shared
  // lane, is always tid 0.
  static constexpr std::uint64_t kOwnerStride = std::uint64_t{1} << 32;
  using Lane = std::pair<std::uint32_t, std::uint32_t>;  // (run, track)

  std::uint64_t current_tid(std::uint32_t run, std::uint32_t track) const {
    const auto it = owners_.find(Lane{run, track});
    return it == owners_.end() ? track : it->second;
  }
  std::uint64_t new_owner(std::uint32_t run, std::uint32_t track) {
    if (track == 0) return 0;
    const auto [it, first] = owners_.try_emplace(Lane{run, track}, track);
    if (!first) it->second += kOwnerStride;
    return it->second;
  }

  const char* path_;
  std::FILE* file_;
  bool failed_ = false;
  bool first_ = true;
  std::size_t events_ = 0;
  std::map<Lane, std::uint64_t> owners_;  // current tid of each named lane
};

// ---------------------------------------------------------------------------
// The stream reader.

// One run's stream. Metric values are cumulative on the wire, so "latest
// value seen" IS the final total — which is what reconciles against the
// end-of-run MetricsSnapshot that run_end carries.
struct RunState {
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
  std::string digest;
  std::map<std::string, double> counters;                      // latest
  std::map<std::string, std::pair<double, double>> gauges;     // value, hw
  std::map<std::string, std::pair<double, double>> histograms; // count, sum
  MetricsSnapshot snapshot;  // run_end's
};

class StreamSummary {
 public:
  explicit StreamSummary(ChromeWriter* chrome) : chrome_(chrome) {}

  // Folds one stream line in. Returns false, after a warning, when one of
  // the line's integers is out of range.
  bool consume(const JsonValue& doc, std::size_t line_no) {
    const std::string kind = doc.string_or("kind", "");
    Checked in;
    if (kind == "close") {
      MetricsSnapshot process;
      if (const JsonValue* p = doc.find("process")) {
        process = read_snapshot(*p, in);
      }
      if (!in.ok()) {
        in.warn(line_no);
        return false;
      }
      ++lines_;
      process_ = std::move(process);
      return true;
    }
    const auto tag =
        in.integer<std::uint32_t>(doc.number_or("run", 0.0), "run");
    const auto ts =
        in.integer<std::int64_t>(doc.number_or("ts_us", 0.0), "ts_us");
    const bool trace_line =
        kind == "span" || kind == "instant" || kind == "counter_sample";
    std::int64_t dur = 0;
    std::uint32_t track = 0;
    if (trace_line || kind == "track") {
      track = in.integer<std::uint32_t>(doc.number_or("track", 0.0), "track");
    }
    if (kind == "span") {
      dur = in.integer<std::int64_t>(doc.number_or("dur_us", 0.0), "dur_us");
    }
    MetricsSnapshot snapshot;
    if (kind == "run_end") {
      if (const JsonValue* s = doc.find("snapshot")) {
        snapshot = read_snapshot(*s, in);
      }
    }
    if (!in.ok()) {
      in.warn(line_no);
      return false;
    }
    ++lines_;
    RunState& run = runs_[tag];
    if (!run.begun || ts < run.first_ts_us) run.first_ts_us = ts;
    if (ts > run.last_ts_us) run.last_ts_us = ts;
    if (kind == "run_begin") {
      run.begun = true;
      run.seed = doc.number_or("seed", 0.0);
    } else if (kind == "metrics") {
      ++run.metrics_lines;
      merge_metrics(run, doc);
    } else if (trace_line) {
      ++(kind == "span"      ? run.spans
         : kind == "instant" ? run.instants
                             : run.counter_samples);
      if (chrome_ != nullptr) chrome_->event(doc, kind, tag, ts, dur, track);
    } else if (kind == "track") {
      if (chrome_ != nullptr) {
        chrome_->track_name(tag, track, doc.string_or("name", ""));
      }
    } else if (kind == "run_end") {
      run.ended = true;
      run.events = doc.number_or("events", 0.0);
      run.digest = doc.string_or("digest", "?");
      run.snapshot = std::move(snapshot);
    }
    // Unknown kinds are forward-compatible: the timestamps above were
    // already folded in, nothing else to do.
    return true;
  }

  std::size_t lines_consumed() const { return lines_; }

  void print(int top) const {
    for (const auto& [tag, run] : runs_) print_run(tag, run, top);
    // The merged summary: finished runs' snapshots in run-tag order.
    MetricsSnapshot merged;
    std::size_t finished = 0;
    for (const auto& [tag, run] : runs_) {
      if (!run.ended) continue;
      merged.merge_from(run.snapshot);
      ++finished;
    }
    if (finished > 0) {
      std::printf("merged over %zu finished run(s)\n", finished);
      print_snapshot(merged, top);
    }
    for (const auto& c : process_.counters) {
      if (c.value != 0) {
        std::printf("  process %-30s %12llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      }
    }
  }

 private:
  static void print_run(std::uint32_t tag, const RunState& run, int top) {
    std::printf("stream run %-3u seed=%-6.0f %s window=%.3fs..%.3fs",
                static_cast<unsigned>(tag), run.seed,
                run.ended ? "finished" : (run.begun ? "running" : "partial"),
                static_cast<double>(run.first_ts_us) / 1e6,
                static_cast<double>(run.last_ts_us) / 1e6);
    if (run.ended) {
      std::printf(" events=%.0f digest=%s", run.events, run.digest.c_str());
    }
    std::printf("\n");
    std::printf("  lines: %llu metrics, %llu spans, %llu instants, "
                "%llu samples\n",
                static_cast<unsigned long long>(run.metrics_lines),
                static_cast<unsigned long long>(run.spans),
                static_cast<unsigned long long>(run.instants),
                static_cast<unsigned long long>(run.counter_samples));
    std::vector<std::pair<std::string, double>> rows(run.counters.begin(),
                                                     run.counters.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    const std::size_t shown =
        std::min<std::size_t>(rows.size(), static_cast<std::size_t>(top));
    if (shown > 0) {
      std::printf("  final counters (top %zu of %zu):\n", shown, rows.size());
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

  static void merge_metrics(RunState& run, const JsonValue& doc) {
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

  ChromeWriter* chrome_;
  std::map<std::uint32_t, RunState> runs_;
  MetricsSnapshot process_;
  std::size_t lines_ = 0;
};

int summarize(Lines& lines, int top, ChromeWriter* chrome) {
  std::size_t skipped = 0;
  StreamSummary stream(chrome);
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
    if (schema != spider::telemetry::kStreamSchema) {
      std::fprintf(stderr, "line %zu: skipping unknown schema \"%s\"\n",
                   line_no, schema.c_str());
      ++skipped;
    } else if (!stream.consume(doc, line_no)) {
      ++skipped;
    }
  }
  if (stream.lines_consumed() == 0) {
    std::fprintf(stderr, "no stream lines found\n");
    return 1;
  }
  stream.print(top);
  std::printf("%zu stream line(s)", stream.lines_consumed());
  if (skipped > 0) std::printf(", %zu skipped", skipped);
  std::printf("\n");
  if (chrome != nullptr) {
    if (!chrome->close()) {
      std::fprintf(stderr, "could not write %s\n", chrome->path());
      return 1;
    }
    std::printf("wrote %zu trace event(s) to %s\n", chrome->events(),
                chrome->path());
  }
  return 0;
}

constexpr const char* kUsage =
    "usage: spider-trace [--top N] [--chrome OUT] <stream.jsonl>\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "spider-trace: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

// --top's value: all of it an integer in 1..1000.
int parse_top(const char* v) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (*v == '\0' || *end != '\0' || errno == ERANGE || x < 1 || x > 1000) {
    usage_error(std::string("bad value for --top: '") + v +
                "' (want an integer in 1..1000)");
  }
  return static_cast<int>(x);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* chrome_path = nullptr;
  int top = 12;
  // The value of `flag` at argv[i], spelled "--flag=V" or "--flag V";
  // nullptr if argv[i] is not `flag`.
  const auto value_of = [&](const char* flag, int& i) -> const char* {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] != '\0') return nullptr;
    if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of("--top", i)) {
      top = parse_top(v);
    } else if (const char* v = value_of("--chrome", i)) {
      if (*v == '\0') usage_error("--chrome needs a path");
      chrome_path = v;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      usage_error(std::string("unknown flag '") + argv[i] + "'");
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      usage_error(std::string("unexpected argument '") + argv[i] + "'");
    }
  }
  if (path == nullptr) usage_error("no stream file given");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  std::unique_ptr<ChromeWriter> chrome;
  if (chrome_path != nullptr) {
    chrome = std::make_unique<ChromeWriter>(chrome_path);
    if (!chrome->ok()) {
      std::fprintf(stderr, "cannot write %s\n", chrome_path);
      return 1;
    }
  }
  Lines lines(in);
  return summarize(lines, top, chrome.get());
}
