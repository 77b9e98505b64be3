// spider-trace — terminal summaries of the repo's telemetry artifacts.
//
// Accepts any artifact the benches and the run server emit:
//   * a spider-telemetry-v1 JSONL file (from --telemetry): prints each
//     sweep's top counters, gauge levels/peaks, histogram summaries with
//     log-bucket quantiles, and a per-channel dwell/traffic table;
//   * a spider-telemetry-stream-v1 JSONL file (from --stream / spider-serve):
//     prints per-run stream statistics and the final streamed metric values;
//     mixed files work — lines with an unknown schema or kind are skipped
//     with a warning, so v1 consumers can skim stream files and vice versa;
//   * a Chrome trace JSON file (from --trace): prints per-(category, name)
//     span statistics, instant-event counts, counter-track statistics
//     (samples / value range / final value, per series id), the named
//     tracks, and the ring's dropped-event count.
//
// Usage: spider-trace <file> [--top N] [--strict]
//        spider-trace --follow <socket> [--top N] [--strict]
//
// --follow connects to a spider-serve socket, prints the snapshot, then
// tails the live stream until the server hangs up. --strict exits nonzero
// when any drop counter (stream ring overflow, trace ring overwrite) is
// nonzero — the CI guard that telemetry windows were big enough.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
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

std::string read_file(const char* path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *ok = true;
  return buf.str();
}

// Nearest-bucket quantile over the sparse (index, count) pairs a JSONL
// histogram carries; mirrors Histogram::quantile but works on the export.
double bucket_quantile(const JsonValue& buckets, double q, double min_v,
                       double max_v) {
  std::uint64_t total = 0;
  for (const JsonValue& pair : buckets.array) {
    if (pair.array.size() == 2) {
      total += static_cast<std::uint64_t>(pair.array[1].number);
    }
  }
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (const JsonValue& pair : buckets.array) {
    if (pair.array.size() != 2) continue;
    const auto index = static_cast<std::size_t>(pair.array[0].number);
    cum += static_cast<std::uint64_t>(pair.array[1].number);
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

void print_counters(const JsonValue& counters, int top) {
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  for (const auto& [name, value] : counters.object) {
    rows.emplace_back(name, static_cast<std::uint64_t>(value.number));
  }
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

void print_gauges(const JsonValue& gauges) {
  if (gauges.object.empty()) return;
  std::printf("  gauges (level / high-water):\n");
  for (const auto& [name, g] : gauges.object) {
    std::printf("    %-40s %10.0f / %.0f\n", name.c_str(),
                g.number_or("value", 0.0), g.number_or("high_water", 0.0));
  }
}

void print_histograms(const JsonValue& histograms) {
  if (histograms.object.empty()) return;
  std::printf("  histograms:\n");
  for (const auto& [name, h] : histograms.object) {
    const double count = h.number_or("count", 0.0);
    const double sum = h.number_or("sum", 0.0);
    const double min_v = h.number_or("min", 0.0);
    const double max_v = h.number_or("max", 0.0);
    double p50 = 0.0;
    double p90 = 0.0;
    if (const JsonValue* buckets = h.find("buckets")) {
      p50 = bucket_quantile(*buckets, 0.5, min_v, max_v);
      p90 = bucket_quantile(*buckets, 0.9, min_v, max_v);
    }
    std::printf(
        "    %-32s n=%-7.0f mean=%-9.4g p50~%-9.4g p90~%-9.4g max=%.4g\n",
        name.c_str(), count, count > 0 ? sum / count : 0.0, p50, p90, max_v);
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
  const auto channel_of = [](const std::string& name,
                             const char* prefix) -> int {
    const std::size_t len = std::strlen(prefix);
    if (name.compare(0, len, prefix) != 0) return -1;
    return std::atoi(name.c_str() + len);
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
// spider-telemetry-stream-v1 mode (files and --follow)

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
  double stream_dropped = 0.0;
  double trace_dropped = 0.0;
  std::string digest;
  std::map<std::string, double> counters;                      // latest
  std::map<std::string, std::pair<double, double>> gauges;     // value, hw
  std::map<std::string, std::pair<double, double>> histograms; // count, sum
};

class StreamSummary {
 public:
  void consume(const JsonValue& doc) {
    const std::string kind = doc.string_or("kind", "");
    if (kind == "snapshot") {
      if (const JsonValue* runs = doc.find("runs")) {
        for (const JsonValue& run : runs->array) consume_run_state(run);
      }
      return;
    }
    RunStreamState& run =
        runs_[static_cast<std::uint32_t>(doc.number_or("run", 0.0))];
    const auto ts = static_cast<std::int64_t>(doc.number_or("ts_us", 0.0));
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
      run.stream_dropped = doc.number_or("stream_dropped", 0.0);
      run.trace_dropped = doc.number_or("trace_dropped", 0.0);
      run.digest = doc.string_or("digest", "?");
    }
    // Unknown kinds within the stream schema are forward-compatible: the
    // timestamps above were already folded in, nothing else to do.
  }

  std::size_t lines_consumed() const { return lines_; }
  void count_line() { ++lines_; }

  double total_drops() const {
    double total = 0.0;
    for (const auto& [tag, run] : runs_) {
      total += run.stream_dropped + run.trace_dropped;
    }
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
          "dropped: %.0f stream, %.0f trace\n",
          static_cast<unsigned long long>(run.metrics_lines),
          static_cast<unsigned long long>(run.spans),
          static_cast<unsigned long long>(run.instants),
          static_cast<unsigned long long>(run.counter_samples),
          run.stream_dropped, run.trace_dropped);
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

  void consume_run_state(const JsonValue& state) {
    RunStreamState& run =
        runs_[static_cast<std::uint32_t>(state.number_or("run", 0.0))];
    run.seed = state.number_or("seed", run.seed);
    run.events = state.number_or("events", run.events);
    run.digest = state.string_or("digest", run.digest);
    run.last_ts_us = static_cast<std::int64_t>(
        state.number_or("ts_us", static_cast<double>(run.last_ts_us)));
    run.stream_dropped = state.number_or("stream_dropped", run.stream_dropped);
    const std::string s = state.string_or("state", "");
    if (s == "running") run.begun = true;
    if (s == "finished") run.begun = run.ended = true;
    merge_metrics(run, state);
  }

  std::map<std::uint32_t, RunStreamState> runs_;
  std::size_t lines_ = 0;
};

int summarize_jsonl(const std::string& text, int top, bool strict) {
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t runs_seen = 0;
  std::size_t sweeps_seen = 0;
  std::size_t skipped = 0;
  StreamSummary stream;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    if (!spider::telemetry::parse_json(line, doc, &error)) {
      std::fprintf(stderr, "line %zu: parse error: %s\n", line_no,
                   error.c_str());
      return 1;
    }
    const std::string schema = doc.string_or("schema", "");
    if (schema == spider::telemetry::kStreamSchema) {
      stream.consume(doc);
      stream.count_line();
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
      ++runs_seen;
      std::uint64_t samples = 0;
      if (const JsonValue* counters = doc.find("counters")) {
        samples = static_cast<std::uint64_t>(
            counters->number_or("driver.joins", 0.0));
      }
      std::printf("run   %-20s #%-3.0f seed=%-6.0f events=%-9.0f "
                  "joins=%llu digest=%s\n",
                  doc.string_or("label", "?").c_str(),
                  doc.number_or("run", 0.0), doc.number_or("seed", 0.0),
                  doc.number_or("events", 0.0),
                  static_cast<unsigned long long>(samples),
                  doc.string_or("digest", "?").c_str());
    } else if (kind == "sweep") {
      ++sweeps_seen;
      std::printf("sweep %-20s runs=%-3.0f combined_digest=%s\n",
                  doc.string_or("label", "?").c_str(),
                  doc.number_or("runs", 0.0),
                  doc.string_or("combined_digest", "?").c_str());
      if (const JsonValue* merged = doc.find("merged")) {
        if (const JsonValue* counters = merged->find("counters")) {
          print_counters(*counters, top);
          print_channel_table(*counters);
        }
        if (const JsonValue* gauges = merged->find("gauges")) {
          print_gauges(*gauges);
        }
        if (const JsonValue* histograms = merged->find("histograms")) {
          print_histograms(*histograms);
        }
      }
      if (const JsonValue* process = doc.find("process")) {
        if (const JsonValue* counters = process->find("counters")) {
          for (const auto& [name, value] : counters->object) {
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
  if (strict && stream.total_drops() > 0.0) {
    std::fprintf(stderr, "--strict: %.0f dropped record(s) in the stream\n",
                 stream.total_drops());
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
  for (const JsonValue& ev : events->array) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "M") {
      if (const JsonValue* args = ev.find("args")) {
        tracks[static_cast<std::uint32_t>(ev.number_or("tid", 0.0))] =
            args->string_or("name", "?");
      }
      continue;
    }
    const double ts = ev.number_or("ts", 0.0);
    const double dur = ev.number_or("dur", 0.0);
    if (!any_ts || static_cast<std::int64_t>(ts) < first_ts) {
      first_ts = static_cast<std::int64_t>(ts);
    }
    if (!any_ts || static_cast<std::int64_t>(ts + dur) > last_ts) {
      last_ts = static_cast<std::int64_t>(ts + dur);
    }
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
                static_cast<double>(last_ts - first_ts) / 1e6);
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

// ---------------------------------------------------------------------------
// --follow: tail a spider-serve socket

int follow_socket(const char* path, int top, bool strict) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "cannot create socket\n");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (std::strlen(path) >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long\n");
    ::close(fd);
    return 1;
  }
  std::memcpy(addr.sun_path, path, std::strlen(path) + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "cannot connect to %s (is spider-serve running?)\n",
                 path);
    ::close(fd);
    return 1;
  }
  const char request[] = "{\"cmd\":\"follow\"}\n";
  if (::send(fd, request, sizeof(request) - 1, 0) < 0) {
    std::fprintf(stderr, "cannot send follow request\n");
    ::close(fd);
    return 1;
  }

  StreamSummary stream;
  std::string buffer;
  char chunk[8192];
  bool snapshot_seen = false;
  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      JsonValue doc;
      if (!spider::telemetry::parse_json(line, doc)) continue;
      const std::string kind = doc.string_or("kind", "");
      stream.consume(doc);
      if (kind == "snapshot") {
        snapshot_seen = true;
        const JsonValue* runs = doc.find("runs");
        std::printf("connected: %zu run(s) known to the server\n",
                    runs != nullptr ? runs->array.size() : 0);
        std::fflush(stdout);
        continue;
      }
      stream.count_line();
      // Live one-liner per streamed record so mid-run progress is visible.
      std::printf("[run %.0f] seq %.0f t=%.3fs %s", doc.number_or("run", 0.0),
                  doc.number_or("seq", 0.0),
                  doc.number_or("ts_us", 0.0) / 1e6, kind.c_str());
      if (kind == "metrics") {
        std::size_t changed = 0;
        for (const char* section : {"counters", "gauges", "histograms"}) {
          if (const JsonValue* group = doc.find(section)) {
            changed += group->object.size();
          }
        }
        std::printf(" (%zu changed)", changed);
      } else if (kind == "span") {
        std::printf(" %s/%s dur=%.3fms", doc.string_or("cat", "?").c_str(),
                    doc.string_or("name", "?").c_str(),
                    doc.number_or("dur_us", 0.0) / 1e3);
      } else if (kind == "instant" || kind == "counter_sample") {
        std::printf(" %s/%s", doc.string_or("cat", "?").c_str(),
                    doc.string_or("name", "?").c_str());
      } else if (kind == "run_end") {
        std::printf(" digest=%s events=%.0f dropped=%.0f/%.0f",
                    doc.string_or("digest", "?").c_str(),
                    doc.number_or("events", 0.0),
                    doc.number_or("stream_dropped", 0.0),
                    doc.number_or("trace_dropped", 0.0));
      }
      std::printf("\n");
      std::fflush(stdout);
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // server hung up (or shut down) — summarize and exit
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::printf("stream closed after %zu line(s)\n", stream.lines_consumed());
  stream.print(top);
  if (!snapshot_seen && stream.lines_consumed() == 0) {
    std::fprintf(stderr, "no stream data received\n");
    return 1;
  }
  if (strict && stream.total_drops() > 0.0) {
    std::fprintf(stderr, "--strict: %.0f dropped record(s) in the stream\n",
                 stream.total_drops());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* follow = nullptr;
  int top = 12;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--top=", 6) == 0) {
      top = std::atoi(argv[i] + 6);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
      follow = argv[++i];
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if ((path == nullptr && follow == nullptr) || top <= 0) {
    std::fprintf(stderr,
                 "usage: spider-trace <telemetry.jsonl | stream.jsonl | "
                 "trace.json> [--top N] [--strict]\n"
                 "       spider-trace --follow <socket> [--top N] "
                 "[--strict]\n");
    return 2;
  }
  if (follow != nullptr) return follow_socket(follow, top, strict);
  bool ok = false;
  const std::string text = read_file(path, &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  // A Chrome trace is one JSON object with "traceEvents"; everything else
  // that parses line-by-line is treated as JSONL (run-report or stream).
  JsonValue doc;
  if (spider::telemetry::parse_json(text, doc, nullptr) &&
      doc.find("traceEvents") != nullptr) {
    return summarize_trace(doc, top, strict);
  }
  return summarize_jsonl(text, top, strict);
}
