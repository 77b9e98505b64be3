#include "telemetry/stream_exporter.h"

#include <utility>

#include "telemetry/hub.h"
#include "telemetry/json.h"

namespace spider::telemetry {

namespace {

// Enough for a run's baseline metrics line and the trace lines of a busy
// cadence interval, so a warm publish never grows the buffer.
constexpr std::size_t kReservedBytes = std::size_t{1} << 16;

// Rebuilds `tracked` parallel to `map` (both in name order). Registries
// never remove metrics, so the merge keeps every match and inserts each new
// name as a fresh entry.
template <typename Tracked, typename Map>
void merge_tracked(std::vector<Tracked>& tracked, const Map& map) {
  std::vector<Tracked> merged;
  merged.reserve(map.size());
  std::size_t k = 0;
  for (const auto& entry : map) {
    if (k < tracked.size() && tracked[k].name == &entry.first) {
      merged.push_back(tracked[k++]);
      continue;
    }
    Tracked t;
    t.name = &entry.first;
    merged.push_back(t);
  }
  tracked = std::move(merged);
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamPublisher — the world's thread.

StreamPublisher::StreamPublisher(StreamExporter& exporter,
                                 std::uint32_t run_tag)
    : exporter_(exporter), run_(run_tag) {
  out_.reserve(kReservedBytes);
}

void StreamPublisher::open_line(const char* kind, std::int64_t ts_us) {
  out_ += "{\"schema\":";
  append_json_quoted(out_, kStreamSchema);
  out_ += ",\"kind\":\"";
  out_ += kind;
  out_ += "\",\"run\":";
  append_json_u64(out_, run_);
  out_ += ",\"seq\":";
  append_json_u64(out_, seq_);
  out_ += ",\"ts_us\":";
  append_json_i64(out_, ts_us);
}

void StreamPublisher::close_line() {
  out_ += "}\n";
  ++seq_;
}

void StreamPublisher::hand_off() {
  if (out_.empty()) return;
  exporter_.write(out_);
  out_.clear();  // keeps the reserved capacity
}

void StreamPublisher::begin_run(std::int64_t ts_us, std::uint64_t seed) {
  open_line("run_begin", ts_us);
  out_ += ",\"seed\":";
  append_json_u64(out_, seed);
  close_line();
}

void StreamPublisher::end_run(std::int64_t ts_us, std::uint64_t digest,
                              std::uint64_t events_executed,
                              const MetricsSnapshot& snapshot) {
  open_line("run_end", ts_us);
  out_ += ",\"digest\":";
  append_json_hex64(out_, digest);
  out_ += ",\"events\":";
  append_json_u64(out_, events_executed);
  out_ += ",\"snapshot\":{";
  append_snapshot_json(out_, snapshot);
  out_ += '}';
  close_line();
  hand_off();
  exporter_.flush();  // a finished run is whole in the file
}

void StreamPublisher::resync(const Registry& registry) {
  // Cold path: a metric appeared since the last publish (or this is the
  // baseline publish).
  merge_tracked(counters_, registry.counters());
  merge_tracked(gauges_, registry.gauges());
  merge_tracked(histograms_, registry.histograms());
}

SPIDER_HOT void StreamPublisher::publish_metrics(std::int64_t ts_us,
                                                 const Registry& registry) {
  // Warm path precondition: metric sets unchanged since the last publish —
  // then the k-th map entry IS tracked[k] (both lexicographic) and the walk
  // is a zero-lookup, allocation-free lockstep scan over cumulative values.
  if (registry.counters().size() != counters_.size() ||
      registry.gauges().size() != gauges_.size() ||
      registry.histograms().size() != histograms_.size()) {
    resync(registry);
  }

  // Entries go straight into the line in walk order: counters, gauges,
  // histograms, each in name order. A section's object opens at its first
  // entry; a line with no entry is taken back.
  const std::size_t line_start = out_.size();
  open_line("metrics", ts_us);
  static constexpr const char* kSections[] = {
      ",\"counters\":{", ",\"gauges\":{", ",\"histograms\":{"};
  int open_section = -1;
  const auto entry = [&](int section, const std::string& name) {
    if (section == open_section) {
      out_ += ',';
    } else {
      if (open_section >= 0) out_ += '}';
      out_ += kSections[section];
      open_section = section;
    }
    append_json_quoted(out_, name);
    out_ += ':';
  };

  std::size_t k = 0;
  for (const auto& [name, counter] : registry.counters()) {
    TrackedCounter& t = counters_[k++];
    const std::uint64_t v = counter.value();
    if (v == t.last && !t.fresh) continue;
    t.last = v;
    t.fresh = false;
    entry(0, name);
    append_json_u64(out_, v);
  }
  k = 0;
  for (const auto& [name, gauge] : registry.gauges()) {
    TrackedGauge& t = gauges_[k++];
    const std::int64_t v = gauge.value();
    const std::int64_t hw = gauge.high_water();
    if (v == t.last_value && hw == t.last_high_water && !t.fresh) continue;
    t.last_value = v;
    t.last_high_water = hw;
    t.fresh = false;
    entry(1, name);
    out_ += "{\"value\":";
    append_json_i64(out_, v);
    out_ += ",\"high_water\":";
    append_json_i64(out_, hw);
    out_ += '}';
  }
  k = 0;
  for (const auto& [name, histogram] : registry.histograms()) {
    TrackedHistogram& t = histograms_[k++];
    // add() always bumps count, so count alone detects change.
    const std::uint64_t c = histogram.count();
    if (c == t.last_count && !t.fresh) continue;
    t.last_count = c;
    t.fresh = false;
    entry(2, name);
    out_ += "{\"count\":";
    append_json_u64(out_, c);
    out_ += ",\"sum\":";
    append_json_double(out_, histogram.sum());
    out_ += '}';
  }

  if (open_section < 0) {
    out_.resize(line_start);  // nothing changed: no line, no seq
  } else {
    out_ += '}';
    close_line();
  }
  hand_off();
}

SPIDER_HOT void StreamPublisher::publish_trace(const TraceEvent& event) {
  open_line(event.phase == 'X'   ? "span"
            : event.phase == 'C' ? "counter_sample"
                                 : "instant",
            event.ts_us);
  if (event.phase == 'X') {
    out_ += ",\"dur_us\":";
    append_json_i64(out_, event.dur_us);
  } else if (event.phase == 'C') {
    out_ += ",\"value\":";
    append_json_i64(out_, event.arg_value);
  }
  out_ += ",\"name\":";
  append_json_quoted(out_, event.name != nullptr ? event.name : "");
  out_ += ",\"cat\":";
  append_json_quoted(out_, event.category != nullptr && event.category[0] != 0
                               ? event.category
                               : "spider");
  out_ += ",\"track\":";
  append_json_u64(out_, event.track);
  if (event.arg_name != nullptr && event.phase != 'C') {
    out_ += ",\"args\":{";
    append_json_quoted(out_, event.arg_name);
    out_ += ':';
    append_json_i64(out_, event.arg_value);
    out_ += '}';
  }
  close_line();
}

void StreamPublisher::publish_track(std::uint32_t track, std::string_view name,
                                    std::int64_t ts_us) {
  open_line("track", ts_us);
  out_ += ",\"track\":";
  append_json_u64(out_, track);
  out_ += ",\"name\":";
  append_json_quoted(out_, name);
  close_line();
}

// ---------------------------------------------------------------------------
// FileStreamSink.

FileStreamSink::FileStreamSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

FileStreamSink::~FileStreamSink() {
  if (file_ != nullptr) std::fclose(file_);
}

bool FileStreamSink::write(std::string_view lines) {
  if (file_ == nullptr) return false;
  return std::fwrite(lines.data(), 1, lines.size(), file_) == lines.size();
}

bool FileStreamSink::flush() {
  return file_ != nullptr && std::fflush(file_) == 0;
}

bool FileStreamSink::close() {
  if (file_ == nullptr) return false;
  const bool flushed = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  return flushed && closed;
}

// ---------------------------------------------------------------------------
// StreamExporter — shared by every world of a sweep.

StreamExporter::~StreamExporter() { close(); }

void StreamExporter::set_sink(std::shared_ptr<StreamSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

template <typename Op>
void StreamExporter::use_sink(const Op& op) {
  if (sink_ != nullptr && !op(*sink_)) {
    failed_ = true;
    sink_.reset();
  }
}

void StreamExporter::write(std::string_view lines) {
  std::lock_guard<std::mutex> lock(mu_);
  use_sink([lines](StreamSink& sink) { return sink.write(lines); });
}

void StreamExporter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  use_sink([](StreamSink& sink) { return sink.flush(); });
}

bool StreamExporter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    std::string line = "{\"schema\":";
    append_json_quoted(line, kStreamSchema);
    line += ",\"kind\":\"close\",\"process\":{";
    {
      std::lock_guard<std::mutex> process_lock(process_registry_mutex());
      append_snapshot_json(line, process_registry().snapshot());
    }
    line += "}}\n";
    use_sink([&line](StreamSink& sink) { return sink.write(line); });
    use_sink([](StreamSink& sink) { return sink.close(); });
    sink_.reset();
  }
  return !failed_;
}

// ---------------------------------------------------------------------------
// StreamSession.

StreamSession::StreamSession(StreamExporter& exporter, Hub& hub,
                             std::uint32_t run_tag, std::int64_t cadence_us)
    : hub_(hub),
      publisher_(exporter, run_tag),
      cadence_us_(cadence_us) {}

StreamSession::~StreamSession() {
  hub_.set_stream(nullptr, 0);
  publisher_.hand_off();
}

void StreamSession::begin(std::int64_t ts_us, std::uint64_t seed) {
  if (begun_) return;
  begun_ = true;
  publisher_.begin_run(ts_us, seed);
  // Baseline publish so readers see the full metric set up front, then arm
  // the cadence hook and the trace tee.
  hub_.run_collectors();
  publisher_.publish_metrics(ts_us, hub_.metrics());
  hub_.set_stream(&publisher_, cadence_us_);
}

void StreamSession::finish(std::int64_t ts_us, std::uint64_t digest,
                           std::uint64_t events_executed) {
  if (finished_ || !begun_) return;
  finished_ = true;
  hub_.set_stream(nullptr, 0);
  // The final publish carries every metric changed since the last cadence,
  // so the streamed end state equals the end-of-run MetricsSnapshot.
  hub_.run_collectors();
  publisher_.publish_metrics(ts_us, hub_.metrics());
  publisher_.end_run(ts_us, digest, events_executed,
                     hub_.metrics().snapshot());
}

}  // namespace spider::telemetry
