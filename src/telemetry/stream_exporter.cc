#include "telemetry/stream_exporter.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "telemetry/hub.h"
#include "telemetry/run_report.h"

namespace spider::telemetry {

// ---------------------------------------------------------------------------
// StreamPublisher — producer side (world thread).

void StreamPublisher::begin_run(std::int64_t ts_us, std::uint64_t seed) {
  StreamRecord r;
  r.kind = StreamRecordKind::kRunBegin;
  r.ts_us = ts_us;
  r.u = seed;
  push_control(r);
}

void StreamPublisher::end_run(std::int64_t ts_us, std::uint64_t digest,
                              std::uint64_t events_executed,
                              std::uint64_t trace_dropped) {
  StreamRecord r;
  r.kind = StreamRecordKind::kRunEnd;
  r.ts_us = ts_us;
  r.u = digest;
  r.a = static_cast<std::int64_t>(events_executed);
  r.b = static_cast<std::int64_t>(trace_dropped);
  push_control(r);
}

void StreamPublisher::push_control(const StreamRecord& record) {
  // Lifecycle records are too important to drop on the first try but must
  // still never block the simulation indefinitely: bounded retries with a
  // yield give the exporter thread a chance to drain, then we drop+count
  // like any other record.
  for (int i = 0; i < 1024; ++i) {
    if (ring_->try_push(record)) return;
    std::this_thread::yield();
  }
  ring_->push_or_drop(record);
}

void StreamPublisher::resync(const Registry& registry) {
  // Cold path: a metric appeared since the last publish (or this is the
  // baseline publish). Merge the sorted tracked vectors with the registry's
  // lexicographic iteration, assigning ids to new names and emitting a
  // kMetricDefine carrying the current value for each. Registries never
  // remove metrics, so merge = "keep matches, insert the rest".
  std::vector<TrackedCounter> counters;
  counters.reserve(registry.counters().size());
  std::size_t k = 0;
  for (const auto& entry : registry.counters()) {
    if (k < counters_.size() && counters_[k].name == &entry.first) {
      counters.push_back(counters_[k]);
      ++k;
      continue;
    }
    TrackedCounter t;
    t.name = &entry.first;
    t.id = next_id_++;
    t.last = entry.second.value();
    counters.push_back(t);
    StreamRecord r;
    r.kind = StreamRecordKind::kMetricDefine;
    r.metric_kind = StreamMetricKind::kCounter;
    r.id = t.id;
    r.name = entry.first.c_str();
    r.u = t.last;
    push_control(r);
  }
  counters_ = std::move(counters);

  std::vector<TrackedGauge> gauges;
  gauges.reserve(registry.gauges().size());
  k = 0;
  for (const auto& entry : registry.gauges()) {
    if (k < gauges_.size() && gauges_[k].name == &entry.first) {
      gauges.push_back(gauges_[k]);
      ++k;
      continue;
    }
    TrackedGauge t;
    t.name = &entry.first;
    t.id = next_id_++;
    t.last_value = entry.second.value();
    t.last_high_water = entry.second.high_water();
    gauges.push_back(t);
    StreamRecord r;
    r.kind = StreamRecordKind::kMetricDefine;
    r.metric_kind = StreamMetricKind::kGauge;
    r.id = t.id;
    r.name = entry.first.c_str();
    r.a = t.last_value;
    r.b = t.last_high_water;
    push_control(r);
  }
  gauges_ = std::move(gauges);

  std::vector<TrackedHistogram> histograms;
  histograms.reserve(registry.histograms().size());
  k = 0;
  for (const auto& entry : registry.histograms()) {
    if (k < histograms_.size() && histograms_[k].name == &entry.first) {
      histograms.push_back(histograms_[k]);
      ++k;
      continue;
    }
    TrackedHistogram t;
    t.name = &entry.first;
    t.id = next_id_++;
    t.last_count = entry.second.count();
    histograms.push_back(t);
    StreamRecord r;
    r.kind = StreamRecordKind::kMetricDefine;
    r.metric_kind = StreamMetricKind::kHistogram;
    r.id = t.id;
    r.name = entry.first.c_str();
    r.u = t.last_count;
    r.d = entry.second.sum();
    push_control(r);
  }
  histograms_ = std::move(histograms);
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

  StreamRecord r;
  r.kind = StreamRecordKind::kPublishBegin;
  r.ts_us = ts_us;
  emit(r);

  std::size_t k = 0;
  for (const auto& entry : registry.counters()) {
    TrackedCounter& t = counters_[k++];
    const std::uint64_t v = entry.second.value();
    if (v == t.last) continue;
    t.last = v;
    StreamRecord u;
    u.kind = StreamRecordKind::kMetricUpdate;
    u.metric_kind = StreamMetricKind::kCounter;
    u.id = t.id;
    u.ts_us = ts_us;
    u.u = v;
    emit(u);
  }
  k = 0;
  for (const auto& entry : registry.gauges()) {
    TrackedGauge& t = gauges_[k++];
    const std::int64_t v = entry.second.value();
    const std::int64_t hw = entry.second.high_water();
    if (v == t.last_value && hw == t.last_high_water) continue;
    t.last_value = v;
    t.last_high_water = hw;
    StreamRecord u;
    u.kind = StreamRecordKind::kMetricUpdate;
    u.metric_kind = StreamMetricKind::kGauge;
    u.id = t.id;
    u.ts_us = ts_us;
    u.a = v;
    u.b = hw;
    emit(u);
  }
  k = 0;
  for (const auto& entry : registry.histograms()) {
    TrackedHistogram& t = histograms_[k++];
    // add() always bumps count, so count alone detects change.
    const std::uint64_t c = entry.second.count();
    if (c == t.last_count) continue;
    t.last_count = c;
    StreamRecord u;
    u.kind = StreamRecordKind::kMetricUpdate;
    u.metric_kind = StreamMetricKind::kHistogram;
    u.id = t.id;
    u.ts_us = ts_us;
    u.u = c;
    u.d = entry.second.sum();
    emit(u);
  }

  r.kind = StreamRecordKind::kPublishEnd;
  emit(r);
}

// ---------------------------------------------------------------------------
// FileStreamSink.

FileStreamSink::FileStreamSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

FileStreamSink::~FileStreamSink() {
  if (file_ != nullptr) std::fclose(file_);
}

bool FileStreamSink::write_line(std::string_view line) {
  if (file_ == nullptr) return false;
  return std::fwrite(line.data(), 1, line.size(), file_) == line.size();
}

void FileStreamSink::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

// ---------------------------------------------------------------------------
// StreamExporter — consumer side (I/O thread).

StreamExporter::StreamExporter(Options options) : options_(options) {
  if (options_.batch == 0) options_.batch = 1;
  scratch_.resize(options_.batch);
  thread_ = std::thread([this] { thread_main(); });
}

StreamExporter::~StreamExporter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  while (sweep_locked() > 0) {
  }
  flush_locked();
}

void StreamExporter::add_sink(std::shared_ptr<StreamSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

void StreamExporter::remove_sink(const StreamSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(sinks_, [sink](const std::shared_ptr<StreamSink>& s) {
    return s.get() == sink;
  });
}

std::uint64_t StreamExporter::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::uint64_t StreamExporter::ring_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : sources_) total += s->ring->dropped();
  for (const auto& s : finished_) total += s->dropped_at_close;
  return total;
}

std::size_t StreamExporter::open_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size();
}

void StreamExporter::attach(SpscRing* ring, std::uint32_t run_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto source = std::make_unique<Source>();
  source->ring = ring;
  source->run = run_tag;
  source->attach_order = next_attach_order_++;
  sources_.push_back(std::move(source));
}

void StreamExporter::detach(SpscRing* ring) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i]->ring != ring) continue;
    Source& source = *sources_[i];
    // The producer has stopped (StreamSession destructor); drain everything
    // left inline so no record outlives the world's registry strings.
    std::size_t n;
    while ((n = ring->pop_batch(scratch_.data(), scratch_.size())) > 0) {
      for (std::size_t j = 0; j < n; ++j) consume_locked(source, scratch_[j]);
    }
    source.dropped_at_close = ring->dropped();
    source.ring = nullptr;
    finished_.push_back(std::move(sources_[i]));
    sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
    flush_locked();
    return;
  }
}

void StreamExporter::thread_main() {
  for (;;) {
    bool busy;
    {
      // The lock is re-acquired every iteration — never held across a whole
      // busy period — so snapshot_json(), add_sink() (a follower joining
      // mid-run), and attach/detach stay responsive while records flow.
      std::unique_lock<std::mutex> lock(mu_);
      busy = sweep_locked() > 0;
      if (!busy) {
        flush_locked();
        if (stop_) return;
        cv_.wait_for(lock, std::chrono::microseconds(options_.poll_us));
      }
    }
    if (busy) std::this_thread::yield();  // let blocked waiters in
  }
}

std::size_t StreamExporter::sweep_locked() {
  std::size_t consumed = 0;
  for (auto& source : sources_) {
    const std::size_t n =
        source->ring->pop_batch(scratch_.data(), scratch_.size());
    for (std::size_t j = 0; j < n; ++j) {
      consume_locked(*source, scratch_[j]);
    }
    consumed += n;
  }
  return consumed;
}

namespace {

void append_line_head(std::string& out, const char* kind, std::uint32_t run,
                      std::uint64_t seq, std::int64_t ts_us) {
  out += "{\"schema\":";
  append_json_quoted(out, kStreamSchema);
  out += ",\"kind\":\"";
  out += kind;
  out += "\",\"run\":";
  append_json_u64(out, run);
  out += ",\"seq\":";
  append_json_u64(out, seq);
  out += ",\"ts_us\":";
  append_json_i64(out, ts_us);
}

void append_metric_value(std::string& out, StreamMetricKind kind,
                         std::uint64_t u, std::int64_t a, std::int64_t b,
                         double d) {
  switch (kind) {
    case StreamMetricKind::kCounter:
      append_json_u64(out, u);
      break;
    case StreamMetricKind::kGauge:
      out += "{\"value\":";
      append_json_i64(out, a);
      out += ",\"high_water\":";
      append_json_i64(out, b);
      out += "}";
      break;
    case StreamMetricKind::kHistogram:
      out += "{\"count\":";
      append_json_u64(out, u);
      out += ",\"sum\":";
      append_json_double(out, d);
      out += "}";
      break;
  }
}

}  // namespace

void StreamExporter::consume_locked(Source& source,
                                    const StreamRecord& record) {
  switch (record.kind) {
    case StreamRecordKind::kRunBegin: {
      source.begun = true;
      source.seed = record.u;
      source.last_ts_us = record.ts_us;
      std::string line;
      append_line_head(line, "run_begin", source.run, source.seq++,
                       record.ts_us);
      line += ",\"seed\":";
      append_json_u64(line, record.u);
      line += "}\n";
      write_locked(line);
      return;
    }
    case StreamRecordKind::kRunEnd: {
      source.finished = true;
      source.digest = record.u;
      source.events = static_cast<std::uint64_t>(record.a);
      source.last_ts_us = record.ts_us;
      std::string line;
      append_line_head(line, "run_end", source.run, source.seq++,
                       record.ts_us);
      line += ",\"digest\":";
      append_json_hex64(line, record.u);
      line += ",\"events\":";
      append_json_i64(line, record.a);
      line += ",\"stream_dropped\":";
      append_json_u64(line, source.ring != nullptr ? source.ring->dropped()
                                                   : source.dropped_at_close);
      line += ",\"trace_dropped\":";
      append_json_i64(line, record.b);
      line += "}\n";
      write_locked(line);
      return;
    }
    case StreamRecordKind::kMetricDefine: {
      const std::size_t id = record.id;
      if (source.metrics.size() <= id) source.metrics.resize(id + 1);
      MetricState& m = source.metrics[id];
      m.name = record.name != nullptr ? record.name : "";
      m.kind = record.metric_kind;
      m.defined = true;
      m.u = record.u;
      m.a = record.a;
      m.b = record.b;
      m.d = record.d;
      // Baseline values ride the next metrics line so followers that join
      // at run start see every metric at least once.
      if (std::find(source.pending.begin(), source.pending.end(), record.id) ==
          source.pending.end()) {
        source.pending.push_back(record.id);
      }
      return;
    }
    case StreamRecordKind::kMetricUpdate: {
      if (!source.in_batch && record.ts_us > source.batch_ts_us) {
        // The kPublishBegin bracket was lost to ring overflow: fall back to
        // the newest update timestamp so the flushed "metrics" line isn't
        // stamped with a stale earlier batch time.
        source.batch_ts_us = record.ts_us;
      }
      const std::size_t id = record.id;
      if (source.metrics.size() <= id) source.metrics.resize(id + 1);
      MetricState& m = source.metrics[id];
      if (!m.defined) {
        // The define record was dropped in an overflow; synthesize a name so
        // the value still streams (self-healing, values are cumulative).
        m.name = "metric." + std::to_string(record.id);
        m.kind = record.metric_kind;
        m.defined = true;
      }
      m.u = record.u;
      m.a = record.a;
      m.b = record.b;
      m.d = record.d;
      if (std::find(source.pending.begin(), source.pending.end(), record.id) ==
          source.pending.end()) {
        source.pending.push_back(record.id);
      }
      return;
    }
    case StreamRecordKind::kPublishBegin:
      source.in_batch = true;
      source.batch_ts_us = record.ts_us;
      source.last_ts_us = record.ts_us;
      return;
    case StreamRecordKind::kPublishEnd: {
      source.in_batch = false;
      if (source.pending.empty()) return;
      // One line per publish, ids sorted by (kind, name) for deterministic
      // key order regardless of update arrival order.
      std::sort(source.pending.begin(), source.pending.end(),
                [&source](std::uint32_t lhs, std::uint32_t rhs) {
                  const MetricState& a = source.metrics[lhs];
                  const MetricState& b = source.metrics[rhs];
                  if (a.kind != b.kind) return a.kind < b.kind;
                  return a.name < b.name;
                });
      std::string line;
      append_line_head(line, "metrics", source.run, source.seq++,
                       source.batch_ts_us);
      StreamMetricKind open_kind = StreamMetricKind::kCounter;
      bool any_open = false;
      bool first_in_section = true;
      for (std::uint32_t id : source.pending) {
        const MetricState& m = source.metrics[id];
        if (!any_open || m.kind != open_kind) {
          if (any_open) line += "}";
          switch (m.kind) {
            case StreamMetricKind::kCounter: line += ",\"counters\":{"; break;
            case StreamMetricKind::kGauge: line += ",\"gauges\":{"; break;
            case StreamMetricKind::kHistogram:
              line += ",\"histograms\":{";
              break;
          }
          open_kind = m.kind;
          any_open = true;
          first_in_section = true;
        }
        if (!first_in_section) line.push_back(',');
        first_in_section = false;
        append_json_quoted(line, m.name);
        line.push_back(':');
        append_metric_value(line, m.kind, m.u, m.a, m.b, m.d);
      }
      if (any_open) line += "}";
      line += "}\n";
      source.pending.clear();
      write_locked(line);
      return;
    }
    case StreamRecordKind::kSpan:
    case StreamRecordKind::kInstant:
    case StreamRecordKind::kCounterSample: {
      source.last_ts_us = record.ts_us;
      std::string line;
      const char* kind = record.kind == StreamRecordKind::kSpan ? "span"
                         : record.kind == StreamRecordKind::kInstant
                             ? "instant"
                             : "counter_sample";
      append_line_head(line, kind, source.run, source.seq++, record.ts_us);
      if (record.kind == StreamRecordKind::kSpan) {
        line += ",\"dur_us\":";
        append_json_i64(line, record.a);
      } else if (record.kind == StreamRecordKind::kCounterSample) {
        line += ",\"value\":";
        append_json_i64(line, record.a);
      }
      line += ",\"name\":";
      append_json_quoted(line, record.name != nullptr ? record.name : "");
      line += ",\"cat\":";
      append_json_quoted(line,
                         record.category != nullptr && record.category[0] != 0
                             ? record.category
                             : "spider");
      line += ",\"track\":";
      append_json_u64(line, record.id);
      line += "}\n";
      write_locked(line);
      return;
    }
  }
}

void StreamExporter::write_locked(const std::string& line) {
  ++lines_;
  std::erase_if(sinks_, [&line](const std::shared_ptr<StreamSink>& sink) {
    return !sink->write_line(line);
  });
}

void StreamExporter::flush_locked() {
  for (auto& sink : sinks_) sink->flush();
}

void StreamExporter::append_source_state(std::string& out,
                                         const Source& source,
                                         bool open) const {
  out += "{\"run\":";
  append_json_u64(out, source.run);
  out += ",\"state\":\"";
  if (open) {
    out += source.begun ? "running" : "attached";
  } else {
    out += source.finished ? "finished" : "aborted";
  }
  out += "\",\"seed\":";
  append_json_u64(out, source.seed);
  if (source.finished) {
    out += ",\"digest\":";
    append_json_hex64(out, source.digest);
    out += ",\"events\":";
    append_json_u64(out, source.events);
  }
  out += ",\"ts_us\":";
  append_json_i64(out, source.last_ts_us);
  out += ",\"lines\":";
  append_json_u64(out, source.seq);
  out += ",\"stream_dropped\":";
  append_json_u64(out, source.ring != nullptr ? source.ring->dropped()
                                              : source.dropped_at_close);
  // Latest values, grouped by kind, names sorted — same shapes as the
  // "metrics" stream lines.
  std::vector<const MetricState*> by_kind[3];
  for (const MetricState& m : source.metrics) {
    if (m.defined) by_kind[static_cast<int>(m.kind)].push_back(&m);
  }
  static constexpr const char* kSection[3] = {"counters", "gauges",
                                              "histograms"};
  for (int kind = 0; kind < 3; ++kind) {
    std::sort(by_kind[kind].begin(), by_kind[kind].end(),
              [](const MetricState* a, const MetricState* b) {
                return a->name < b->name;
              });
    out += ",\"";
    out += kSection[kind];
    out += "\":{";
    bool first = true;
    for (const MetricState* m : by_kind[kind]) {
      if (!first) out.push_back(',');
      first = false;
      append_json_quoted(out, m->name);
      out.push_back(':');
      append_metric_value(out, m->kind, m->u, m->a, m->b, m->d);
    }
    out += "}";
  }
  out += "}";
}

std::string StreamExporter::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<const Source*, bool>> runs;
  runs.reserve(sources_.size() + finished_.size());
  for (const auto& s : sources_) runs.emplace_back(s.get(), true);
  for (const auto& s : finished_) runs.emplace_back(s.get(), false);
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) {
              if (a.first->run != b.first->run)
                return a.first->run < b.first->run;
              return a.first->attach_order < b.first->attach_order;
            });
  std::string out = "{\"schema\":";
  append_json_quoted(out, kStreamSchema);
  out += ",\"kind\":\"snapshot\",\"lines\":";
  append_json_u64(out, lines_);
  out += ",\"runs\":[";
  bool first = true;
  for (const auto& [source, open] : runs) {
    if (!first) out.push_back(',');
    first = false;
    append_source_state(out, *source, open);
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// StreamSession.

StreamSession::StreamSession(StreamExporter& exporter, Hub& hub,
                             std::uint32_t run_tag, std::int64_t cadence_us)
    : exporter_(exporter),
      hub_(hub),
      publisher_(ring_),
      cadence_us_(cadence_us) {
  exporter_.attach(&ring_, run_tag);
}

StreamSession::~StreamSession() {
  hub_.set_stream(nullptr, 0);
  exporter_.detach(&ring_);
}

void StreamSession::begin(std::int64_t ts_us, std::uint64_t seed) {
  if (begun_) return;
  begun_ = true;
  publisher_.begin_run(ts_us, seed);
  // Baseline publish so followers see the full metric set up front, then
  // arm the cadence hook and the trace tee. Patient: this is not the hot
  // path yet, and the baseline must not be lost to a cold backlog.
  hub_.run_collectors();
  publisher_.set_patient(true);
  publisher_.publish_metrics(ts_us, hub_.metrics());
  publisher_.set_patient(false);
  hub_.set_stream(&publisher_, cadence_us_);
}

void StreamSession::finish(std::int64_t ts_us, std::uint64_t digest,
                           std::uint64_t events_executed) {
  if (finished_ || !begun_) return;
  finished_ = true;
  hub_.set_stream(nullptr, 0);
  hub_.run_collectors();
  // Patient final publish: the run is over, so briefly waiting out a
  // backlogged ring is free — and it guarantees the streamed end state
  // matches the end-of-run MetricsSnapshot exactly even after mid-run drops
  // (cumulative values self-heal here).
  publisher_.set_patient(true);
  publisher_.publish_metrics(ts_us, hub_.metrics());
  publisher_.set_patient(false);
  publisher_.end_run(ts_us, digest, events_executed, hub_.trace().dropped());
}

}  // namespace spider::telemetry
