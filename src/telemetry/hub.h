// Per-world telemetry hub: one Registry + one TraceRecorder, owned by each
// Simulator (sim::Simulator::telemetry()). Components reach it through the
// simulator reference they already hold, register their hot counters once,
// and optionally add a *collector* — a callback that publishes plain member
// counters into the registry at snapshot time, so genuinely hot paths (the
// event queue, per-frame PHY accounting) pay zero telemetry cost between
// snapshots.
//
// Threading: a Hub belongs to its Simulator's thread, like everything else
// in a world. Cross-world aggregation happens on MetricsSnapshots only.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/check.h"  // SPIDER_HOT marker (header-only; no link dep)
#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"

namespace spider::telemetry {

class StreamPublisher;

class Hub {
 public:
  using Collector = std::function<void(Registry&)>;
  using CollectorId = std::uint64_t;

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // Registers a publish-on-snapshot callback. Components that can be
  // destroyed before the simulator must remove_collector() in their
  // destructor (everything in an Experiment is, by member order).
  CollectorId add_collector(Collector fn) {
    const CollectorId id = next_collector_id_++;
    collectors_.emplace_back(id, std::move(fn));
    return id;
  }

  void remove_collector(CollectorId id) {
    std::erase_if(collectors_,
                  [id](const auto& entry) { return entry.first == id; });
  }

  // Runs every collector, then snapshots the registry. The standard export
  // path (SweepRunner calls this once per finished replication).
  MetricsSnapshot collect() {
    run_collectors();
    return metrics_.snapshot();
  }

  // Folds every collector's plain members into the registry without
  // snapshotting (collectors are idempotent "copy current totals" writers,
  // so running them early never perturbs a later collect()).
  void run_collectors() {
    for (auto& [id, fn] : collectors_) fn(metrics_);
  }

  // Arms (or, with nullptr, disarms) the live-stream cadence hook: while
  // armed, maybe_publish_stream() folds collectors and publishes changed
  // metrics to `stream` whenever simulated time crosses a cadence boundary.
  // Also tees trace events into the stream. Owned by StreamSession — see
  // stream_exporter.h.
  void set_stream(StreamPublisher* stream, std::int64_t cadence_us);
  StreamPublisher* stream() const { return stream_; }

  // Hot-path hook, called from Simulator::drain at instant boundaries. One
  // compare when no stream is attached or the next boundary is ahead.
  SPIDER_HOT void maybe_publish_stream(std::int64_t ts_us) {
    if (stream_ == nullptr || ts_us < stream_next_us_) return;
    publish_stream(ts_us);
  }

 private:
  void publish_stream(std::int64_t ts_us);  // cold half of the hook

  Registry metrics_;
  TraceRecorder trace_;
  std::vector<std::pair<CollectorId, Collector>> collectors_;
  CollectorId next_collector_id_ = 1;
  StreamPublisher* stream_ = nullptr;
  std::int64_t stream_cadence_us_ = 0;
  std::int64_t stream_next_us_ = 0;
};

}  // namespace spider::telemetry
