// Live telemetry plane, consumer half (DESIGN.md "Live telemetry plane").
//
// Data flow:
//
//   sim thread                        exporter I/O thread
//   ----------                        -------------------
//   Hub::maybe_publish_stream ──┐
//   TraceRecorder tee ──────────┼──> SpscRing ──> StreamExporter ──> sinks
//   StreamSession begin/finish ─┘                 (JSONL renderer)    (file,
//                                                                    socket)
//
// StreamPublisher is the producer-side encoder: it walks the registry's
// ordered maps at each cadence publish and pushes one fixed-size record per
// *changed* metric, carrying cumulative values (not deltas) so a dropped
// update self-heals at the next publish. Warm publishes are allocation-free;
// only the first sighting of a new metric (re-sync) allocates.
//
// StreamExporter owns the I/O thread. It drains every attached ring,
// renders JSONL lines (schema "spider-telemetry-stream-v1"), assigns each
// line a per-run sequence number in ring order — producer order, so a
// multi-world stream sorts deterministically by (run, seq) regardless of
// worker count or host timing — and fans lines out to the registered sinks.
// It also keeps a live per-run metric table, served as one snapshot line to
// anyone who asks (the run-server's "snapshot" command).
//
// StreamSession ties one world to one exporter for one run: it owns the
// ring, wires the Hub and trace tee on begin(), publishes the final state
// plus the run_end record on finish(), and on destruction detaches — which
// drains every remaining record inline, *before* the world (and the
// registry strings records point into) can die.
//
// Line shapes (all carry "schema":"spider-telemetry-stream-v1"):
//   {"kind":"run_begin","run":R,"seq":0,"ts_us":T,"seed":S}
//   {"kind":"metrics","run":R,"seq":N,"ts_us":T,
//    "counters":{name:value,…},"gauges":{name:{"value":v,"high_water":h},…},
//    "histograms":{name:{"count":c,"sum":s},…}}        — changed metrics only
//   {"kind":"span","run":R,"seq":N,"ts_us":T,"dur_us":D,"name":…,"cat":…,
//    "track":K}                                         (instant/counter_sample
//                                                        analogous)
//   {"kind":"run_end","run":R,"seq":N,"ts_us":T,"digest":"0x…","events":E,
//    "stream_dropped":D,"trace_dropped":T}
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/spsc_ring.h"
#include "telemetry/trace_recorder.h"

namespace spider::telemetry {

class Hub;

// Producer-side encoder. One per StreamSession; runs on the world's thread.
class StreamPublisher {
 public:
  explicit StreamPublisher(SpscRing& ring) : ring_(&ring) {}

  void begin_run(std::int64_t ts_us, std::uint64_t seed);
  void end_run(std::int64_t ts_us, std::uint64_t digest,
               std::uint64_t events_executed, std::uint64_t trace_dropped);

  // One cadence publish: walks the registry in lexicographic order and
  // pushes a record per changed metric, bracketed by publish begin/end so
  // the exporter renders the batch as a single "metrics" line. Warm calls
  // (no new metrics since the last publish) are allocation-free.
  SPIDER_HOT void publish_metrics(std::int64_t ts_us,
                                  const Registry& registry);

  // Patient mode (off on the hot path): metric records go through the
  // bounded-retry push instead of drop-on-full. StreamSession turns it on
  // for the begin/finish publishes so the baseline and the final totals
  // survive a backlogged ring — which is what makes the streamed end state
  // reconcile exactly with the end-of-run MetricsSnapshot.
  void set_patient(bool on) { patient_ = on; }

  // Trace tee: spans/instants/counter samples stream as they are recorded.
  SPIDER_HOT void publish_trace(const TraceEvent& event) {
    StreamRecord r;
    r.kind = event.phase == 'X'   ? StreamRecordKind::kSpan
             : event.phase == 'C' ? StreamRecordKind::kCounterSample
                                  : StreamRecordKind::kInstant;
    r.id = event.track;
    r.ts_us = event.ts_us;
    r.name = event.name;
    r.category = event.category;
    r.a = event.phase == 'X' ? event.dur_us : event.arg_value;
    ring_->push_or_drop(r);
  }

 private:
  // Last-published state, parallel (in lexicographic name order) to the
  // registry's maps. Metrics are never removed from a Registry, so when the
  // map sizes match, the k-th map entry IS tracked[k] and the publish walk
  // is a zero-lookup lockstep scan; a size mismatch re-syncs (cold path).
  struct TrackedCounter {
    const std::string* name = nullptr;
    std::uint32_t id = 0;
    std::uint64_t last = 0;
  };
  struct TrackedGauge {
    const std::string* name = nullptr;
    std::uint32_t id = 0;
    std::int64_t last_value = 0;
    std::int64_t last_high_water = 0;
  };
  struct TrackedHistogram {
    const std::string* name = nullptr;
    std::uint32_t id = 0;
    std::uint64_t last_count = 0;
  };

  void resync(const Registry& registry);
  // Bounded-retry push for lifecycle records (never used on the hot path):
  // yields to let the exporter drain, then counts a drop and gives up.
  void push_control(const StreamRecord& record);
  // Hot-path spelling: drop-and-count, unless patient mode is on.
  SPIDER_HOT void emit(const StreamRecord& record) {
    if (patient_) {
      push_control(record);
    } else {
      ring_->push_or_drop(record);
    }
  }

  SpscRing* ring_;
  bool patient_ = false;
  std::uint32_t next_id_ = 1;
  std::vector<TrackedCounter> counters_;
  std::vector<TrackedGauge> gauges_;
  std::vector<TrackedHistogram> histograms_;
};

// Where rendered lines go. write_line is called with the exporter's lock
// held (implementations must not call back into the exporter) and receives
// one full line including the trailing newline. Returning false
// unsubscribes the sink (e.g. a follower hung up).
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual bool write_line(std::string_view line) = 0;
  virtual void flush() {}
};

class FileStreamSink : public StreamSink {
 public:
  explicit FileStreamSink(const std::string& path);
  ~FileStreamSink() override;
  bool ok() const { return file_ != nullptr; }
  bool write_line(std::string_view line) override;
  void flush() override;

 private:
  std::FILE* file_ = nullptr;
};

class StreamExporter {
 public:
  struct Options {
    // Host-time poll period of the I/O thread while idle, microseconds.
    // Host timing can never influence line *content* or order — only how
    // soon a line reaches a sink.
    std::int64_t poll_us = 500;
    // Records drained per ring per sweep (bounds exporter latency spikes).
    std::size_t batch = 512;
  };

  StreamExporter() : StreamExporter(Options{}) {}
  explicit StreamExporter(Options options);
  // All sessions must be destroyed first (they detach themselves); joins
  // the I/O thread and flushes sinks.
  ~StreamExporter();

  StreamExporter(const StreamExporter&) = delete;
  StreamExporter& operator=(const StreamExporter&) = delete;

  void add_sink(std::shared_ptr<StreamSink> sink);
  void remove_sink(const StreamSink* sink);

  // One JSONL snapshot line: every run this exporter has seen (open and
  // finished) with its latest metric values, runs ordered by (tag, attach
  // order), metrics by name.
  std::string snapshot_json() const;

  std::uint64_t lines_written() const;
  // Total ring overflow drops across all sources, open and closed.
  std::uint64_t ring_dropped() const;
  std::size_t open_runs() const;

 private:
  friend class StreamSession;

  struct MetricState {
    std::string name;
    StreamMetricKind kind = StreamMetricKind::kCounter;
    bool defined = false;
    std::uint64_t u = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    double d = 0.0;
  };

  struct Source {
    SpscRing* ring = nullptr;
    std::uint32_t run = 0;
    std::uint64_t attach_order = 0;
    std::uint64_t seq = 0;  // next line sequence number for this run
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;  // valid once finished
    std::uint64_t events = 0;
    std::int64_t last_ts_us = 0;
    bool begun = false;
    bool finished = false;
    std::vector<MetricState> metrics;     // indexed by metric id
    std::vector<std::uint32_t> pending;   // ids updated in the open batch
    bool in_batch = false;
    std::int64_t batch_ts_us = 0;
    std::uint64_t dropped_at_close = 0;   // ring drop count, frozen on detach
  };

  void attach(SpscRing* ring, std::uint32_t run_tag);
  // Drains everything still in `ring` inline (the producer has stopped),
  // freezes its drop count, and moves the source to the finished list.
  void detach(SpscRing* ring);

  void thread_main();
  // Returns the number of records consumed across all open sources.
  std::size_t sweep_locked();
  void consume_locked(Source& source, const StreamRecord& record);
  void write_locked(const std::string& line);
  void flush_locked();
  void append_source_state(std::string& out, const Source& source,
                           bool open) const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::uint64_t next_attach_order_ = 0;
  std::vector<std::unique_ptr<Source>> sources_;   // open (ring attached)
  std::vector<std::unique_ptr<Source>> finished_;  // detached; ring == null
  std::vector<std::shared_ptr<StreamSink>> sinks_;
  std::uint64_t lines_ = 0;
  std::vector<StreamRecord> scratch_;  // consumer-side drain buffer
  std::thread thread_;
};

// One world's attachment to an exporter for one run. Construct with the
// world's Hub, call begin() once the seed is known (emits run_begin plus a
// baseline metrics publish and arms the Hub cadence hook + trace tee), and
// finish() after the run (final publish + run_end with the digest).
// Destruction detaches from the Hub and drains the ring synchronously, so
// no record can outlive the registry strings it points into. Declare the
// session *after* the Simulator it watches (destroyed first).
class StreamSession {
 public:
  StreamSession(StreamExporter& exporter, Hub& hub, std::uint32_t run_tag,
                std::int64_t cadence_us);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  StreamPublisher& publisher() { return publisher_; }
  SpscRing& ring() { return ring_; }

  void begin(std::int64_t ts_us, std::uint64_t seed);
  void finish(std::int64_t ts_us, std::uint64_t digest,
              std::uint64_t events_executed);

 private:
  StreamExporter& exporter_;
  Hub& hub_;
  SpscRing ring_;
  StreamPublisher publisher_;
  std::int64_t cadence_us_;
  bool begun_ = false;
  bool finished_ = false;
};

}  // namespace spider::telemetry
