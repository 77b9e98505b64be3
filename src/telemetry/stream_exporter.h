// Live telemetry plane (DESIGN.md "Live telemetry plane") — the one
// artifact a run writes.
//
// Data flow — one writer per stream:
//
//   world thread                                       any world thread
//   ------------                                       ----------------
//   Hub::maybe_publish_stream ──┐
//   TraceRecorder tee ──────────┼──> StreamPublisher ──> StreamExporter ──> sink
//   StreamSession begin/finish ─┘    (renders JSONL      (one mutex)        (file)
//                                     into its buffer)
//
// StreamPublisher renders every line of its run on the world's own thread
// into one reserved buffer, numbering the lines with a per-run sequence
// number in the order they are produced, so a multi-world stream sorts
// deterministically by (run, seq) regardless of worker count or host timing.
// At each cadence publish it walks the registry's ordered maps once and
// writes one "metrics" line holding every new or changed metric, carrying
// cumulative values (not deltas). At every cadence publish and at run_end
// it hands the buffer to the exporter, which appends it to the sink under
// one mutex. Nothing is dropped to keep up, and no thread is started. Warm
// publishes are allocation-free; only the first sighting of a new metric
// (re-sync) allocates.
//
// StreamSession ties one world to one exporter for one run: it wires the
// Hub and trace tee on begin(), publishes the final state plus the run_end
// line on finish(), and on destruction disarms the Hub and hands over any
// lines still buffered. The exporter writes one closing line when it closes.
//
// Line shapes (all carry "schema":"spider-telemetry-stream-v1"):
//   {"kind":"run_begin","run":R,"seq":0,"ts_us":T,"seed":S}
//   {"kind":"metrics","run":R,"seq":N,"ts_us":T,
//    "counters":{name:value,…},"gauges":{name:{"value":v,"high_water":h},…},
//    "histograms":{name:{"count":c,"sum":s},…}}        — changed metrics only
//   {"kind":"span","run":R,"seq":N,"ts_us":T,"dur_us":D,"name":…,"cat":…,
//    "track":K[,"args":{name:v}]}                       (instant analogous,
//                                                        without dur_us)
//   {"kind":"counter_sample","run":R,"seq":N,"ts_us":T,"value":V,"name":…,
//    "cat":…,"track":K}
//   {"kind":"track","run":R,"seq":N,"ts_us":T,"track":K,"name":…}
//   {"kind":"run_end","run":R,"seq":N,"ts_us":T,"digest":"0x…","events":E,
//    "snapshot":{"counters":…,"gauges":…,"histograms":…}}
//                  — the run's final MetricsSnapshot, histograms with
//                    min/max and sparse buckets (json.h append_snapshot_json)
//   {"kind":"close","process":{"counters":…,"gauges":…,"histograms":…}}
//                  — last line of the file: the process-wide registry
//                    (SPIDER_CHECK failure counters)
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/check.h"  // SPIDER_HOT marker
#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"

namespace spider::telemetry {

// Schema tag on every stream line. Readers must tolerate unknown keys and
// kinds (the JSON reader in json.h does), so the shapes can grow.
inline constexpr std::string_view kStreamSchema = "spider-telemetry-stream-v1";

class Hub;
class StreamExporter;

// Renders one run's lines. One per StreamSession; runs on the world's
// thread.
class StreamPublisher {
 public:
  StreamPublisher(StreamExporter& exporter, std::uint32_t run_tag);

  void begin_run(std::int64_t ts_us, std::uint64_t seed);
  // Writes run_end with the run's final snapshot, hands the buffer off and
  // flushes the sink.
  void end_run(std::int64_t ts_us, std::uint64_t digest,
               std::uint64_t events_executed, const MetricsSnapshot& snapshot);

  // One cadence publish: walks the registry in lexicographic order, writes
  // one "metrics" line holding every new or changed metric (none: no line,
  // no seq) and hands the buffer to the exporter. Warm calls (no new
  // metrics since the last publish) are allocation-free.
  SPIDER_HOT void publish_metrics(std::int64_t ts_us,
                                  const Registry& registry);

  // Trace tee: spans/instants/counter samples are rendered as they are
  // recorded and reach the exporter with the next publish.
  SPIDER_HOT void publish_trace(const TraceEvent& event);
  void publish_track(std::uint32_t track, std::string_view name,
                     std::int64_t ts_us);

  // Hands every buffered line to the exporter.
  void hand_off();

 private:
  // Last-published state, parallel (in lexicographic name order) to the
  // registry's maps. Metrics are never removed from a Registry, so when the
  // map sizes match, the k-th map entry IS tracked[k] and the publish walk
  // is a zero-lookup lockstep scan; a size mismatch re-syncs (cold path).
  // `fresh` marks a metric not yet published, which the next line carries
  // whatever its value.
  struct TrackedCounter {
    const std::string* name = nullptr;
    bool fresh = true;
    std::uint64_t last = 0;
  };
  struct TrackedGauge {
    const std::string* name = nullptr;
    bool fresh = true;
    std::int64_t last_value = 0;
    std::int64_t last_high_water = 0;
  };
  struct TrackedHistogram {
    const std::string* name = nullptr;
    bool fresh = true;
    std::uint64_t last_count = 0;
  };

  void resync(const Registry& registry);
  // Writes a line's head ({"schema":…,"ts_us":T) under the next seq;
  // close_line() ends the line and takes that seq.
  void open_line(const char* kind, std::int64_t ts_us);
  void close_line();

  StreamExporter& exporter_;
  std::uint32_t run_;
  std::uint64_t seq_ = 0;
  std::string out_;  // rendered lines not yet handed off
  std::vector<TrackedCounter> counters_;
  std::vector<TrackedGauge> gauges_;
  std::vector<TrackedHistogram> histograms_;
};

// Where rendered lines go. Every call is made with the exporter's lock held
// (implementations must not call back into the exporter); write() receives
// one or more whole lines, each ending in a newline. Each returns false when
// it failed; the exporter then remembers the failure and drops the sink.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual bool write(std::string_view lines) = 0;
  virtual bool flush() { return true; }
  // The last call the sink gets.
  virtual bool close() { return flush(); }
};

class FileStreamSink : public StreamSink {
 public:
  explicit FileStreamSink(const std::string& path);
  ~FileStreamSink() override;
  bool ok() const { return file_ != nullptr; }
  bool write(std::string_view lines) override;
  bool flush() override;
  bool close() override;  // flushes and closes the file

 private:
  std::FILE* file_ = nullptr;
};

// The one place the worlds of a sweep share: appends each publisher's
// lines to the sink under one mutex. Without a sink, lines are discarded.
class StreamExporter {
 public:
  StreamExporter() = default;
  ~StreamExporter();  // close()s

  StreamExporter(const StreamExporter&) = delete;
  StreamExporter& operator=(const StreamExporter&) = delete;

  void set_sink(std::shared_ptr<StreamSink> sink);

  // Thread-safe; `lines` holds whole lines.
  void write(std::string_view lines);
  void flush();

  // Writes the closing line and closes the sink; later writes are
  // discarded. Returns false if any write, flush or the close itself ever
  // failed. Call once the stream's runs are finished; calling again only
  // repeats the verdict.
  bool close();

 private:
  // Calls `op` on the sink; on failure remembers it and drops the sink.
  template <typename Op>
  void use_sink(const Op& op);

  std::mutex mu_;
  std::shared_ptr<StreamSink> sink_;
  bool failed_ = false;
};

// One world's attachment to an exporter for one run. Construct with the
// world's Hub, call begin() once the seed is known (emits run_begin plus a
// baseline metrics publish and arms the Hub cadence hook + trace tee), and
// finish() after the run (final publish + run_end with the digest).
// Destruction disarms the Hub and hands over any buffered lines. Declare
// the session *after* the Simulator it watches (destroyed first).
class StreamSession {
 public:
  StreamSession(StreamExporter& exporter, Hub& hub, std::uint32_t run_tag,
                std::int64_t cadence_us);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  StreamPublisher& publisher() { return publisher_; }

  void begin(std::int64_t ts_us, std::uint64_t seed);
  void finish(std::int64_t ts_us, std::uint64_t digest,
              std::uint64_t events_executed);

 private:
  Hub& hub_;
  StreamPublisher publisher_;
  std::int64_t cadence_us_;
  bool begun_ = false;
  bool finished_ = false;
};

}  // namespace spider::telemetry
