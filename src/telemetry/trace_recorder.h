// Structured trace recorder — Chrome trace-event JSON out of simulated time.
//
// Records complete spans ('X'), instant events ('i'), and counter samples
// ('C', rendered by Perfetto as stepped graphs) into a bounded ring:
// when the ring is full the *oldest* entry is overwritten and a dropped
// counter advances, so a million-event run costs a flat, configured amount
// of memory and the exported file always holds the most recent window.
// to_json() renders the standard {"traceEvents":[...]} envelope that both
// chrome://tracing and Perfetto load directly; timestamps are microseconds
// (sim::Time's native unit), tracks map to Chrome "tid"s and can be named
// via name_track() metadata records.
//
// Cost model: recording is OFF by default — every record call starts with an
// inlined enabled() check, so the tracing-disabled hot path pays one
// predictable branch. Name/category/arg-name strings are required to be
// string literals (they are stored as const char*, never copied); every call
// site in the tree complies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spider::telemetry {

class StreamPublisher;

struct TraceEvent {
  const char* name = "";      // string literal
  const char* category = "";  // string literal
  char phase = 'X';           // 'X' complete, 'i' instant, 'C' counter
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;    // 'X' only
  std::uint32_t track = 0;    // rendered as Chrome tid
  const char* arg_name = nullptr;  // optional single integer arg (literal)
  std::int64_t arg_value = 0;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
  }

  // Ring budget in events. Shrinking drops the oldest entries.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  void complete(const char* name, const char* category, std::int64_t ts_us,
                std::int64_t dur_us, std::uint32_t track,
                const char* arg_name = nullptr, std::int64_t arg_value = 0) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'X', ts_us, dur_us, track, arg_name,
                    arg_value});
  }

  void instant(const char* name, const char* category, std::int64_t ts_us,
               std::uint32_t track, const char* arg_name = nullptr,
               std::int64_t arg_value = 0) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'i', ts_us, 0, track, arg_name,
                    arg_value});
  }

  // Counter sample ('C'): Perfetto renders each counter name as a stepped
  // graph alongside the span tracks — the export shape for gauges like
  // queue depth or PSM occupancy. `track` distinguishes multiple series
  // under one name (serialized as the Chrome "id" field; 0 = the sole
  // unkeyed series), e.g. one PSM-occupancy line per AP.
  void counter(const char* name, const char* category, std::int64_t ts_us,
               std::int64_t value, std::uint32_t track = 0) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'C', ts_us, 0, track, "value", value});
  }

  // Attaches a display name to a track (emitted as a thread_name metadata
  // record). Recorded regardless of enabled() so tracks registered during
  // setup survive a later enable.
  void name_track(std::uint32_t track, const char* name);

  // Live-stream tee: while set, every recorded event is also pushed to the
  // stream publisher (which never blocks — see spsc_ring.h). Wired by
  // Hub::set_stream; nullptr detaches.
  void set_stream(StreamPublisher* stream) { stream_ = stream; }

  std::size_t size() const { return buffer_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  // Events overwritten by the ring (recorded - retained).
  std::uint64_t dropped() const { return dropped_; }

  // Events in chronological (recording) order, oldest first.
  std::vector<TraceEvent> events_in_order() const;

  // {"traceEvents":[...]} — chrome://tracing / Perfetto loadable.
  std::string to_json() const;
  bool write_file(const std::string& path) const;

  void clear();

 private:
  void push(const TraceEvent& ev);

  bool enabled_ = false;
  StreamPublisher* stream_ = nullptr;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<TraceEvent> buffer_;
  std::size_t next_ = 0;  // ring write cursor once buffer_ is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::pair<std::uint32_t, const char*>> track_names_;
};

}  // namespace spider::telemetry
