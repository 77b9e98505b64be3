// Structured trace recorder — spans, instants and counter samples in
// simulated time, teed into the run's telemetry stream.
//
// Records complete spans ('X'), instant events ('i') and counter samples
// ('C') and hands each one to the stream publisher as it is recorded, so a
// traced run's stream holds every event of the run (stream_exporter.h
// renders them as "span", "instant" and "counter_sample" lines, and
// `spider-trace --chrome` turns those into a Chrome trace-event file that
// chrome://tracing and Perfetto load). The recorder keeps nothing itself:
// without a stream attached, recording only counts. Timestamps are
// microseconds (sim::Time's native unit); tracks become Chrome threads
// (one per owner of a reused lane) and can be named with name_track().
// Track 0 is the world's shared lane; span owners (a driver's channel
// dwells, one virtual interface's joins) take a lane of their own with
// open_lane() and hand it back with close_lane(), so no two owners' spans
// share a lane at once, and a long run reuses lanes instead of growing them.
//
// Cost model: recording is OFF by default — every record call starts with an
// inlined enabled() check, so the tracing-disabled hot path pays one
// predictable branch. Event name/category/arg-name strings are required to
// be string literals (TraceEvent carries them as const char*, never
// copied); every call site in the tree complies.
#pragma once

#include <cstdint>
#include <string_view>
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
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
  }

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
  // under one name (the Chrome "id" field; 0 = the sole unkeyed series),
  // e.g. one PSM-occupancy line per AP.
  void counter(const char* name, const char* category, std::int64_t ts_us,
               std::int64_t value, std::uint32_t track = 0) {
    if (!enabled_) return;
    push(TraceEvent{name, category, 'C', ts_us, 0, track, "value", value});
  }

  // Names a track from `ts_us` on (a "track" stream line; a thread_name
  // record in the Chrome export). Like the events, a no-op unless enabled;
  // unlike their strings, `name` need not outlive the call.
  void name_track(std::uint32_t track, std::string_view name,
                  std::int64_t ts_us);

  // Takes the lowest free lane >= 1 and names it `name` from `ts_us` on.
  // Returns 0 (the shared lane) and keeps nothing while disabled, so the
  // caller builds `name` only under enabled().
  std::uint32_t open_lane(std::string_view name, std::int64_t ts_us);
  // Hands `lane` back for reuse; 0 and lanes not open are ignored.
  void close_lane(std::uint32_t lane);

  // Live-stream tee: while set, every recorded event is rendered as a line
  // by the stream publisher (see stream_exporter.h). Wired by
  // Hub::set_stream; nullptr detaches.
  void set_stream(StreamPublisher* stream) { stream_ = stream; }

  // Events recorded while enabled, streamed or not.
  std::uint64_t recorded() const { return recorded_; }

 private:
  void push(const TraceEvent& ev);

  bool enabled_ = false;
  StreamPublisher* stream_ = nullptr;
  std::uint64_t recorded_ = 0;
  std::vector<bool> lane_open_;  // [i] is lane i + 1
};

}  // namespace spider::telemetry
