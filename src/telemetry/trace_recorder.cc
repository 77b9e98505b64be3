#include "telemetry/trace_recorder.h"

#include <cstdio>

#include "telemetry/run_report.h"
#include "telemetry/stream_exporter.h"

namespace spider::telemetry {
namespace {

void append_event(std::string& out, const TraceEvent& ev) {
  char buf[96];
  out += "{\"name\":";
  append_json_quoted(out, ev.name);
  out += ",\"cat\":";
  append_json_quoted(out, ev.category[0] != '\0' ? ev.category : "spider");
  out += ",\"ph\":\"";
  out.push_back(ev.phase);
  std::snprintf(buf, sizeof(buf), "\",\"ts\":%lld",
                static_cast<long long>(ev.ts_us));
  out += buf;
  if (ev.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%lld",
                  static_cast<long long>(ev.dur_us));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":%u",
                static_cast<unsigned>(ev.track));
  out += buf;
  // Counter series are keyed by (pid, name, id), not tid; a nonzero track
  // becomes the "id" so several same-named series (one per AP, say) render
  // as separate graphs.
  if (ev.phase == 'C' && ev.track != 0) {
    std::snprintf(buf, sizeof(buf), ",\"id\":\"%u\"",
                  static_cast<unsigned>(ev.track));
    out += buf;
  }
  if (ev.arg_name != nullptr) {
    out += ",\"args\":{";
    append_json_quoted(out, ev.arg_name);
    std::snprintf(buf, sizeof(buf), ":%lld}",
                  static_cast<long long>(ev.arg_value));
    out += buf;
  }
  out += "}";
}

}  // namespace

void TraceRecorder::set_capacity(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  // Re-linearize so the ring cursor can restart from a compact buffer.
  std::vector<TraceEvent> ordered = events_in_order();
  if (ordered.size() > capacity) {
    dropped_ += ordered.size() - capacity;
    ordered.erase(ordered.begin(),
                  ordered.begin() +
                      static_cast<std::ptrdiff_t>(ordered.size() - capacity));
  }
  buffer_ = std::move(ordered);
  capacity_ = capacity;
  next_ = 0;
}

void TraceRecorder::push(const TraceEvent& ev) {
  ++recorded_;
  if (stream_ != nullptr) stream_->publish_trace(ev);
  if (buffer_.size() < capacity_) {
    buffer_.push_back(ev);
    return;
  }
  buffer_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

void TraceRecorder::name_track(std::uint32_t track, const char* name) {
  for (auto& [id, existing] : track_names_) {
    if (id == track) {
      existing = name;
      return;
    }
  }
  track_names_.emplace_back(track, name);
}

std::vector<TraceEvent> TraceRecorder::events_in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  if (buffer_.size() < capacity_) {
    out = buffer_;
    return out;
  }
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

std::string TraceRecorder::to_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    if (!first) out.push_back(',');
    first = false;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":",
                  static_cast<unsigned>(track));
    out += buf;
    append_json_quoted(out, name);
    out += "}}";
  }
  for (const TraceEvent& ev : events_in_order()) {
    if (!first) out.push_back(',');
    first = false;
    append_event(out, ev);
  }
  out += "],\"displayTimeUnit\":\"ms\"";
  // Surfaced so spider-trace can report ring overwrites (--strict gates on
  // it); readers that don't know the key ignore it.
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"droppedEvents\":%llu",
                static_cast<unsigned long long>(dropped_));
  out += buf;
  out += "}";
  return out;
}

void TraceRecorder::clear() {
  buffer_.clear();
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace spider::telemetry
