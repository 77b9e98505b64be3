#include "telemetry/trace_recorder.h"

#include "telemetry/stream_exporter.h"

namespace spider::telemetry {

void TraceRecorder::push(const TraceEvent& ev) {
  ++recorded_;
  if (stream_ != nullptr) stream_->publish_trace(ev);
}

void TraceRecorder::name_track(std::uint32_t track, std::string_view name,
                               std::int64_t ts_us) {
  if (enabled_ && stream_ != nullptr) {
    stream_->publish_track(track, name, ts_us);
  }
}

}  // namespace spider::telemetry
