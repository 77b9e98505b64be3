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

std::uint32_t TraceRecorder::open_lane(std::string_view name,
                                       std::int64_t ts_us) {
  if (!enabled_) return 0;
  std::size_t i = 0;
  while (i < lane_open_.size() && lane_open_[i]) ++i;
  if (i == lane_open_.size()) lane_open_.push_back(false);
  lane_open_[i] = true;
  const auto lane = static_cast<std::uint32_t>(i + 1);
  name_track(lane, name, ts_us);
  return lane;
}

void TraceRecorder::close_lane(std::uint32_t lane) {
  if (lane > 0 && lane <= lane_open_.size()) lane_open_[lane - 1] = false;
}

}  // namespace spider::telemetry
