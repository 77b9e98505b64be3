#include "telemetry/hub.h"

#include "telemetry/stream_exporter.h"

namespace spider::telemetry {

void Hub::set_stream(StreamPublisher* stream, std::int64_t cadence_us) {
  stream_ = stream;
  stream_cadence_us_ = cadence_us > 0 ? cadence_us : 1;
  stream_next_us_ = 0;
  trace_.set_stream(stream);
}

void Hub::publish_stream(std::int64_t ts_us) {
  run_collectors();
  stream_->publish_metrics(ts_us, metrics_);
  // Next boundary strictly after ts_us, aligned to the cadence grid so the
  // publish times are a deterministic function of simulated time alone.
  stream_next_us_ = ts_us - ts_us % stream_cadence_us_ + stream_cadence_us_;
}

}  // namespace spider::telemetry
