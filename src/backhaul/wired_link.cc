#include "backhaul/wired_link.h"

#include <algorithm>
#include <utility>

namespace spider::backhaul {

WiredLink::WiredLink(sim::Simulator& simulator, WiredLinkConfig config)
    : sim_(simulator), config_(config) {}

std::int64_t WiredLink::backlog_bytes() const {
  if (config_.rate_bps <= 0.0 || busy_until_ <= sim_.now()) return 0;
  const double secs = (busy_until_ - sim_.now()).sec();
  return static_cast<std::int64_t>(secs * config_.rate_bps / 8.0);
}

void WiredLink::send(net::TcpSegment segment) {
  const int size = segment.size_bytes();
  sim::Time ready = sim_.now();
  if (config_.rate_bps > 0.0) {
    if (backlog_bytes() + size > config_.queue_limit_bytes) {
      ++dropped_;
      return;
    }
    const sim::Time start = std::max(sim_.now(), busy_until_);
    busy_until_ = start + sim::transmission_time(size, config_.rate_bps);
    ready = busy_until_;
  }
  // Shaped ready times are monotone and the latency is constant, so due
  // times only fall back when set_rate(0) unshapes a link whose backlog is
  // still in flight; those later segments queue behind the backlog.
  const sim::Time due = std::max(ready + config_.latency, last_due_);
  last_due_ = due;
  if (in_flight_count_ == in_flight_.size()) {
    std::vector<net::TcpSegment> grown(
        std::max<std::size_t>(16, 2 * in_flight_.size()));
    for (std::size_t i = 0; i < in_flight_count_; ++i) {
      grown[i] = in_flight_[(in_flight_head_ + i) & (in_flight_.size() - 1)];
    }
    in_flight_.swap(grown);
    in_flight_head_ = 0;
  }
  in_flight_[(in_flight_head_ + in_flight_count_) & (in_flight_.size() - 1)] =
      segment;
  ++in_flight_count_;
  // Same-instant events fire in post order, so delivery events pop the ring
  // in send order.
  sim_.post_at(due, [this] { deliver_front(); });
}

void WiredLink::deliver_front() {
  // Copied out before the handler runs: it may send on this link again.
  const net::TcpSegment segment = in_flight_[in_flight_head_];
  in_flight_head_ = (in_flight_head_ + 1) & (in_flight_.size() - 1);
  --in_flight_count_;
  ++delivered_;
  if (deliver_) deliver_(segment);
}

}  // namespace spider::backhaul
