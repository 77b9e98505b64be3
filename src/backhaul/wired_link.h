// One-way wired link with a token-bucket-equivalent rate shaper and a
// drop-tail byte queue — the stand-in for each AP's DSL/cable backhaul and
// the traffic shaper used in the paper's Fig. 9 micro-benchmark.
//
// A wire delivers in order, so in-flight segments wait in a FIFO ring owned
// by the link and each delivery event carries only the link pointer (inside
// SmallFn's inline buffer; a captured segment would heap-spill every send).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/frame.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::backhaul {

struct WiredLinkConfig {
  double rate_bps = 0.0;  // 0 = unshaped (infinite rate)
  sim::Time latency = sim::Time::millis(20);
  // Residential gateways of the era were famously over-buffered; a deep
  // drop-tail queue also lets TCP slow-start discover the path capacity.
  std::int64_t queue_limit_bytes = 256 * 1024;
};

class WiredLink {
 public:
  using DeliverFn = std::function<void(const net::TcpSegment&)>;

  WiredLink(sim::Simulator& simulator, WiredLinkConfig config = {});

  WiredLink(const WiredLink&) = delete;
  WiredLink& operator=(const WiredLink&) = delete;

  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_rate(double bps) { config_.rate_bps = bps; }
  const WiredLinkConfig& config() const { return config_; }

  // Enqueues the segment; drops it if the shaper queue is full. A segment
  // never overtakes one sent before it on the same link, including after
  // set_rate(0) unshapes a link whose shaped backlog is still in flight.
  void send(net::TcpSegment segment);

  std::int64_t backlog_bytes() const;
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  // Pops the oldest in-flight segment and hands it to the deliver handler.
  void deliver_front();

  sim::Simulator& sim_;
  WiredLinkConfig config_;
  DeliverFn deliver_;
  sim::Time busy_until_ = sim::Time::zero();
  // Due time of the newest in-flight segment; due times never decrease.
  sim::Time last_due_ = sim::Time::zero();
  // In-flight segments, oldest at in_flight_head_: a ring over a
  // power-of-two vector that doubles when full, so a warm link never
  // allocates.
  std::vector<net::TcpSegment> in_flight_;
  std::size_t in_flight_head_ = 0;
  std::size_t in_flight_count_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace spider::backhaul
