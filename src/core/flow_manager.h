// Client-side workload: one bulk HTTP-style download per connected AP, and
// optional striped uploads.
//
// Downloads: when a driver reports an AP as connected (association + lease
// complete), the manager opens a TCP flow through it: a SYN/GET uplink
// segment that the content server answers with an endless stream. Downlink
// data is fed to a TcpReceiver whose acks ride the per-channel TX queues,
// so acks for a parked channel wait for the radio — which is how
// multi-channel schedules end up triggering sender RTOs.
//
// Uploads (the Section 4.8 load-balancing extension): a large payload can
// be striped across several connected APs, with per-AP shares chosen by
// the caller — typically proportional to the download-goodput estimates
// this manager keeps per AP ("assign traffic to APs proportional to the
// available end-to-end bandwidth").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/client_device.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"

namespace spider::core {

class FlowManager {
 public:
  // Newly delivered in-order bytes (throughput/connectivity accounting).
  using DeliveryFn = std::function<void(std::int64_t)>;
  // A flow was torn down; gives the experiment a chance to prune the
  // server-side sender.
  using FlowClosedFn = std::function<void(std::uint64_t flow_id)>;

  FlowManager(sim::Simulator& simulator, ClientDevice& device);

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  void set_delivery_handler(DeliveryFn fn) { on_delivered_ = std::move(fn); }
  void set_flow_closed_handler(FlowClosedFn fn) { on_closed_ = std::move(fn); }

  // Opens a bulk download through `bssid` on `channel`; no-op if one is
  // already open through that AP.
  void open_flow(net::Bssid bssid, net::ChannelId channel);
  // Tears down every flow riding `bssid` (AP lost / driver disconnected).
  void close_flow(net::Bssid bssid);

  // --- uploads ---------------------------------------------------------

  struct UploadShare {
    net::Bssid bssid;
    net::ChannelId channel = 0;
    double weight = 1.0;  // share of total_bytes, normalized over shares
  };
  // Stripes `total_bytes` across the given APs; returns the flow ids.
  std::vector<std::uint64_t> start_striped_upload(
      const std::vector<UploadShare>& shares, std::int64_t total_bytes);
  std::int64_t upload_bytes_acked() const;
  bool uploads_finished() const;
  std::size_t active_uploads() const { return uploads_.size(); }

  // EWMA-free download-goodput estimate for an AP: bytes delivered over
  // the flow's lifetime so far (b/s); falls back to the last estimate
  // after the flow closes. 0.0 for never-seen APs.
  double download_rate_bps(net::Bssid bssid) const;

  // Call from the device's default handler (or install install_tap()).
  void handle_frame(const net::Frame& frame);
  // Convenience: registers itself as the device's default handler.
  void install_tap();

  std::size_t open_flows() const { return flows_.size(); }
  std::uint64_t flows_opened() const { return flows_opened_; }
  std::int64_t total_bytes() const { return total_bytes_; }

 private:
  struct Flow {
    std::uint64_t id;
    net::Bssid bssid;
    net::ChannelId channel;
    std::unique_ptr<tcp::TcpReceiver> receiver;
    sim::Time opened = sim::Time::zero();
  };
  struct Upload {
    std::uint64_t id;
    net::Bssid bssid;
    std::unique_ptr<tcp::TcpSender> sender;
  };
  struct RateRecord {
    std::int64_t bytes = 0;
    sim::Time since = sim::Time::zero();
    double last_rate_bps = 0.0;
  };

  sim::Simulator& sim_;
  ClientDevice& device_;
  DeliveryFn on_delivered_;
  FlowClosedFn on_closed_;
  std::unordered_map<std::uint64_t, Flow> flows_;         // by flow id
  std::unordered_map<net::Bssid, std::uint64_t> by_bssid_;
  std::map<std::uint64_t, Upload> uploads_;  // by flow id, closed in order
  std::unordered_map<net::Bssid, RateRecord> rates_;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t flows_opened_ = 0;
  std::int64_t total_bytes_ = 0;
};

}  // namespace spider::core
