// Access-point MAC.
//
// A stationary AP beacons on a fixed channel, answers probe/auth/assoc
// exchanges, tracks per-client power-save state, and buffers downlink
// frames for clients that have announced power-save mode — the mechanism
// virtualized-Wi-Fi clients exploit to be "absent" without losing packets.
//
// Received data frames (DHCP requests, uplink TCP segments) are handed to a
// pluggable sink; higher layers (the DHCP server, the backhaul bridge) send
// downlink traffic through send_to_client(), which transparently respects
// power-save buffering.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace spider::mac {

struct AccessPointConfig {
  std::string ssid = "open-ap";
  net::ChannelId channel = 6;
  sim::Time beacon_interval = sim::Time::millis(100);
  // Management-plane responsiveness: auth/assoc responses are sent after a
  // uniform delay in [response_delay_min, response_delay_max], modelling
  // firmware/queueing variance observed on commodity APs.
  sim::Time response_delay_min = sim::Time::millis(2);
  sim::Time response_delay_max = sim::Time::millis(40);
  // Power-save buffering.
  std::size_t max_buffered_frames = 1024;
  bool open = true;
};

class AccessPoint {
 public:
  using DataSink = std::function<void(const net::Frame&)>;

  // The frames an AP consumes: those addressed to it or broadcast, except
  // the four kinds it sends and never answers (other APs' beacons and
  // their probe/auth/assoc responses). The rest are drawn and counted at
  // its radio, but on_receive never runs for them.
  static constexpr phy::RxInterest kRxInterest{
      .addressed_only = true,
      .kinds = ~(phy::RxInterest::bit(net::FrameKind::kBeacon) |
                 phy::RxInterest::bit(net::FrameKind::kProbeResponse) |
                 phy::RxInterest::bit(net::FrameKind::kAuthResponse) |
                 phy::RxInterest::bit(net::FrameKind::kAssocResponse))};

  AccessPoint(phy::Medium& medium, net::MacAddress address, phy::Vec2 position,
              sim::Rng rng, AccessPointConfig config = {});
  ~AccessPoint();

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  net::MacAddress address() const { return radio_.address(); }
  net::ChannelId channel() const { return config_.channel; }
  const std::string& ssid() const { return config_.ssid; }
  phy::Vec2 position() const { return radio_.position(); }
  const AccessPointConfig& config() const { return config_; }

  // Starts beaconing. Safe to call once.
  void start();

  // Uplink data frames (anything FrameKind::kData from an associated or
  // associating client) are delivered here.
  void set_data_sink(DataSink sink) { data_sink_ = std::move(sink); }

  // Downlink entry point: wraps and transmits, or buffers if `dst` is in
  // power-save. Returns false if the client is not associated (frame dropped,
  // as a real AP would).
  bool send_to_client(net::MacAddress dst, net::Frame frame);

  bool is_associated(net::MacAddress client) const;
  bool in_power_save(net::MacAddress client) const;
  std::size_t buffered_frames(net::MacAddress client) const;
  std::size_t association_count() const { return stations_.size(); }

  // Counters. Published as mac.ap.* metrics (aggregated across the world's
  // APs) by the telemetry collector each AP registers.
  std::uint64_t auth_grants() const { return auth_grants_; }
  std::uint64_t assoc_grants() const { return assoc_grants_; }
  std::uint64_t buffered_total() const { return buffered_total_; }
  std::uint64_t buffer_drops() const { return buffer_drops_; }
  std::uint64_t psm_enters() const { return psm_enters_; }
  std::uint64_t psm_exits() const { return psm_exits_; }
  std::size_t buffered_high_water() const { return buffered_high_water_; }

 private:
  struct ClientState {
    bool authenticated = false;
    bool associated = false;
    bool power_save = false;
    std::deque<net::Frame> buffer;
  };

  // A delayed management response waiting on its firmware-jitter timer.
  // Pooled so the scheduled closure captures {this, node, weak alive} —
  // small enough for SmallFn's inline buffer — instead of a whole Frame,
  // which would heap-spill on every auth/assoc grant.
  struct PendingResponse {
    net::Frame frame;
  };

  void on_receive(const net::Frame& frame, const phy::RxInfo& info);
  void beacon_tick();
  void respond_after_delay(net::Frame response);
  PendingResponse* acquire_pending_response();
  void release_pending_response(PendingResponse* node);
  void flush_buffer(net::MacAddress client, ClientState& state);
  void note_buffered();
  // Samples buffered_now_ onto the per-AP mac.ap.psm_buffered counter track
  // (keyed by the radio's attach order) whenever occupancy changes; no-op
  // while tracing is off.
  void trace_psm_occupancy();
  void publish_metrics(telemetry::Registry& registry);

  phy::Medium& medium_;
  phy::Radio radio_;
  // Lifetime guard: scheduled beacon/response lambdas hold a weak_ptr and
  // become no-ops once the AP is destroyed mid-simulation.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  sim::Rng rng_;
  AccessPointConfig config_;
  // The AP's capability payload (SSID, channel, open), built once at
  // construction and handed out as refcounted storage on every beacon, probe
  // response and auth/assoc grant, so none of them allocates a payload.
  net::SharedPayload beacon_payload_;
  DataSink data_sink_;
  // Free-listed delayed-response nodes (see PendingResponse). The pool only
  // grows while more responses are in flight at once than ever before; the
  // steady state recycles.
  std::vector<std::unique_ptr<PendingResponse>> response_pool_;
  std::vector<PendingResponse*> response_free_;
  std::unordered_map<net::MacAddress, ClientState> stations_;
  bool started_ = false;
  std::uint64_t auth_grants_ = 0;
  std::uint64_t assoc_grants_ = 0;
  std::uint64_t buffered_total_ = 0;
  std::uint64_t buffer_drops_ = 0;
  std::uint64_t psm_enters_ = 0;
  std::uint64_t psm_exits_ = 0;
  // PSM occupancy across all clients of this AP, tracked at event
  // granularity so the published gauge's high-water is exact.
  std::size_t buffered_now_ = 0;
  std::size_t buffered_high_water_ = 0;
  // Values already folded into the shared mac.ap.* metrics — several APs in
  // one world publish deltas into the same registry entries.
  struct Published {
    std::uint64_t auth = 0;
    std::uint64_t assoc = 0;
    std::uint64_t buffered = 0;
    std::uint64_t drops = 0;
    std::uint64_t psm_enters = 0;
    std::uint64_t psm_exits = 0;
    std::size_t occupancy = 0;
  } published_;
  telemetry::Hub::CollectorId collector_id_ = 0;
};

}  // namespace spider::mac
