// Client-side device layer shared by every driver (Spider and stock).
//
// Owns the physical radio and implements the mechanisms the policy layers
// build on:
//   * per-channel TX queues, swapped in and out as the radio moves — the
//     paper's "one packet queue per channel";
//   * the PSM channel-switch dance (Table 1): null-data PM=1 to every
//     connected AP on the old channel, hardware reset, PS-Poll to every
//     connected AP on the new channel;
//   * a scan table fed by overheard beacons and probe responses, plus
//     active probing on channel arrival (opportunistic scanning);
//   * per-BSSID frame dispatch to whoever registered (sessions, DHCP).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::core {

struct ScanEntry {
  net::Bssid bssid;
  net::BeaconInfo info;
  net::ChannelId channel = 0;
  double rssi_dbm = -100.0;
  sim::Time last_seen = sim::Time::zero();
};

struct ClientDeviceConfig {
  phy::RadioConfig radio;
  std::size_t max_queue_frames = 256;
  // Active probe on each channel arrival and at this interval while parked.
  sim::Time probe_interval = sim::Time::millis(500);
  // Scan entries older than this are ignored by selection.
  sim::Time scan_expiry = sim::Time::seconds(3);
};

class ClientDevice {
 public:
  using FrameHandler = std::function<void(const net::Frame&, const phy::RxInfo&)>;
  // Driver-provided: BSSIDs with live (post-join) connections on `channel`,
  // used for the PSM announcements around a switch.
  using ConnectedFn = std::function<std::vector<net::Bssid>(net::ChannelId)>;

  ClientDevice(phy::Medium& medium, net::MacAddress address,
               ClientDeviceConfig config = {});

  ClientDevice(const ClientDevice&) = delete;
  ClientDevice& operator=(const ClientDevice&) = delete;

  net::MacAddress address() const { return radio_.address(); }
  net::ChannelId channel() const { return radio_.channel(); }
  bool switching() const { return radio_.switching(); }
  phy::Radio& radio() { return radio_; }
  void set_position(phy::Vec2 p) { radio_.set_position(p); }

  void set_connected_lookup(ConnectedFn fn) { connected_ = std::move(fn); }
  // Every received frame from `bssid` goes to this handler (in addition to
  // the catch-all below).
  void register_bssid(net::Bssid bssid, FrameHandler handler);
  void unregister_bssid(net::Bssid bssid);
  // Catch-all (TCP data, metrics taps); runs for every received frame.
  void set_default_handler(FrameHandler handler) {
    default_handler_ = std::move(handler);
  }

  // Queues `frame` for `channel`; transmits immediately when the radio is
  // already there and not mid-reset. Returns true if the frame left the
  // radio right away.
  bool enqueue(net::ChannelId channel, net::Frame frame);

  // Executes the full PSM switch dance and invokes `done` on arrival.
  // Returns the modeled latency of the switch operation (PSM frames +
  // hardware reset + PS-Poll frames) — the quantity Table 1 reports.
  sim::Time switch_channel(net::ChannelId channel,
                           std::function<void()> done = nullptr);

  // Fresh scan results (age <= scan_expiry) in bssid order, optionally
  // filtered by channel (0 = all channels).
  std::vector<ScanEntry> scan_results(net::ChannelId channel = 0) const;
  void forget_scan(net::Bssid bssid) { scan_table_.erase(bssid); }

  // Sends a probe request on the current channel now.
  void probe_now();

  std::uint64_t frames_enqueued() const { return frames_enqueued_; }
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::uint64_t switches() const { return switches_; }

 private:
  void on_receive(const net::Frame& frame, const phy::RxInfo& info);
  void flush_queue(net::ChannelId channel);
  void arm_probe_timer();

  sim::Simulator& sim_;
  phy::Medium& medium_;
  phy::Radio radio_;
  ClientDeviceConfig config_;
  ConnectedFn connected_;
  std::unordered_map<net::Bssid, FrameHandler> bssid_handlers_;
  FrameHandler default_handler_;
  std::unordered_map<net::ChannelId, std::deque<net::Frame>> queues_;
  // Keyed by bssid, so scan_results() comes out in bssid order: callers
  // rank entries by policy scores that tie routinely (fresh APs all score
  // zero), and a tie must never be broken by hash-map order.
  std::map<net::Bssid, ScanEntry> scan_table_;
  sim::TimerHandle probe_timer_;
  std::uint64_t frames_enqueued_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace spider::core
