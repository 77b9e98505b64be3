// One join: association plus DHCP to one AP (Eq. 7's object). Spider keeps
// a map of them, one per virtual interface; the stock driver holds at most
// one. A VirtualInterface owns what a join does the same way in either
// driver:
//   * the gated transmit: join traffic is sent only while the radio is on
//     the AP's channel and not mid-reset, and never queued (a deferred DHCP
//     request would arrive stale, and joins cannot be parked with PSM);
//   * the ClientSession and DhcpClient, and the routing of the AP's frames;
//   * the accounting: JoinMetrics, the driver.* counters and histograms,
//     and the scan/join trace spans.
// The owner keeps its policy (which AP, when to give up, which lane) and
// hears back through JoinHooks.
#pragma once

#include <cstdint>
#include <functional>

#include "core/client_device.h"
#include "core/metrics.h"
#include "dhcpd/dhcp_client.h"
#include "mac/client_session.h"
#include "telemetry/metrics.h"

namespace spider::core {

// A driver's join accounting: its own JoinMetrics, mirrored as each event
// happens into the world's driver.* join counters (every driver in a world
// bumps the same ones) and delay histograms.
struct JoinLedger {
  // Registers the six counters at zero, so a stream's first metrics line
  // lists them before any join.
  explicit JoinLedger(telemetry::Registry& registry);

  telemetry::Registry& registry;
  JoinMetrics metrics;
  telemetry::Counter& join_attempts;
  telemetry::Counter& associations;
  telemetry::Counter& joins;
  telemetry::Counter& dhcp_attempts;
  telemetry::Counter& dhcp_attempt_failures;
  telemetry::Counter& dhcp_failed_joins;
};

class VirtualInterface;

// How a join reports back to its owner. Empty hooks are skipped.
struct JoinHooks {
  // Any frame from the AP, before the session and DHCP client see it.
  std::function<void()> heard;
  // The join bound a lease and is connected.
  std::function<void(const VirtualInterface&)> bound;
  // A DHCP attempt window expired without a lease.
  std::function<void()> window_failed;
  // At association: a lease to try INIT-REBOOT with, or null for discovery.
  std::function<const dhcpd::Lease*()> cached_lease;
};

class VirtualInterface {
 public:
  enum class State : std::uint8_t { kAssociating, kDhcp, kConnected };

  // Counts the attempt and records the scan span (the AP's last sighting up
  // to the decision to join it) on `trace_lane`, where the auth/assoc/dhcp
  // and join spans follow. Sends nothing until start().
  VirtualInterface(sim::Simulator& simulator, ClientDevice& device,
                   JoinLedger& ledger, const ScanEntry& entry,
                   mac::ClientSessionConfig session,
                   dhcpd::DhcpClientConfig dhcp, std::uint32_t trace_lane,
                   JoinHooks hooks);
  // Stops routing the AP's frames.
  ~VirtualInterface() { device_.unregister_bssid(bssid_); }

  VirtualInterface(const VirtualInterface&) = delete;
  VirtualInterface& operator=(const VirtualInterface&) = delete;

  // Starts authentication.
  void start() { session_.start_join(); }
  // The radio is back on this join's channel: resend what is outstanding.
  void radio_on_channel();
  // Ends the join before its owner drops it: an associated join that never
  // bound counts as a DHCP-failed join, and the AP's scan entry is
  // forgotten, so a rejoin waits for a fresh sighting.
  void end();

  net::Bssid bssid() const { return bssid_; }
  net::ChannelId channel() const { return channel_; }
  State state() const { return state_; }
  sim::Time join_started() const { return join_started_; }
  std::uint32_t trace_lane() const { return trace_lane_; }
  const dhcpd::Lease& lease() const { return dhcp_.lease(); }
  // DHCP attempt windows that expired without a lease.
  int failed_windows() const { return failed_windows_; }

 private:
  bool send(const net::Frame& frame);
  void on_associated();
  void on_dhcp_event(dhcpd::DhcpEvent event);

  sim::Simulator& sim_;
  ClientDevice& device_;
  JoinLedger& ledger_;
  JoinHooks hooks_;
  net::Bssid bssid_;
  net::ChannelId channel_;
  std::uint32_t trace_lane_;
  State state_ = State::kAssociating;
  sim::Time join_started_;
  int failed_windows_ = 0;
  mac::ClientSession session_;
  dhcpd::DhcpClient dhcp_;
};

}  // namespace spider::core
