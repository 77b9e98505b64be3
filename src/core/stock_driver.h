// Stock Wi-Fi baseline ("unmodified MadWiFi" in Table 2).
//
// Classic client behaviour: sweep-scan all channels, camp on the
// best-RSSI open AP, join with default link-layer (1 s) and DHCP
// (1 s / 3 s / 60 s) timers, and stay until the link dies; then scan again.
// No virtualization, no PSM tricks, no history, one AP at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/client_device.h"
#include "core/metrics.h"
#include "dhcpd/dhcp_client.h"
#include "mac/client_session.h"
#include "sim/simulator.h"

namespace spider::core {

struct StockDriverConfig {
  std::vector<net::ChannelId> scan_channels{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  sim::Time scan_dwell = sim::Time::millis(150);
  mac::ClientSessionConfig session{};  // defaults: 1 s link-layer timeout
  dhcpd::DhcpClientConfig dhcp = dhcpd::default_dhcp_timers();
  sim::Time link_loss_timeout = sim::Time::seconds(3);
  // DHCP attempt windows tolerated before abandoning the AP. The default
  // mirrors dhclient's behaviour: after the 3 s window fails it idles 60 s
  // while the Wi-Fi layer stays associated — so a dud AP effectively holds
  // the client until link loss ends the encounter.
  int dhcp_windows_before_rescan = 99;
  // Settle time before the stack rescans after a failed or lost
  // connection (supplicant/dhclient restart churn on 2011 stacks).
  sim::Time rejoin_delay = sim::Time::seconds(2);
};

class StockDriver {
 public:
  struct Connection {
    net::Bssid bssid;
    net::ChannelId channel;
  };
  using ConnectionHandler = std::function<void(const Connection&)>;
  using DisconnectionHandler = std::function<void(net::Bssid)>;

  StockDriver(sim::Simulator& simulator, ClientDevice& device,
              StockDriverConfig config = {});
  ~StockDriver();

  StockDriver(const StockDriver&) = delete;
  StockDriver& operator=(const StockDriver&) = delete;

  void start();

  void set_connection_handler(ConnectionHandler fn) { on_connected_ = std::move(fn); }
  void set_disconnection_handler(DisconnectionHandler fn) {
    on_disconnected_ = std::move(fn);
  }

  const JoinMetrics& metrics() const { return metrics_; }
  bool connected() const { return state_ == State::kConnected; }
  net::Bssid current_ap() const { return bssid_; }

 private:
  enum class State : std::uint8_t { kScanning, kJoining, kConnected };

  void scan_step(std::size_t index);
  void finish_scan();
  void begin_join(const ScanEntry& entry);
  void teardown(bool lost);
  void watchdog();
  void publish_metrics(telemetry::Registry& registry);

  sim::Simulator& sim_;
  ClientDevice& device_;
  StockDriverConfig config_;
  JoinMetrics metrics_;
  ConnectionHandler on_connected_;
  DisconnectionHandler on_disconnected_;

  State state_ = State::kScanning;
  net::Bssid bssid_;
  net::ChannelId channel_ = 0;
  std::unique_ptr<mac::ClientSession> session_;
  std::unique_ptr<dhcpd::DhcpClient> dhcp_;
  sim::Time join_started_ = sim::Time::zero();
  sim::Time last_heard_ = sim::Time::zero();
  int dhcp_failures_this_join_ = 0;
  sim::TimerHandle timer_;      // scan stepping / watchdog
  bool started_ = false;
  std::uint32_t trace_lane_ = 0;  // this driver's join lane while tracing

  // Deltas already folded into the shared driver.* metrics; the stock
  // baseline reports under the same names as SpiderDriver so benches
  // compare the two like-for-like.
  struct Published {
    std::uint64_t join_attempts = 0;
    std::uint64_t associations = 0;
    std::uint64_t joins = 0;
    std::uint64_t dhcp_attempts = 0;
    std::uint64_t dhcp_attempt_failures = 0;
    std::uint64_t dhcp_failed_joins = 0;
  } published_;
  telemetry::Hub::CollectorId collector_id_ = 0;
};

}  // namespace spider::core
