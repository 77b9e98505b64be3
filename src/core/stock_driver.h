// Stock Wi-Fi baseline ("unmodified MadWiFi" in Table 2).
//
// Classic client behaviour: sweep-scan all channels, camp on the
// best-RSSI open AP, join with default link-layer (1 s) and DHCP
// (1 s / 3 s / 60 s) timers, and stay until the link dies; then scan again.
// No virtualization, no PSM tricks, no history, one AP at a time. The join
// itself is the same VirtualInterface Spider runs (core/join.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/client_device.h"
#include "core/join.h"
#include "core/metrics.h"
#include "dhcpd/dhcp_client.h"
#include "mac/client_session.h"
#include "sim/simulator.h"

namespace spider::core {

struct StockDriverConfig {
  std::vector<net::ChannelId> scan_channels{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
};

// A stock join's link-layer timers: the 1 s default.
inline constexpr mac::ClientSessionConfig kStockSession{};
// A stock join's DHCP timers: dhclient's 1 s / 3 s / 60 s defaults (the
// "default" rows of Table 3 / Fig. 11).
inline constexpr dhcpd::DhcpClientConfig kStockDhcp{};
// Silence from the AP after which the stock stack declares the link dead.
inline constexpr sim::Time kStockLinkLossTimeout = sim::Time::seconds(3);

class StockDriver {
 public:
  using ConnectionHandler = std::function<void(net::Bssid, net::ChannelId)>;
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

  const JoinMetrics& metrics() const { return ledger_.metrics; }
  bool connected() const {
    return join_ && join_->state() == VirtualInterface::State::kConnected;
  }
  net::Bssid current_ap() const { return join_ ? join_->bssid() : net::Bssid{}; }

 private:
  void scan_step(std::size_t index);
  // Joins the strongest AP the sweep heard, or sweeps again.
  void finish_scan();
  void teardown(bool lost);
  void watchdog();

  sim::Simulator& sim_;
  ClientDevice& device_;
  StockDriverConfig config_;
  JoinLedger ledger_;
  ConnectionHandler on_connected_;
  DisconnectionHandler on_disconnected_;

  // The one join, from the scan's pick until teardown; null while scanning.
  std::unique_ptr<VirtualInterface> join_;
  sim::Time last_heard_ = sim::Time::zero();
  sim::TimerHandle timer_;      // scan stepping / watchdog
  bool started_ = false;
  std::uint32_t trace_lane_ = 0;  // this driver's join lane while tracing
};

}  // namespace spider::core
