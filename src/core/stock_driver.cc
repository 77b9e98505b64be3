#include "core/stock_driver.h"

#include <algorithm>
#include <string>
#include <utility>

namespace spider::core {
namespace {

// Time on each channel of a sweep scan.
constexpr sim::Time kScanDwell = sim::Time::millis(150);
// DHCP attempt windows tolerated before abandoning the AP. The value
// mirrors dhclient's behaviour: after the 3 s window fails it idles 60 s
// while the Wi-Fi layer stays associated — so a dud AP effectively holds
// the client until link loss ends the encounter.
constexpr int kDhcpWindowsBeforeRescan = 99;
// Settle time before the stack rescans after a failed or lost
// connection (supplicant/dhclient restart churn on 2011 stacks).
constexpr sim::Time kRejoinDelay = sim::Time::seconds(2);

}  // namespace

StockDriver::StockDriver(sim::Simulator& simulator, ClientDevice& device,
                         StockDriverConfig config)
    : sim_(simulator),
      device_(device),
      config_(std::move(config)),
      ledger_(simulator.telemetry().metrics()) {
  // Stock drivers don't park associations around a scan; no PSM lookup.
  device_.set_connected_lookup(
      [](net::ChannelId) { return std::vector<net::Bssid>{}; });
}

StockDriver::~StockDriver() { timer_.cancel(); }

void StockDriver::start() {
  if (started_) return;
  started_ = true;
  telemetry::TraceRecorder& trace = sim_.telemetry().trace();
  if (trace.enabled()) {
    // One lane for every join this driver makes, one join at a time.
    trace_lane_ = trace.open_lane(device_.address().to_string() + " stock",
                                  sim_.now().us());
  }
  scan_step(0);
}

void StockDriver::scan_step(std::size_t index) {
  timer_.cancel();
  if (index >= config_.scan_channels.size()) {
    finish_scan();
    return;
  }
  device_.switch_channel(config_.scan_channels[index],
                         [this] { device_.probe_now(); });
  timer_ = sim_.schedule_after(kScanDwell,
                               [this, index] { scan_step(index + 1); });
}

void StockDriver::finish_scan() {
  auto results = device_.scan_results();
  if (results.empty()) {
    // Nothing heard anywhere; sweep again.
    scan_step(0);
    return;
  }
  const auto best = std::max_element(
      results.begin(), results.end(),
      [](const ScanEntry& a, const ScanEntry& b) { return a.rssi_dbm < b.rssi_dbm; });
  last_heard_ = sim_.now();
  JoinHooks hooks;
  hooks.heard = [this] { last_heard_ = sim_.now(); };
  hooks.bound = [this](const VirtualInterface& join) {
    if (on_connected_) on_connected_(join.bssid(), join.channel());
  };
  hooks.window_failed = [this] {
    if (join_->failed_windows() >= kDhcpWindowsBeforeRescan) {
      sim_.post_after(sim::Time::zero(), [this] { teardown(false); });
    }
  };
  join_ = std::make_unique<VirtualInterface>(sim_, device_, ledger_, *best,
                                             kStockSession, kStockDhcp,
                                             trace_lane_, std::move(hooks));
  device_.switch_channel(join_->channel(), [this] {
    if (join_) join_->start();
  });

  timer_.cancel();
  timer_ = sim_.schedule_after(kStockLinkLossTimeout, [this] { watchdog(); });
}

void StockDriver::watchdog() {
  if (!join_) return;
  if (sim_.now() - last_heard_ > kStockLinkLossTimeout) {
    teardown(/*lost=*/connected());
    return;
  }
  timer_ = sim_.schedule_after(kStockLinkLossTimeout, [this] { watchdog(); });
}

void StockDriver::teardown(bool lost) {
  if (!join_) return;  // already down
  timer_.cancel();
  const net::Bssid old = join_->bssid();
  join_->end();
  join_.reset();
  if (lost && on_disconnected_) on_disconnected_(old);
  timer_ = sim_.schedule_after(kRejoinDelay, [this] { scan_step(0); });
}

}  // namespace spider::core
