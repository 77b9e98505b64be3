#include "core/stock_driver.h"

#include <algorithm>
#include <string>
#include <utility>

namespace spider::core {

StockDriver::StockDriver(sim::Simulator& simulator, ClientDevice& device,
                         StockDriverConfig config)
    : sim_(simulator), device_(device), config_(std::move(config)) {
  // Stock drivers don't park associations around a scan; no PSM lookup.
  device_.set_connected_lookup(
      [](net::ChannelId) { return std::vector<net::Bssid>{}; });
  collector_id_ = sim_.telemetry().add_collector(
      [this](telemetry::Registry& registry) { publish_metrics(registry); });
}

StockDriver::~StockDriver() {
  sim_.telemetry().remove_collector(collector_id_);
  timer_.cancel();
  if (!bssid_.is_null()) device_.unregister_bssid(bssid_);
}

void StockDriver::publish_metrics(telemetry::Registry& registry) {
  const auto publish = [&registry](const char* name, std::uint64_t total,
                                   std::uint64_t& published) {
    registry.counter(name).inc(total - published);
    published = total;
  };
  publish("driver.join_attempts", metrics_.join_attempts,
          published_.join_attempts);
  publish("driver.associations", metrics_.associations,
          published_.associations);
  publish("driver.joins", metrics_.joins, published_.joins);
  publish("driver.dhcp_attempts", metrics_.dhcp_attempts,
          published_.dhcp_attempts);
  publish("driver.dhcp_attempt_failures", metrics_.dhcp_attempt_failures,
          published_.dhcp_attempt_failures);
  publish("driver.dhcp_failed_joins", metrics_.dhcp_failed_joins,
          published_.dhcp_failed_joins);
}

void StockDriver::start() {
  if (started_) return;
  started_ = true;
  telemetry::TraceRecorder& trace = sim_.telemetry().trace();
  if (trace.enabled()) {
    // One lane for every join this driver makes, one join at a time.
    trace_lane_ = trace.open_lane(device_.address().to_string() + " stock",
                                  sim_.now().us());
    config_.session.trace_track = trace_lane_;
    config_.dhcp.trace_track = trace_lane_;
  }
  scan_step(0);
}

void StockDriver::scan_step(std::size_t index) {
  state_ = State::kScanning;
  timer_.cancel();
  if (index >= config_.scan_channels.size()) {
    finish_scan();
    return;
  }
  device_.switch_channel(config_.scan_channels[index],
                         [this] { device_.probe_now(); });
  timer_ = sim_.schedule_after(config_.scan_dwell,
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
  begin_join(*best);
}

void StockDriver::begin_join(const ScanEntry& entry) {
  state_ = State::kJoining;
  bssid_ = entry.bssid;
  channel_ = entry.channel;
  join_started_ = sim_.now();
  last_heard_ = sim_.now();
  dhcp_failures_this_join_ = 0;
  ++metrics_.join_attempts;
  telemetry::TraceRecorder& trace = sim_.telemetry().trace();
  if (trace.enabled()) {
    trace.complete("scan", "join", entry.last_seen.us(),
                   (sim_.now() - entry.last_seen).us(), trace_lane_);
  }

  auto tx = [this](const net::Frame& frame) {
    if (device_.channel() == channel_ && !device_.switching()) {
      return device_.radio().send(frame);
    }
    return false;
  };

  session_ = std::make_unique<mac::ClientSession>(
      sim_, device_.address(), bssid_, channel_, tx, config_.session);
  dhcp_ = std::make_unique<dhcpd::DhcpClient>(sim_, device_.address(), bssid_,
                                              tx, config_.dhcp);

  session_->set_event_handler([this](mac::ClientSession& s, mac::SessionEvent ev) {
    if (ev == mac::SessionEvent::kAssociated) {
      ++metrics_.associations;
      metrics_.association_delay_sec.add(s.association_delay().sec());
      sim_.telemetry()
          .metrics()
          .histogram("driver.assoc_delay_sec")
          .add(s.association_delay().sec());
      dhcp_->start();
    } else {
      sim_.post_after(sim::Time::zero(), [this] { teardown(false); });
    }
  });
  dhcp_->set_event_handler([this](dhcpd::DhcpClient&, dhcpd::DhcpEvent ev) {
    if (ev == dhcpd::DhcpEvent::kBound) {
      ++metrics_.joins;
      ++metrics_.dhcp_attempts;
      const sim::Time join_delay = sim_.now() - join_started_;
      metrics_.join_delay_sec.add(join_delay.sec());
      telemetry::Hub& telemetry = sim_.telemetry();
      telemetry.metrics().histogram("driver.join_delay_sec").add(
          join_delay.sec());
      telemetry.trace().complete("join", "join", join_started_.us(),
                                 join_delay.us(), trace_lane_);
      state_ = State::kConnected;
      last_heard_ = sim_.now();
      if (on_connected_) on_connected_(Connection{bssid_, channel_});
    } else {
      ++metrics_.dhcp_attempts;
      ++metrics_.dhcp_attempt_failures;
      if (++dhcp_failures_this_join_ >= config_.dhcp_windows_before_rescan) {
        sim_.post_after(sim::Time::zero(), [this] { teardown(false); });
      }
    }
  });

  device_.register_bssid(bssid_, [this](const net::Frame& frame,
                                        const phy::RxInfo&) {
    last_heard_ = sim_.now();
    if (session_) session_->handle_frame(frame);
    if (dhcp_) dhcp_->handle_frame(frame);
  });

  device_.switch_channel(channel_, [this] {
    if (session_) session_->start_join();
  });

  timer_.cancel();
  timer_ = sim_.schedule_after(config_.link_loss_timeout, [this] { watchdog(); });
}

void StockDriver::watchdog() {
  if (state_ == State::kScanning) return;
  if (sim_.now() - last_heard_ > config_.link_loss_timeout) {
    teardown(/*lost=*/state_ == State::kConnected);
    return;
  }
  timer_ = sim_.schedule_after(config_.link_loss_timeout, [this] { watchdog(); });
}

void StockDriver::teardown(bool lost) {
  if (state_ == State::kScanning && bssid_.is_null()) return;  // already down
  timer_.cancel();
  if (state_ == State::kJoining && session_ && session_->associated()) {
    ++metrics_.dhcp_failed_joins;  // associated but never got a lease
  }
  const net::Bssid old = bssid_;
  if (!old.is_null()) {
    device_.unregister_bssid(old);
    device_.forget_scan(old);
  }
  session_.reset();
  dhcp_.reset();
  bssid_ = net::Bssid{};
  state_ = State::kScanning;
  if (lost && on_disconnected_) on_disconnected_(old);
  timer_ = sim_.schedule_after(config_.rejoin_delay, [this] { scan_step(0); });
}

}  // namespace spider::core
