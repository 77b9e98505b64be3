#include "core/join.h"

#include <utility>

#include "core/check.h"

namespace spider::core {
namespace {

// `config` with its spans on `lane`.
template <typename Config>
Config on_lane(Config config, std::uint32_t lane) {
  config.trace_track = lane;
  return config;
}

}  // namespace

JoinLedger::JoinLedger(telemetry::Registry& registry)
    : registry(registry),
      join_attempts(registry.counter("driver.join_attempts")),
      associations(registry.counter("driver.associations")),
      joins(registry.counter("driver.joins")),
      dhcp_attempts(registry.counter("driver.dhcp_attempts")),
      dhcp_attempt_failures(registry.counter("driver.dhcp_attempt_failures")),
      dhcp_failed_joins(registry.counter("driver.dhcp_failed_joins")) {}

VirtualInterface::VirtualInterface(sim::Simulator& simulator,
                                   ClientDevice& device, JoinLedger& ledger,
                                   const ScanEntry& entry,
                                   mac::ClientSessionConfig session,
                                   dhcpd::DhcpClientConfig dhcp,
                                   std::uint32_t trace_lane, JoinHooks hooks)
    : sim_(simulator),
      device_(device),
      ledger_(ledger),
      hooks_(std::move(hooks)),
      bssid_(entry.bssid),
      channel_(entry.channel),
      trace_lane_(trace_lane),
      join_started_(simulator.now()),
      session_(simulator, device.address(), bssid_, channel_,
               [this](const net::Frame& frame) { return send(frame); },
               on_lane(session, trace_lane)),
      dhcp_(simulator, device.address(), bssid_,
            [this](const net::Frame& frame) { return send(frame); },
            on_lane(dhcp, trace_lane)) {
  ++ledger_.metrics.join_attempts;
  ledger_.join_attempts.inc();
  sim_.telemetry().trace().complete("scan", "join", entry.last_seen.us(),
                                    (sim_.now() - entry.last_seen).us(),
                                    trace_lane_);
  session_.set_associated_handler(
      [this](mac::ClientSession&) { on_associated(); });
  dhcp_.set_event_handler([this](dhcpd::DhcpClient&, dhcpd::DhcpEvent event) {
    on_dhcp_event(event);
  });
  device_.register_bssid(bssid_, [this](const net::Frame& frame,
                                        const phy::RxInfo&) {
    if (hooks_.heard) hooks_.heard();
    session_.handle_frame(frame);
    dhcp_.handle_frame(frame);
  });
}

bool VirtualInterface::send(const net::Frame& frame) {
  if (device_.channel() == channel_ && !device_.switching()) {
    return device_.radio().send(frame);
  }
  return false;
}

void VirtualInterface::radio_on_channel() {
  session_.radio_on_channel();
  if (state_ == State::kDhcp) dhcp_.radio_on_channel();
}

void VirtualInterface::end() {
  if (state_ == State::kDhcp) {
    ++ledger_.metrics.dhcp_failed_joins;
    ledger_.dhcp_failed_joins.inc();
  }
  device_.forget_scan(bssid_);
}

void VirtualInterface::on_associated() {
  // Join pipeline ordering: association completes exactly once, from the
  // associating stage; DHCP only starts on top of it.
  SPIDER_CHECK(state_ == State::kAssociating)
      << "association for " << bssid_.to_string() << " in join state "
      << static_cast<int>(state_);
  const double delay_sec = session_.association_delay().sec();
  ++ledger_.metrics.associations;
  ledger_.associations.inc();
  ledger_.metrics.association_delay_sec.add(delay_sec);
  ledger_.registry.histogram("driver.assoc_delay_sec").add(delay_sec);
  state_ = State::kDhcp;
  if (const dhcpd::Lease* cached =
          hooks_.cached_lease ? hooks_.cached_lease() : nullptr) {
    dhcp_.start_with_cached(*cached);
  } else {
    dhcp_.start();
  }
}

void VirtualInterface::on_dhcp_event(dhcpd::DhcpEvent event) {
  // Every attempt window counts once: on bind or on failure.
  ++ledger_.metrics.dhcp_attempts;
  ledger_.dhcp_attempts.inc();
  switch (event) {
    case dhcpd::DhcpEvent::kBound: {
      SPIDER_CHECK(state_ == State::kDhcp)
          << "kBound for " << bssid_.to_string() << " in join state "
          << static_cast<int>(state_);
      SPIDER_CHECK(!dhcp_.lease().ip.is_null())
          << "bound with a null lease on " << bssid_.to_string();
      const sim::Time join_delay = sim_.now() - join_started_;
      ++ledger_.metrics.joins;
      ledger_.joins.inc();
      ledger_.metrics.join_delay_sec.add(join_delay.sec());
      ledger_.registry.histogram("driver.join_delay_sec")
          .add(join_delay.sec());
      // Envelope span over the whole pipeline; the auth/assoc/dhcp sub-spans
      // nest inside it on the same lane.
      sim_.telemetry().trace().complete("join", "join", join_started_.us(),
                                        join_delay.us(), trace_lane_);
      state_ = State::kConnected;
      if (hooks_.bound) hooks_.bound(*this);
      break;
    }
    case dhcpd::DhcpEvent::kAttemptFailed:
      ++failed_windows_;
      ++ledger_.metrics.dhcp_attempt_failures;
      ledger_.dhcp_attempt_failures.inc();
      if (hooks_.window_failed) hooks_.window_failed();
      break;
  }
}

}  // namespace spider::core
