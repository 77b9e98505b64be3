#include "dhcpd/dhcp_client.h"

#include <utility>
#include <variant>

#include "core/check.h"

namespace spider::dhcpd {
namespace {

// Legal DHCP-machine transitions. Teardown (-> Idle) is allowed from
// anywhere; discovery restarts from Idle/Backoff and from Requesting on a
// NAK; Requesting is reachable from discovery, from a late OFFER landing in
// Backoff, and directly from Idle via INIT-REBOOT; only Requesting binds.
bool transition_legal(DhcpState from, DhcpState to) {
  switch (to) {
    case DhcpState::kIdle:
      return true;
    case DhcpState::kDiscovering:
      return from == DhcpState::kIdle || from == DhcpState::kBackoff ||
             from == DhcpState::kRequesting;
    case DhcpState::kRequesting:
      return from == DhcpState::kIdle || from == DhcpState::kDiscovering ||
             from == DhcpState::kBackoff;
    case DhcpState::kBound:
      return from == DhcpState::kRequesting;
    case DhcpState::kBackoff:
      return from == DhcpState::kDiscovering ||
             from == DhcpState::kRequesting;
  }
  return false;
}

}  // namespace

const char* to_string(DhcpState s) {
  switch (s) {
    case DhcpState::kIdle: return "Idle";
    case DhcpState::kDiscovering: return "Discovering";
    case DhcpState::kRequesting: return "Requesting";
    case DhcpState::kBound: return "Bound";
    case DhcpState::kBackoff: return "Backoff";
  }
  SPIDER_UNREACHABLE() << "DhcpState " << static_cast<int>(s);
  return "?";
}

DhcpClientConfig default_dhcp_timers() {
  return DhcpClientConfig{};  // 1 s / 3 s / 60 s
}

DhcpClientConfig reduced_dhcp_timers(sim::Time message_timeout) {
  DhcpClientConfig c;
  c.message_timeout = message_timeout;
  // Short attempt window: four message timeouts, then a brief pause — the
  // aggressive rejoin loop a mobile client needs.
  c.attempt_duration = message_timeout * std::int64_t{4};
  c.idle_after_failure = sim::Time::millis(500);
  return c;
}

DhcpClient::DhcpClient(sim::Simulator& simulator, net::MacAddress self,
                       net::Bssid bssid, TxFn tx, DhcpClientConfig config)
    : sim_(simulator),
      self_(self),
      bssid_(bssid),
      tx_(std::move(tx)),
      config_(config) {}

DhcpClient::~DhcpClient() {
  message_timer_.cancel();
  attempt_timer_.cancel();
}

void DhcpClient::start() {
  abandon();
  started_ = sim_.now();
  failed_attempts_ = 0;
  messages_sent_ = 0;
  begin_attempt();
}

void DhcpClient::start_with_cached(const Lease& cached) {
  abandon();
  started_ = sim_.now();
  failed_attempts_ = 0;
  messages_sent_ = 0;
  transaction_id_ = static_cast<std::uint32_t>(
      (self_.value() << 8) ^ static_cast<std::uint64_t>(sim_.now().us()) ^
      0x1B07u);
  SPIDER_CHECK(!cached.ip.is_null())
      << "INIT-REBOOT with a null cached lease for " << bssid_.to_string();
  offered_ip_ = cached.ip;
  server_ip_ = cached.server;
  sim_.telemetry().metrics().counter("dhcp.attempt_windows").inc();
  sim_.telemetry().metrics().counter("dhcp.init_reboots").inc();
  enter(DhcpState::kRequesting);
  transmit_current();
  arm_message_timer();
  attempt_timer_.cancel();
  attempt_timer_ = sim_.schedule_after(config_.attempt_duration,
                                       [this] { on_attempt_expired(); });
}

void DhcpClient::enter(DhcpState next) {
  SPIDER_CHECK(transition_legal(state_, next))
      << "illegal DHCP transition " << to_string(state_) << " -> "
      << to_string(next) << " (bssid " << bssid_.to_string() << ", xid "
      << transaction_id_ << ")";
  state_ = next;
}

void DhcpClient::abandon() {
  message_timer_.cancel();
  attempt_timer_.cancel();
  enter(DhcpState::kIdle);
}

void DhcpClient::begin_attempt() {
  // Fresh transaction per attempt window, as dhclient restarts do. An OFFER
  // answering a previous window's DISCOVER is stale and will be ignored —
  // one of the reasons fractional channel schedules are so hostile to DHCP.
  // (An offer arriving during the *backoff* after its own window still
  // matches and is honoured; see handle_frame.)
  transaction_id_ = static_cast<std::uint32_t>(
      (self_.value() << 8) ^ static_cast<std::uint64_t>(sim_.now().us()));
  offered_ip_ = net::Ipv4Address{};
  server_ip_ = net::Ipv4Address{};
  sim_.telemetry().metrics().counter("dhcp.attempt_windows").inc();
  enter(DhcpState::kDiscovering);
  transmit_current();
  arm_message_timer();
  attempt_timer_.cancel();
  attempt_timer_ = sim_.schedule_after(config_.attempt_duration,
                                       [this] { on_attempt_expired(); });
}

void DhcpClient::transmit_current() {
  net::DhcpMessage msg;
  msg.transaction_id = transaction_id_;
  msg.client_mac = self_;
  switch (state_) {
    case DhcpState::kDiscovering:
      msg.kind = net::DhcpMessage::Kind::kDiscover;
      sim_.telemetry().metrics().counter("dhcp.discover_sent").inc();
      break;
    case DhcpState::kRequesting:
      msg.kind = net::DhcpMessage::Kind::kRequest;
      msg.offered_ip = offered_ip_;
      msg.server_ip = server_ip_;
      sim_.telemetry().metrics().counter("dhcp.request_sent").inc();
      break;
    default:
      return;
  }
  ++messages_sent_;
  tx_(net::make_dhcp_frame(self_, bssid_, bssid_, msg));
}

void DhcpClient::arm_message_timer() {
  message_timer_.cancel();
  message_timer_ = sim_.schedule_after(config_.message_timeout,
                                       [this] { on_message_timeout(); });
}

void DhcpClient::on_message_timeout() {
  if (state_ != DhcpState::kDiscovering && state_ != DhcpState::kRequesting)
    return;
  sim_.telemetry().metrics().counter("dhcp.message_timeouts").inc();
  transmit_current();
  arm_message_timer();
}

void DhcpClient::on_attempt_expired() {
  if (state_ == DhcpState::kBound || state_ == DhcpState::kIdle) return;
  message_timer_.cancel();
  ++failed_attempts_;
  sim_.telemetry().metrics().counter("dhcp.attempt_failures").inc();
  enter(DhcpState::kBackoff);
  if (event_handler_) event_handler_(*this, DhcpEvent::kAttemptFailed);
  if (state_ != DhcpState::kBackoff) return;  // handler may have abandoned us
  attempt_timer_.cancel();
  attempt_timer_ = sim_.schedule_after(config_.idle_after_failure,
                                       [this] { begin_attempt(); });
}

void DhcpClient::handle_frame(const net::Frame& frame) {
  if (frame.src != bssid_ || frame.dst != self_) return;
  const auto* msg = frame.payload.get_if<net::DhcpMessage>();
  if (msg == nullptr || msg->transaction_id != transaction_id_) return;
  // Past the filter above, everything we act on carries our current xid —
  // the consistency the stale-OFFER logic in begin_attempt() relies on.
  SPIDER_DCHECK(msg->client_mac == self_)
      << "xid " << msg->transaction_id << " matched but client mac "
      << msg->client_mac.to_string() << " is not ours";

  switch (msg->kind) {
    case net::DhcpMessage::Kind::kOffer:
      // A late OFFER that lands during backoff is still a lease opportunity
      // (the radio may simply have been elsewhere when it first arrived).
      if (state_ == DhcpState::kDiscovering || state_ == DhcpState::kBackoff) {
        const bool was_backoff = state_ == DhcpState::kBackoff;
        SPIDER_CHECK(!msg->offered_ip.is_null())
            << "OFFER with null address from " << bssid_.to_string();
        offered_ip_ = msg->offered_ip;
        server_ip_ = msg->server_ip;
        enter(DhcpState::kRequesting);
        transmit_current();
        arm_message_timer();
        if (was_backoff) {
          attempt_timer_.cancel();
          attempt_timer_ = sim_.schedule_after(config_.attempt_duration,
                                               [this] { on_attempt_expired(); });
        }
      }
      break;

    case net::DhcpMessage::Kind::kAck:
      if (state_ == DhcpState::kRequesting) {
        message_timer_.cancel();
        attempt_timer_.cancel();
        // Lease consistency: the ACK must confirm the address we requested;
        // a server re-assigning mid-exchange must NAK instead.
        SPIDER_CHECK(!msg->offered_ip.is_null() &&
                     msg->offered_ip == offered_ip_)
            << "ACK for " << msg->offered_ip.to_string()
            << " but we requested " << offered_ip_.to_string() << " (xid "
            << transaction_id_ << ")";
        lease_ = Lease{msg->offered_ip, msg->server_ip, msg->lease_duration,
                       sim_.now()};
        acquisition_delay_ = sim_.now() - started_;
        telemetry::Hub& telemetry = sim_.telemetry();
        telemetry.metrics().counter("dhcp.bound").inc();
        telemetry.metrics()
            .histogram("dhcp.acquisition_delay_sec")
            .add(acquisition_delay_.sec());
        telemetry.trace().complete("dhcp", "join", started_.us(),
                                   acquisition_delay_.us(),
                                   config_.trace_track);
        enter(DhcpState::kBound);
        if (event_handler_) event_handler_(*this, DhcpEvent::kBound);
      }
      break;

    case net::DhcpMessage::Kind::kNak:
      if (state_ == DhcpState::kRequesting) {
        // Stale offer; restart discovery within the same attempt window.
        sim_.telemetry().metrics().counter("dhcp.naks").inc();
        enter(DhcpState::kDiscovering);
        offered_ip_ = net::Ipv4Address{};
        transmit_current();
        arm_message_timer();
      }
      break;

    case net::DhcpMessage::Kind::kDiscover:
    case net::DhcpMessage::Kind::kRequest:
      break;  // client-originated kinds
  }
}

void DhcpClient::radio_on_channel() {
  if (state_ == DhcpState::kDiscovering || state_ == DhcpState::kRequesting) {
    transmit_current();
    arm_message_timer();
  }
}

}  // namespace spider::dhcpd
