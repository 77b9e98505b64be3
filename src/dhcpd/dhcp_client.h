// Client-side DHCP state machine, one per joined AP.
//
// Mirrors the two retry regimes the paper studies:
//   * stock:   per-message timeout 1 s, keep trying for 3 s, then go idle for
//              60 s before the next attempt;
//   * reduced: per-message timeout 100-600 ms, short attempt window — the
//              Cabernet-style tuning Spider adopts (and whose failure-rate
//              cost Table 3 quantifies).
//
// Like the association machine, all sends go through a driver-gated Tx
// function; sending while the radio is elsewhere is a silent no-op and the
// timers carry the retry.
#pragma once

#include <cstdint>
#include <functional>

#include "net/addr.h"
#include "net/frame.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::dhcpd {

enum class DhcpState : std::uint8_t {
  kIdle,
  kDiscovering,   // DISCOVER sent, waiting for OFFER
  kRequesting,    // REQUEST sent, waiting for ACK
  kBound,
  kBackoff,       // attempt window expired; idling before retry
};

const char* to_string(DhcpState s);

enum class DhcpEvent : std::uint8_t {
  kBound,          // lease acquired
  kAttemptFailed,  // one attempt window expired without a lease
};

struct DhcpClientConfig {
  sim::Time message_timeout = sim::Time::millis(1000);
  sim::Time attempt_duration = sim::Time::seconds(3);
  sim::Time idle_after_failure = sim::Time::seconds(60);
  // Telemetry track for the "dhcp" span emitted when a lease binds while the
  // world's trace recorder is enabled (same lane as the owning interface's
  // auth/assoc spans).
  std::uint32_t trace_track = 0;
};

// Stock timers (the "default" rows of Table 3 / Fig. 11).
DhcpClientConfig default_dhcp_timers();
// Reduced timers with the given per-message timeout (200/400/600 ms rows).
DhcpClientConfig reduced_dhcp_timers(sim::Time message_timeout);

struct Lease {
  net::Ipv4Address ip;
  net::Ipv4Address server;
  sim::Time duration = sim::Time::zero();
  sim::Time acquired_at = sim::Time::zero();
};

class DhcpClient {
 public:
  using TxFn = std::function<bool(const net::Frame&)>;
  using EventFn = std::function<void(DhcpClient&, DhcpEvent)>;

  DhcpClient(sim::Simulator& simulator, net::MacAddress self, net::Bssid bssid,
             TxFn tx, DhcpClientConfig config = {});
  ~DhcpClient();

  DhcpClient(const DhcpClient&) = delete;
  DhcpClient& operator=(const DhcpClient&) = delete;

  DhcpState state() const { return state_; }
  bool bound() const { return state_ == DhcpState::kBound; }
  const Lease& lease() const { return lease_; }
  net::Bssid bssid() const { return bssid_; }

  void set_event_handler(EventFn handler) { event_handler_ = std::move(handler); }

  // Starts lease acquisition (call after association succeeds).
  void start();
  // INIT-REBOOT (RFC 2131 §3.2): we hold a previously issued lease for
  // this AP, so skip DISCOVER/OFFER and go straight to REQUEST. If the
  // server NAKs (lease reassigned), falls back to full discovery within
  // the same acquisition. This is the "caching dhcp leases" technique the
  // paper's Section 2.1.2 calls essential for multi-AP systems.
  void start_with_cached(const Lease& cached);
  void abandon();

  // Route DHCP data frames from this BSSID here.
  void handle_frame(const net::Frame& frame);
  // Radio returned to our channel: retransmit the outstanding message now.
  void radio_on_channel();

  // Time from start() to kBound for the last successful acquisition.
  sim::Time acquisition_delay() const { return acquisition_delay_; }
  int failed_attempts() const { return failed_attempts_; }
  int messages_sent() const { return messages_sent_; }

 private:
  // Sole write path for state_; SPIDER_CHECKs the transition's legality.
  void enter(DhcpState next);
  void begin_attempt();
  void transmit_current();
  void arm_message_timer();
  void on_message_timeout();
  void on_attempt_expired();

  sim::Simulator& sim_;
  net::MacAddress self_;
  net::Bssid bssid_;
  TxFn tx_;
  DhcpClientConfig config_;
  EventFn event_handler_;

  DhcpState state_ = DhcpState::kIdle;
  sim::TimerHandle message_timer_;
  sim::TimerHandle attempt_timer_;
  std::uint32_t transaction_id_ = 0;
  net::Ipv4Address offered_ip_;
  net::Ipv4Address server_ip_;
  Lease lease_;
  sim::Time started_ = sim::Time::zero();
  sim::Time acquisition_delay_ = sim::Time::zero();
  int failed_attempts_ = 0;
  int messages_sent_ = 0;
};

}  // namespace spider::dhcpd
