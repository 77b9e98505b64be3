// Client-side per-BSS association state machine ("virtual interface" at the
// MAC level).
//
// A session walks Idle -> Authenticating -> Associating -> Associated using
// the open-system auth + association four-way exchange. Each outstanding
// message is guarded by a link-layer retry timer (the paper's link-layer
// timeout: 1 s stock, 100 ms in Spider's reduced configuration). All
// transmissions go through a driver-supplied Tx function that returns false
// when the shared radio is parked on another channel — the retry timer keeps
// running, so the message goes out on the next on-channel opportunity.
#pragma once

#include <cstdint>
#include <functional>

#include "net/frame.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::mac {

enum class SessionState : std::uint8_t {
  kIdle,
  kAuthenticating,
  kAssociating,
  kAssociated,
};

const char* to_string(SessionState s);

struct ClientSessionConfig {
  // Per-message retry interval (NOT a whole-join timeout).
  sim::Time link_timeout = sim::Time::millis(1000);
  // Telemetry track (Chrome tid) for the auth/assoc spans this session emits
  // when the world's trace recorder is enabled. Drivers assign one track per
  // virtual interface so joins render as parallel lanes in Perfetto.
  std::uint32_t trace_track = 0;
};

class ClientSession {
 public:
  using TxFn = std::function<bool(const net::Frame&)>;
  // Called when the four-way exchange completes.
  using AssociatedFn = std::function<void(ClientSession&)>;

  ClientSession(sim::Simulator& simulator, net::MacAddress self,
                net::Bssid bssid, net::ChannelId channel, TxFn tx,
                ClientSessionConfig config = {});
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  net::Bssid bssid() const { return bssid_; }
  net::ChannelId channel() const { return channel_; }
  SessionState state() const { return state_; }
  bool associated() const { return state_ == SessionState::kAssociated; }

  void set_associated_handler(AssociatedFn handler) {
    on_associated_ = std::move(handler);
  }

  // Begins (or restarts) the join. Valid from any state.
  void start_join();
  // Stops all timers and returns to Idle; sends nothing.
  void abandon();

  // The driver routes every frame whose src is this session's BSSID here.
  void handle_frame(const net::Frame& frame);

  // Driver notification: the radio just (re)arrived on this session's
  // channel. Pending messages are retransmitted immediately instead of
  // waiting out the rest of the retry timer.
  void radio_on_channel();

  // Time any frame was last heard from the AP (for link-loss policies).
  sim::Time last_heard() const { return last_heard_; }
  // Association latency of the most recent successful join.
  sim::Time association_delay() const { return association_delay_; }
  // Message transmissions attempted during the current/most recent join.
  int attempts() const { return attempts_; }

 private:
  void transmit_current();
  void arm_retry_timer();
  void on_retry_timeout();
  void enter(SessionState next);

  sim::Simulator& sim_;
  net::MacAddress self_;
  net::Bssid bssid_;
  net::ChannelId channel_;
  TxFn tx_;
  ClientSessionConfig config_;
  AssociatedFn on_associated_;

  SessionState state_ = SessionState::kIdle;
  sim::TimerHandle retry_timer_;
  sim::Time join_started_ = sim::Time::zero();
  sim::Time auth_done_ = sim::Time::zero();
  sim::Time association_delay_ = sim::Time::zero();
  sim::Time last_heard_ = sim::Time::zero();
  int attempts_ = 0;
  int stage_retries_ = 0;
};

}  // namespace spider::mac
