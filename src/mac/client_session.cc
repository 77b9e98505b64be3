#include "mac/client_session.h"

#include <utility>

#include "core/check.h"

namespace spider::mac {
namespace {

// Consecutive association-stage retries before restarting from auth (the AP
// may have evicted our auth state).
constexpr int kAssocRetriesBeforeReauth = 3;

// Legal association-machine transitions. Any state may restart (start_join
// -> Authenticating) or be torn down (abandon -> Idle); forward progress is
// strictly Auth -> Assoc -> Associated.
bool transition_legal(SessionState from, SessionState to) {
  switch (to) {
    case SessionState::kIdle:
    case SessionState::kAuthenticating:
      return true;
    case SessionState::kAssociating:
      return from == SessionState::kAuthenticating;
    case SessionState::kAssociated:
      return from == SessionState::kAssociating;
  }
  return false;
}

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kAuthenticating: return "Authenticating";
    case SessionState::kAssociating: return "Associating";
    case SessionState::kAssociated: return "Associated";
  }
  SPIDER_UNREACHABLE() << "SessionState " << static_cast<int>(s);
  return "?";
}

ClientSession::ClientSession(sim::Simulator& simulator, net::MacAddress self,
                             net::Bssid bssid, net::ChannelId channel, TxFn tx,
                             ClientSessionConfig config)
    : sim_(simulator),
      self_(self),
      bssid_(bssid),
      channel_(channel),
      tx_(std::move(tx)),
      config_(config) {}

ClientSession::~ClientSession() { retry_timer_.cancel(); }

void ClientSession::enter(SessionState next) {
  SPIDER_CHECK(transition_legal(state_, next))
      << "illegal session transition " << to_string(state_) << " -> "
      << to_string(next) << " (bssid " << bssid_.to_string() << ")";
  // Transition counters go straight to the registry: sessions transition a
  // handful of times per join, so the name lookup is off the hot path.
  telemetry::Registry& metrics = sim_.telemetry().metrics();
  switch (next) {
    case SessionState::kAuthenticating:
      metrics.counter("mac.session.auth_starts").inc();
      break;
    case SessionState::kAssociating:
      metrics.counter("mac.session.assoc_starts").inc();
      break;
    case SessionState::kAssociated:
      metrics.counter("mac.session.associations").inc();
      break;
    case SessionState::kIdle:
      break;
  }
  state_ = next;
  stage_retries_ = 0;
}

void ClientSession::start_join() {
  retry_timer_.cancel();
  join_started_ = sim_.now();
  attempts_ = 0;
  enter(SessionState::kAuthenticating);
  transmit_current();
  arm_retry_timer();
}

void ClientSession::abandon() {
  retry_timer_.cancel();
  enter(SessionState::kIdle);
}

void ClientSession::transmit_current() {
  net::Frame frame;
  switch (state_) {
    case SessionState::kAuthenticating:
      frame = net::make_auth_request(self_, bssid_);
      break;
    case SessionState::kAssociating:
      frame = net::make_assoc_request(self_, bssid_);
      break;
    default:
      return;  // nothing outstanding
  }
  ++attempts_;
  tx_(frame);  // false (off-channel) is fine: the retry timer keeps running
}

void ClientSession::arm_retry_timer() {
  retry_timer_.cancel();
  retry_timer_ = sim_.schedule_after(config_.link_timeout,
                                     [this] { on_retry_timeout(); });
}

void ClientSession::on_retry_timeout() {
  if (state_ != SessionState::kAuthenticating &&
      state_ != SessionState::kAssociating) {
    return;
  }
  ++stage_retries_;
  sim_.telemetry().metrics().counter("mac.session.retries").inc();
  if (state_ == SessionState::kAssociating &&
      stage_retries_ > kAssocRetriesBeforeReauth) {
    // The AP may have dropped our auth state; start over.
    enter(SessionState::kAuthenticating);
  }
  transmit_current();
  arm_retry_timer();
}

void ClientSession::handle_frame(const net::Frame& frame) {
  if (frame.src != bssid_) return;
  last_heard_ = sim_.now();

  switch (frame.kind) {
    case net::FrameKind::kAuthResponse:
      if (state_ == SessionState::kAuthenticating &&
          (frame.dst == self_ || frame.dst.is_broadcast())) {
        auth_done_ = sim_.now();
        enter(SessionState::kAssociating);
        transmit_current();
        arm_retry_timer();
      }
      break;

    case net::FrameKind::kAssocResponse:
      if (state_ == SessionState::kAssociating && frame.dst == self_) {
        retry_timer_.cancel();
        association_delay_ = sim_.now() - join_started_;
        enter(SessionState::kAssociated);
        telemetry::TraceRecorder& trace = sim_.telemetry().trace();
        if (trace.enabled()) {
          // Two back-to-back spans per completed join: [start, auth done)
          // and [auth done, assoc done). Re-auth restarts fold into the
          // auth span (auth_done_ tracks the *last* auth completion).
          trace.complete("auth", "join", join_started_.us(),
                         (auth_done_ - join_started_).us(),
                         config_.trace_track);
          trace.complete("assoc", "join", auth_done_.us(),
                         (sim_.now() - auth_done_).us(), config_.trace_track);
        }
        if (on_associated_) on_associated_(*this);
      }
      break;

    case net::FrameKind::kDisassoc:
      if (frame.dst == self_ || frame.dst.is_broadcast()) {
        abandon();
      }
      break;

    default:
      break;  // beacons / data just refresh last_heard_
  }
}

void ClientSession::radio_on_channel() {
  if (state_ == SessionState::kAuthenticating ||
      state_ == SessionState::kAssociating) {
    transmit_current();
    arm_retry_timer();
  }
}

}  // namespace spider::mac
