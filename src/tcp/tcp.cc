#include "tcp/tcp.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace spider::tcp {
namespace {

constexpr double kInitialCwndSegments = 3.0;
// RFC 6298 timer: the first RTO before any RTT sample, and the clamp on
// every later one.
constexpr sim::Time kInitialRto = sim::Time::seconds(1);
constexpr sim::Time kMinRto = sim::Time::millis(200);
constexpr sim::Time kMaxRto = sim::Time::seconds(60);

}  // namespace

// --- Sender ------------------------------------------------------------------

TcpSender::TcpSender(sim::Simulator& simulator, std::uint64_t flow_id,
                     SendFn send, std::int64_t total_bytes, TcpConfig config)
    : sim_(simulator),
      flow_id_(flow_id),
      send_(std::move(send)),
      total_bytes_(total_bytes < 0 ? std::numeric_limits<std::int64_t>::max()
                                   : total_bytes),
      config_(config),
      cwnd_(kInitialCwndSegments),
      rto_(kInitialRto) {}

TcpSender::~TcpSender() { rto_timer_.cancel(); }

bool TcpSender::finished() const { return snd_una_ >= total_bytes_; }

std::int64_t TcpSender::window_bytes() const {
  const double win_segments =
      std::min(cwnd_, static_cast<double>(config_.receive_window_segments));
  return static_cast<std::int64_t>(win_segments) * net::kTcpMssBytes;
}

std::int64_t TcpSender::segment_len(std::int64_t seq) const {
  return std::min<std::int64_t>(net::kTcpMssBytes, total_bytes_ - seq);
}

void TcpSender::start() { try_send(); }

void TcpSender::emit(std::int64_t seq, bool retransmit) {
  net::TcpSegment segment;
  segment.flow_id = flow_id_;
  segment.from_sender = true;
  segment.seq = seq;
  segment.payload_bytes = segment_len(seq);
  segment.ts = sim_.now();
  if (retransmit) ++retransmissions_;
  send_(segment);
}

void TcpSender::try_send() {
  const std::int64_t limit = std::min(snd_una_ + window_bytes(), total_bytes_);
  while (snd_nxt_ < limit) {
    emit(snd_nxt_, /*retransmit=*/false);
    snd_nxt_ += segment_len(snd_nxt_);
  }
  if (snd_una_ < snd_nxt_ && !rto_timer_.pending()) arm_rto();
}

void TcpSender::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = sim_.schedule_after(rto_, [this] { on_rto(); });
}

void TcpSender::sample_rtt(sim::Time rtt) {
  if (srtt_.is_zero()) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    const sim::Time err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + rtt * 0.125;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

void TcpSender::on_ack(const net::TcpSegment& ack) {
  if (ack.ack < 0) return;

  if (ack.has_ts_echo) sample_rtt(sim_.now() - ack.ts_echo);

  if (ack.ack > snd_una_) {  // new data acked
    const std::int64_t acked = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    dupacks_ = 0;
    const double acked_segments =
        static_cast<double>(acked) / net::kTcpMssBytes;
    if (cwnd_ < ssthresh_) {
      cwnd_ += acked_segments;  // slow start
    } else {
      cwnd_ += acked_segments / cwnd_;  // congestion avoidance
    }
    if (snd_una_ >= snd_nxt_) {
      rto_timer_.cancel();  // everything in flight is acked
    } else {
      arm_rto();  // restart for the remaining flight
    }
    try_send();
  } else if (ack.ack == snd_una_ && snd_una_ < snd_nxt_) {
    ++dupacks_;
    if (dupacks_ == 3) {
      // Fast retransmit + (simplified) fast recovery.
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      emit(snd_una_, /*retransmit=*/true);
      arm_rto();
    }
  }
}

void TcpSender::on_rto() {
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding
  ++timeouts_;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  rto_ = std::min(rto_ * 2, kMaxRto);  // Karn backoff
  // Go-back-N from the loss point: retransmit the first unacked segment and
  // let acks clock out the rest.
  snd_nxt_ = snd_una_ + segment_len(snd_una_);
  emit(snd_una_, /*retransmit=*/true);
  arm_rto();
}

// --- Receiver ------------------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Simulator& simulator, std::uint64_t flow_id,
                         SendFn send, TcpConfig config)
    : sim_(simulator),
      flow_id_(flow_id),
      send_(std::move(send)),
      config_(config) {}

void TcpReceiver::on_segment(const net::TcpSegment& segment) {
  if (!segment.from_sender || segment.payload_bytes <= 0) return;

  const std::int64_t seg_end = segment.seq + segment.payload_bytes;
  const std::int64_t before = rcv_next_;

  if (segment.seq <= rcv_next_ && seg_end > rcv_next_) {
    rcv_next_ = seg_end;
    // Merge any buffered out-of-order runs that are now contiguous.
    for (auto it = ooo_.begin(); it != ooo_.end();) {
      if (it->first > rcv_next_) break;
      rcv_next_ = std::max(rcv_next_, it->second);
      it = ooo_.erase(it);
    }
  } else if (segment.seq > rcv_next_) {
    ++out_of_order_;
    auto [it, inserted] = ooo_.emplace(segment.seq, seg_end);
    if (!inserted) it->second = std::max(it->second, seg_end);
  }
  // else: fully duplicate segment; just re-ack.

  if (on_delivered_ && rcv_next_ > before) on_delivered_(rcv_next_ - before);

  net::TcpSegment ack;
  ack.flow_id = flow_id_;
  ack.from_sender = false;
  ack.ack = rcv_next_;
  ack.ts = sim_.now();
  ack.ts_echo = segment.ts;
  ack.has_ts_echo = true;
  ++acks_sent_;
  send_(ack);
}

// --- Content server ------------------------------------------------------------

ContentServer::ContentServer(sim::Simulator& simulator, TcpConfig config)
    : sim_(simulator), config_(config) {}

void ContentServer::handle_segment(const net::TcpSegment& segment,
                                   ReplyFn reply) {
  if (segment.from_sender) {
    // Client-originated data: an upload. Open the sink on the first (syn)
    // segment; later segments just feed it.
    auto it = receivers_.find(segment.flow_id);
    if (it == receivers_.end()) {
      if (!segment.syn) return;  // data for an upload we never opened
      auto receiver = std::make_unique<TcpReceiver>(
          sim_, segment.flow_id, std::move(reply), config_);
      it = receivers_.emplace(segment.flow_id, std::move(receiver)).first;
    }
    it->second->on_segment(segment);
    return;
  }

  auto it = senders_.find(segment.flow_id);
  if (it == senders_.end()) {
    if (!segment.syn) return;  // ack for a flow we already tore down
    auto sender = std::make_unique<TcpSender>(sim_, segment.flow_id,
                                              std::move(reply),
                                              /*total_bytes=*/-1, config_);
    auto* raw = sender.get();
    senders_.emplace(segment.flow_id, std::move(sender));
    raw->start();
    return;
  }
  it->second->on_ack(segment);
}

void ContentServer::remove_flow(std::uint64_t flow_id) {
  senders_.erase(flow_id);
  receivers_.erase(flow_id);
}

std::int64_t ContentServer::upload_bytes(std::uint64_t flow_id) const {
  auto it = receivers_.find(flow_id);
  return it == receivers_.end() ? 0 : it->second->bytes_in_order();
}

const TcpSender* ContentServer::find(std::uint64_t flow_id) const {
  auto it = senders_.find(flow_id);
  return it == senders_.end() ? nullptr : it->second.get();
}

}  // namespace spider::tcp
