// Simplified TCP Reno.
//
// Enough of TCP to reproduce the paper's transport-level effects: slow
// start, AIMD congestion avoidance, triple-duplicate-ack fast retransmit,
// and — critically for Figs. 7/8 — an RFC 6298-style retransmission timer
// with exponential backoff. When a virtualized client parks an AP and stops
// acking, the sender's RTO fires, cwnd collapses to one segment, and the
// connection must climb out of slow start after the client returns; that
// dynamic is what makes multi-channel schedules strangle throughput.
//
// Segments carry a timestamp that the receiver echoes (RFC 1323 style), so
// RTT samples stay valid across retransmissions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "net/frame.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::tcp {

struct TcpConfig {
  int receive_window_segments = 512;  // ~750 KB (autotuned receive windows)
};

// --- Sender ------------------------------------------------------------------

class TcpSender {
 public:
  using SendFn = std::function<void(const net::TcpSegment&)>;

  // total_bytes < 0 streams forever (bulk HTTP download of a huge file).
  TcpSender(sim::Simulator& simulator, std::uint64_t flow_id, SendFn send,
            std::int64_t total_bytes = -1, TcpConfig config = {});
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  void start();
  void on_ack(const net::TcpSegment& ack);

  std::uint64_t flow_id() const { return flow_id_; }
  bool finished() const;
  std::int64_t bytes_acked() const { return snd_una_; }
  double cwnd_segments() const { return cwnd_; }
  sim::Time current_rto() const { return rto_; }
  sim::Time smoothed_rtt() const { return srtt_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }

 private:
  void try_send();
  void emit(std::int64_t seq, bool retransmit);
  void arm_rto();
  void on_rto();
  void sample_rtt(sim::Time rtt);
  std::int64_t window_bytes() const;
  std::int64_t segment_len(std::int64_t seq) const;

  sim::Simulator& sim_;
  std::uint64_t flow_id_;
  SendFn send_;
  std::int64_t total_bytes_;
  TcpConfig config_;

  std::int64_t snd_una_ = 0;   // first unacked byte
  std::int64_t snd_nxt_ = 0;   // next new byte to send
  double cwnd_;
  double ssthresh_ = 1e18;
  int dupacks_ = 0;
  sim::Time srtt_ = sim::Time::zero();   // zero = no sample yet
  sim::Time rttvar_ = sim::Time::zero();
  sim::Time rto_;
  sim::TimerHandle rto_timer_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
};

// --- Receiver ------------------------------------------------------------------

class TcpReceiver {
 public:
  using SendFn = std::function<void(const net::TcpSegment&)>;
  // (newly in-order bytes, now) — throughput accounting hook.
  using DeliveryFn = std::function<void(std::int64_t)>;

  TcpReceiver(sim::Simulator& simulator, std::uint64_t flow_id, SendFn send,
              TcpConfig config = {});

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  void set_delivery_handler(DeliveryFn fn) { on_delivered_ = std::move(fn); }

  void on_segment(const net::TcpSegment& segment);

  std::int64_t bytes_in_order() const { return rcv_next_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t out_of_order_segments() const { return out_of_order_; }

 private:
  sim::Simulator& sim_;
  std::uint64_t flow_id_;
  SendFn send_;
  TcpConfig config_;
  DeliveryFn on_delivered_;

  std::int64_t rcv_next_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;  // start -> end (exclusive)
  std::uint64_t acks_sent_ = 0;
  std::uint64_t out_of_order_ = 0;
};

// --- Content server ------------------------------------------------------------

// The wired-side endpoint. Downloads: the first uplink segment with `syn`
// (the HTTP GET) spawns a bulk TcpSender whose reply path is captured per
// flow, pinning each connection to the AP it was opened through — the
// per-AP NAT behaviour that makes multi-AP clients carry one TCP
// connection per AP. Uploads: a data segment with `syn` spawns a
// TcpReceiver (the POST sink) that acks back down the same path.
class ContentServer {
 public:
  using ReplyFn = std::function<void(const net::TcpSegment&)>;

  explicit ContentServer(sim::Simulator& simulator, TcpConfig config = {});

  ContentServer(const ContentServer&) = delete;
  ContentServer& operator=(const ContentServer&) = delete;

  // Uplink entry: request segments open download flows; acks feed the
  // flow's sender; client data segments feed (or open) upload sinks.
  void handle_segment(const net::TcpSegment& segment, ReplyFn reply);
  void remove_flow(std::uint64_t flow_id);

  std::size_t active_flows() const { return senders_.size(); }
  std::size_t active_uploads() const { return receivers_.size(); }
  const TcpSender* find(std::uint64_t flow_id) const;
  // Bytes received in-order on an upload flow (0 if unknown).
  std::int64_t upload_bytes(std::uint64_t flow_id) const;

 private:
  sim::Simulator& sim_;
  TcpConfig config_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TcpSender>> senders_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TcpReceiver>> receivers_;
};

}  // namespace spider::tcp
