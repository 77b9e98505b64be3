#include "core/flow_manager.h"

#include <utility>
#include <variant>

namespace spider::core {

FlowManager::FlowManager(sim::Simulator& simulator, ClientDevice& device,
                         tcp::TcpConfig config)
    : sim_(simulator), device_(device), config_(config) {
  // Flow ids are namespaced by the client MAC so several clients can share
  // one content server without collisions.
  next_flow_id_ = (device.address().value() << 16) | 1u;
}

void FlowManager::install_tap() {
  device_.set_default_handler(
      [this](const net::Frame& f, const phy::RxInfo&) { handle_frame(f); });
}

void FlowManager::open_flow(net::Bssid bssid, net::ChannelId channel) {
  if (by_bssid_.contains(bssid)) return;
  const std::uint64_t id = next_flow_id_++;
  ++flows_opened_;

  auto send = [this, bssid, channel](const net::TcpSegment& seg) {
    device_.enqueue(channel, net::make_tcp_frame(device_.address(), bssid,
                                                 bssid, seg));
  };
  Flow flow{id, bssid, channel,
            std::make_unique<tcp::TcpReceiver>(sim_, id, send, config_),
            sim_.now()};
  rates_[bssid] = RateRecord{0, sim_.now(), rates_[bssid].last_rate_bps};
  flow.receiver->set_delivery_handler([this, bssid](std::int64_t bytes) {
    total_bytes_ += bytes;
    rates_[bssid].bytes += bytes;
    if (on_delivered_) on_delivered_(bytes);
  });

  // The "HTTP GET": a SYN from the receiver side opens the server stream.
  net::TcpSegment syn;
  syn.flow_id = id;
  syn.from_sender = false;
  syn.syn = true;
  syn.ts = sim_.now();
  send(syn);

  by_bssid_.emplace(bssid, id);
  flows_.emplace(id, std::move(flow));
}

void FlowManager::close_flow(net::Bssid bssid) {
  // Freeze the rate estimate before dropping state.
  if (auto rit = rates_.find(bssid); rit != rates_.end()) {
    const double elapsed = (sim_.now() - rit->second.since).sec();
    if (elapsed > 0.5) {
      rit->second.last_rate_bps =
          static_cast<double>(rit->second.bytes) * 8.0 / elapsed;
    }
  }
  if (auto it = by_bssid_.find(bssid); it != by_bssid_.end()) {
    const std::uint64_t id = it->second;
    by_bssid_.erase(it);
    flows_.erase(id);
    if (on_closed_) on_closed_(id);
  }
  // Uploads riding the lost AP die with it, closed in flow-id order so the
  // on_closed_ callbacks (and anything the owner does in them) replay
  // identically. Stepping by upper_bound survives a callback that touches
  // uploads_.
  for (auto it = uploads_.begin(); it != uploads_.end();) {
    const std::uint64_t id = it->first;
    if (it->second.bssid == bssid) {
      uploads_.erase(it);
      if (on_closed_) on_closed_(id);
    }
    it = uploads_.upper_bound(id);
  }
}

std::vector<std::uint64_t> FlowManager::start_striped_upload(
    const std::vector<UploadShare>& shares, std::int64_t total_bytes) {
  std::vector<std::uint64_t> ids;
  double weight_sum = 0.0;
  for (const auto& s : shares) weight_sum += s.weight;
  if (weight_sum <= 0.0 || total_bytes <= 0) return ids;

  for (const auto& s : shares) {
    const auto bytes =
        static_cast<std::int64_t>(total_bytes * (s.weight / weight_sum));
    if (bytes <= 0) continue;
    const std::uint64_t id = next_flow_id_++;
    auto send = [this, bssid = s.bssid,
                 channel = s.channel](const net::TcpSegment& seg_in) {
      net::TcpSegment seg = seg_in;
      seg.syn = seg.seq == 0;  // first segment opens the server-side sink
      device_.enqueue(channel, net::make_tcp_frame(device_.address(), bssid,
                                                   bssid, seg));
    };
    Upload up{id, s.bssid,
              std::make_unique<tcp::TcpSender>(sim_, id, send, bytes, config_)};
    auto* raw = up.sender.get();
    uploads_.emplace(id, std::move(up));
    ids.push_back(id);
    raw->start();
  }
  return ids;
}

std::int64_t FlowManager::upload_bytes_acked() const {
  std::int64_t total = 0;
  for (const auto& [id, up] : uploads_) total += up.sender->bytes_acked();
  return total;
}

bool FlowManager::uploads_finished() const {
  for (const auto& [id, up] : uploads_) {
    if (!up.sender->finished()) return false;
  }
  return true;
}

double FlowManager::download_rate_bps(net::Bssid bssid) const {
  auto it = rates_.find(bssid);
  if (it == rates_.end()) return 0.0;
  const double elapsed = (sim_.now() - it->second.since).sec();
  if (by_bssid_.contains(bssid) && elapsed > 0.5) {
    return static_cast<double>(it->second.bytes) * 8.0 / elapsed;
  }
  return it->second.last_rate_bps;
}

void FlowManager::handle_frame(const net::Frame& frame) {
  if (frame.dst != device_.address()) return;
  const auto* seg = frame.payload.get_if<net::TcpSegment>();
  if (seg == nullptr) return;
  if (seg->from_sender) {
    auto it = flows_.find(seg->flow_id);
    if (it != flows_.end()) it->second.receiver->on_segment(*seg);
    return;
  }
  // Acks for our uploads.
  auto it = uploads_.find(seg->flow_id);
  if (it != uploads_.end()) it->second.sender->on_ack(*seg);
}

}  // namespace spider::core
