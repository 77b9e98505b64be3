#include "core/client_device.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace spider::core {

ClientDevice::ClientDevice(phy::Medium& medium, net::MacAddress address,
                           ClientDeviceConfig config)
    : sim_(medium.simulator()),
      medium_(medium),
      radio_(medium, address, config.radio),
      config_(config) {
  radio_.set_receive_handler(
      [this](const net::Frame& f, const phy::RxInfo& i) { on_receive(f, i); });
  arm_probe_timer();
}

void ClientDevice::register_bssid(net::Bssid bssid, FrameHandler handler) {
  bssid_handlers_[bssid] = std::move(handler);
}

void ClientDevice::unregister_bssid(net::Bssid bssid) {
  bssid_handlers_.erase(bssid);
}

void ClientDevice::on_receive(const net::Frame& frame,
                              const phy::RxInfo& info) {
  // Keep the scan table warm from anything that names an AP.
  if (const auto* beacon = frame.payload.get_if<net::BeaconInfo>()) {
    if (beacon->open) {
      ScanEntry& e = scan_table_[frame.bssid];
      e.bssid = frame.bssid;
      e.info = *beacon;
      e.channel = beacon->channel;
      e.rssi_dbm = info.rssi_dbm();
      e.last_seen = sim_.now();
    }
  }
  if (auto it = bssid_handlers_.find(frame.src); it != bssid_handlers_.end()) {
    it->second(frame, info);
  }
  if (default_handler_) default_handler_(frame, info);
}

bool ClientDevice::enqueue(net::ChannelId channel, net::Frame frame) {
  if (channel == radio_.channel() && !radio_.switching()) {
    ++frames_enqueued_;
    radio_.send(std::move(frame));
    return true;
  }
  auto& q = queues_[channel];
  if (q.size() >= config_.max_queue_frames) {
    ++queue_drops_;
    return false;
  }
  ++frames_enqueued_;
  q.push_back(std::move(frame));
  return false;
}

void ClientDevice::flush_queue(net::ChannelId channel) {
  auto it = queues_.find(channel);
  if (it == queues_.end()) return;
  while (!it->second.empty()) {
    net::Frame f = std::move(it->second.front());
    it->second.pop_front();
    radio_.send(std::move(f));
  }
}

sim::Time ClientDevice::switch_channel(net::ChannelId channel,
                                       std::function<void()> done) {
  ++switches_;

  // 1. Park every live association on the outgoing channel.
  if (connected_) {
    for (net::Bssid ap : connected_(radio_.channel())) {
      radio_.send(net::make_null_data(address(), ap, /*power_mgmt=*/true));
    }
  }
  // 2. Drain: let in-flight frames on the old channel (our PSM frames and
  //    anything the APs already committed to the air) finish before the
  //    reset, as real MACs do — capped so a busy channel can't stall us.
  const sim::Time idle_at = medium_.channel_idle_at(radio_.channel());
  const sim::Time drain = std::min(idle_at - sim_.now(), sim::Time::millis(3));
  // 3. Hardware reset; 4. wake associations on the incoming channel.
  auto tune = [this, channel, done = std::move(done)]() mutable {
    radio_.tune(channel, [this, channel, done = std::move(done)] {
      if (connected_) {
        for (net::Bssid ap : connected_(channel)) {
          radio_.send(net::make_ps_poll(address(), ap));
        }
      }
      flush_queue(channel);
      probe_now();
      if (done) done();
    });
  };
  if (drain.is_zero() || drain.is_negative()) {
    tune();
  } else {
    sim_.post_after(drain, std::move(tune));
  }

  // Modeled switch latency: hardware reset plus the airtime of the PSM and
  // PS-Poll frames (Table 1: ~4.94 ms base, growing with associated APs).
  sim::Time latency = config_.radio.hardware_reset;
  if (connected_) {
    const std::size_t old_aps = connected_(radio_.channel()).size();
    const std::size_t new_aps = connected_(channel).size();
    const sim::Time frame_cost = sim::Time::micros(192) +  // preamble
                                 sim::transmission_time(net::kNullDataBytes, 11e6);
    latency += static_cast<std::int64_t>(old_aps + new_aps) * frame_cost;
  }
  return latency;
}

std::vector<ScanEntry> ClientDevice::scan_results(net::ChannelId channel) const {
  std::vector<ScanEntry> out;
  const sim::Time now = sim_.now();
  for (const auto& [bssid, entry] : scan_table_) {
    if (channel != 0 && entry.channel != channel) continue;
    if (now - entry.last_seen > kScanExpiry) continue;
    out.push_back(entry);
  }
  return out;
}

void ClientDevice::probe_now() {
  if (!radio_.switching()) {
    radio_.send(net::make_probe_request(address()));
  }
}

void ClientDevice::arm_probe_timer() {
  probe_timer_ = sim_.schedule_after(config_.probe_interval, [this] {
    probe_now();
    arm_probe_timer();
  });
}

}  // namespace spider::core
