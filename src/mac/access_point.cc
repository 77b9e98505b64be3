#include "mac/access_point.h"

#include <utility>

#include "core/check.h"

namespace spider::mac {

AccessPoint::AccessPoint(phy::Medium& medium, net::MacAddress address,
                         phy::Vec2 position, sim::Rng rng,
                         AccessPointConfig config)
    : medium_(medium),
      radio_(medium, address,
             phy::RadioConfig{.initial_channel = config.channel,
                              .position = position,
                              .stationary = true}),
      rng_(std::move(rng)),
      config_(std::move(config)),
      beacon_payload_(
          net::BeaconInfo{config_.ssid, config_.channel, config_.open}) {
  SPIDER_CHECK(config_.beacon_interval > sim::Time::zero())
      << "AP " << address.to_string() << " beacon interval "
      << config_.beacon_interval.to_string();
  SPIDER_CHECK(config_.response_delay_min <= config_.response_delay_max)
      << "AP response delay window inverted: "
      << config_.response_delay_min.to_string() << " > "
      << config_.response_delay_max.to_string();
  SPIDER_CHECK(config_.max_buffered_frames > 0)
      << "AP power-save buffer capacity must be positive";
  radio_.set_receive_handler(
      [this](const net::Frame& f, const phy::RxInfo& i) { on_receive(f, i); },
      kRxInterest);
  // Link-layer retry failure: an associated client that went absent (e.g.
  // parked on another channel before our PM=1 bookkeeping caught up) gets
  // its frames re-queued into the power-save buffer instead of dropped —
  // the standard AP behaviour virtualized clients rely on.
  radio_.set_tx_failure_handler([this](const net::Frame& f) {
    if (f.kind != net::FrameKind::kData) return;
    auto it = stations_.find(f.dst);
    if (it == stations_.end() || !it->second.associated) return;
    // Re-queue only for clients that announced power-save: that's the race
    // where data was in flight when the PM=1 arrived. A client that is
    // simply absent without PSM (e.g. mid-join on another channel) loses
    // the frame, exactly as the paper's join analysis assumes.
    if (!it->second.power_save) return;
    if (it->second.buffer.size() >= config_.max_buffered_frames) {
      ++buffer_drops_;
      return;
    }
    ++buffered_total_;
    it->second.buffer.push_back(f);
    note_buffered();
    SPIDER_DCHECK(it->second.buffer.size() <= config_.max_buffered_frames)
        << "power-save buffer overran its cap for "
        << f.dst.to_string();
  });
  collector_id_ = medium_.simulator().telemetry().add_collector(
      [this](telemetry::Registry& registry) { publish_metrics(registry); });
}

AccessPoint::~AccessPoint() {
  medium_.simulator().telemetry().remove_collector(collector_id_);
}

void AccessPoint::note_buffered() {
  ++buffered_now_;
  if (buffered_now_ > buffered_high_water_) {
    buffered_high_water_ = buffered_now_;
  }
  trace_psm_occupancy();
}

void AccessPoint::trace_psm_occupancy() {
  telemetry::TraceRecorder& trace = medium_.simulator().telemetry().trace();
  if (!trace.enabled()) return;
  trace.counter("mac.ap.psm_buffered", "mac",
                medium_.simulator().now().us(),
                static_cast<std::int64_t>(buffered_now_),
                static_cast<std::uint32_t>(radio_.attach_order()));
}

void AccessPoint::publish_metrics(telemetry::Registry& registry) {
  // Deltas since the last collect: several APs share one world registry, so
  // each folds only its unpublished growth into the common mac.ap.* names.
  const auto publish = [&registry](const char* name, std::uint64_t total,
                                   std::uint64_t& published) {
    registry.counter(name).inc(total - published);
    published = total;
  };
  publish("mac.ap.auth_grants", auth_grants_, published_.auth);
  publish("mac.ap.assoc_grants", assoc_grants_, published_.assoc);
  publish("mac.ap.frames_buffered", buffered_total_, published_.buffered);
  publish("mac.ap.buffer_drops", buffer_drops_, published_.drops);
  publish("mac.ap.psm_enters", psm_enters_, published_.psm_enters);
  publish("mac.ap.psm_exits", psm_exits_, published_.psm_exits);
  telemetry::Gauge& occupancy = registry.gauge("mac.ap.psm_buffered");
  occupancy.add(static_cast<std::int64_t>(buffered_now_) -
                static_cast<std::int64_t>(published_.occupancy));
  occupancy.record_peak(static_cast<std::int64_t>(buffered_high_water_));
  published_.occupancy = buffered_now_;
}

void AccessPoint::start() {
  if (started_) return;
  started_ = true;
  // Desynchronize beacons across APs.
  const sim::Time offset =
      sim::Time::micros(rng_.uniform_int(0, config_.beacon_interval.us() - 1));
  medium_.simulator().post_after(
      offset, [this, alive = std::weak_ptr<char>(alive_)] {
        if (!alive.expired()) beacon_tick();
      });
}

// Hot at fleet scale (every AP, 10 Hz): a tick bumps a refcount on
// beacon_payload_ and builds no payload.
SPIDER_HOT void AccessPoint::beacon_tick() {
  radio_.send(net::make_beacon(address(), beacon_payload_));
  medium_.simulator().post_after(
      config_.beacon_interval, [this, alive = std::weak_ptr<char>(alive_)] {
        if (!alive.expired()) beacon_tick();
      });
}

AccessPoint::PendingResponse* AccessPoint::acquire_pending_response() {
  if (response_free_.empty()) {
    response_pool_.push_back(std::make_unique<PendingResponse>());
    return response_pool_.back().get();
  }
  PendingResponse* node = response_free_.back();
  response_free_.pop_back();
  return node;
}

void AccessPoint::release_pending_response(PendingResponse* node) {
  node->frame = net::Frame{};  // drop the payload refcount eagerly
  response_free_.push_back(node);
}

// Hot on every auth/assoc grant: the response parks on a pooled node so the
// scheduled closure captures {this, node, weak alive} — 32 bytes, inside
// SmallFn's inline buffer. Capturing the Frame itself would heap-spill the
// closure on every management exchange.
SPIDER_HOT void AccessPoint::respond_after_delay(net::Frame response) {
  const sim::Time lo = config_.response_delay_min;
  const sim::Time hi = config_.response_delay_max;
  const sim::Time delay =
      lo + sim::Time::micros(rng_.uniform_int(0, (hi - lo).us()));
  SPIDER_DCHECK(delay >= lo && delay <= hi)
      << "management response delay " << delay.to_string()
      << " outside configured [" << lo.to_string() << ", " << hi.to_string()
      << "]";
  PendingResponse* node = acquire_pending_response();
  node->frame = std::move(response);
  medium_.simulator().post_after(
      delay, [this, node, alive = std::weak_ptr<char>(alive_)] {
        // If the AP died, `this` is gone and the node's memory went with the
        // pool; touching neither is the only safe move.
        if (alive.expired()) return;
        radio_.send(std::move(node->frame));
        release_pending_response(node);
      });
}

// Sees only the frames kRxInterest consumes.
void AccessPoint::on_receive(const net::Frame& frame, const phy::RxInfo&) {
  SPIDER_DCHECK(frame.dst == address() || frame.dst.is_broadcast())
      << "AP " << address().to_string() << " handed a frame for "
      << frame.dst.to_string();
  switch (frame.kind) {
    case net::FrameKind::kProbeRequest:
      respond_after_delay(
          net::make_probe_response(address(), frame.src, beacon_payload_));
      break;

    case net::FrameKind::kAuthRequest: {
      ClientState& state = stations_[frame.src];
      if (!state.authenticated) ++auth_grants_;
      state.authenticated = true;
      respond_after_delay(
          net::make_auth_response(address(), frame.src, beacon_payload_));
      break;
    }

    case net::FrameKind::kAssocRequest: {
      auto it = stations_.find(frame.src);
      if (it == stations_.end() || !it->second.authenticated) {
        // Real APs reject association before authentication; we stay silent
        // and let the client's link-layer timeout drive a retry of auth.
        break;
      }
      // MAC state-transition legality: association is only ever granted on
      // top of authentication (the 802.11 state ladder).
      SPIDER_CHECK(it->second.authenticated)
          << "assoc grant for unauthenticated client "
          << frame.src.to_string();
      if (!it->second.associated) ++assoc_grants_;
      it->second.associated = true;
      respond_after_delay(
          net::make_assoc_response(address(), frame.src, beacon_payload_));
      break;
    }

    case net::FrameKind::kDisassoc: {
      auto it = stations_.find(frame.src);
      if (it != stations_.end()) {
        const std::size_t dropped = it->second.buffer.size();
        buffered_now_ -= dropped;
        stations_.erase(it);
        if (dropped > 0) trace_psm_occupancy();
      }
      break;
    }

    case net::FrameKind::kNullData: {
      auto it = stations_.find(frame.src);
      if (it == stations_.end() || !it->second.associated) break;
      if (frame.power_mgmt) {
        if (!it->second.power_save) ++psm_enters_;
        it->second.power_save = true;
      } else {
        if (it->second.power_save) ++psm_exits_;
        it->second.power_save = false;
        flush_buffer(frame.src, it->second);
      }
      break;
    }

    case net::FrameKind::kPsPoll: {
      // Spider wakes a parked association by polling; we flush everything
      // buffered and clear the PS bit so downlink flows until the next
      // PM=1 announcement.
      auto it = stations_.find(frame.src);
      if (it == stations_.end() || !it->second.associated) break;
      if (it->second.power_save) ++psm_exits_;
      it->second.power_save = false;
      flush_buffer(frame.src, it->second);
      break;
    }

    case net::FrameKind::kData: {
      // DHCP exchanges legitimately arrive before association completes in
      // our simplified stack only if the client is associated; enforce that.
      auto it = stations_.find(frame.src);
      if (it == stations_.end() || !it->second.associated) break;
      // An awake client that transmits proves it is listening; deliver
      // anything that accumulated during a PSM race window.
      if (!it->second.power_save && !it->second.buffer.empty()) {
        flush_buffer(frame.src, it->second);
      }
      if (data_sink_) data_sink_(frame);
      break;
    }

    case net::FrameKind::kBeacon:
    case net::FrameKind::kProbeResponse:
    case net::FrameKind::kAuthResponse:
    case net::FrameKind::kAssocResponse:
      SPIDER_UNREACHABLE() << "AP handed a " << net::to_string(frame.kind)
                           << ", which kRxInterest excludes";
      break;
  }
}

void AccessPoint::flush_buffer(net::MacAddress client, ClientState& state) {
  // Flushing only makes sense for an associated client that is awake; both
  // call sites clear the PS bit before draining.
  SPIDER_DCHECK(state.associated && !state.power_save)
      << "flush for " << client.to_string() << " in associated="
      << state.associated << " power_save=" << state.power_save;
  const bool drained = !state.buffer.empty();
  while (!state.buffer.empty()) {
    net::Frame f = std::move(state.buffer.front());
    state.buffer.pop_front();
    --buffered_now_;
    radio_.send(std::move(f));
  }
  if (drained) trace_psm_occupancy();
}

bool AccessPoint::send_to_client(net::MacAddress dst, net::Frame frame) {
  auto it = stations_.find(dst);
  if (it == stations_.end() || !it->second.associated) return false;
  if (it->second.power_save) {
    if (it->second.buffer.size() >= config_.max_buffered_frames) {
      ++buffer_drops_;
      return true;  // associated, but the frame aged out of the buffer
    }
    ++buffered_total_;
    it->second.buffer.push_back(std::move(frame));
    note_buffered();
    return true;
  }
  radio_.send(std::move(frame));
  return true;
}

bool AccessPoint::is_associated(net::MacAddress client) const {
  auto it = stations_.find(client);
  return it != stations_.end() && it->second.associated;
}

bool AccessPoint::in_power_save(net::MacAddress client) const {
  auto it = stations_.find(client);
  return it != stations_.end() && it->second.power_save;
}

std::size_t AccessPoint::buffered_frames(net::MacAddress client) const {
  auto it = stations_.find(client);
  return it == stations_.end() ? 0 : it->second.buffer.size();
}

}  // namespace spider::mac
