#include "core/spider_driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/check.h"
#include "phy/channel.h"

namespace spider::core {
namespace {

using phy::channel_slot;
using phy::kChannelSlots;

// Names for the driver's 100+channel dwell lanes; each interface's join
// lane is named "vifN" when the interface is created.
constexpr auto kChannelTrackNames = phy::make_slot_names<kChannelSlots>("ch");
constexpr std::uint32_t kChannelTrackBase = 100;

}  // namespace

SpiderDriver::SpiderDriver(sim::Simulator& simulator, ClientDevice& device,
                           SpiderConfig config)
    : sim_(simulator), device_(device), config_(std::move(config)) {
  if (config_.schedule.empty())
    throw std::invalid_argument("SpiderConfig: empty schedule");
  if (config_.dynamic_channel && config_.schedule.size() != 1)
    throw std::invalid_argument(
        "SpiderConfig: dynamic_channel requires a single-slice schedule");
  double total = 0.0;
  for (const auto& slice : config_.schedule) {
    if (slice.fraction <= 0.0)
      throw std::invalid_argument("SpiderConfig: non-positive slice");
    total += slice.fraction;
  }
  for (auto& slice : config_.schedule) slice.fraction /= total;
  double normalized = 0.0;
  for (const auto& slice : config_.schedule) normalized += slice.fraction;
  SPIDER_DCHECK(std::abs(normalized - 1.0) < 1e-9)
      << "schedule fractions normalized to " << normalized;

  device_.set_connected_lookup([this](net::ChannelId ch) {
    std::vector<net::Bssid> out;
    for (const auto& [bssid, vif] : interfaces_) {
      if (vif->channel == ch && vif->state == VirtualInterface::State::kConnected)
        out.push_back(bssid);
    }
    return out;
  });
  collector_id_ = sim_.telemetry().add_collector(
      [this](telemetry::Registry& registry) { publish_metrics(registry); });
}

SpiderDriver::~SpiderDriver() {
  sim_.telemetry().remove_collector(collector_id_);
  schedule_timer_.cancel();
  selection_timer_.cancel();
  eval_timer_.cancel();
  // Unregister in bssid order: teardown must be as reproducible as the run
  // (unregister_bssid is observable through the device's frame filter).
  for (const auto& [bssid, vif] : interfaces_) device_.unregister_bssid(bssid);
}

void SpiderDriver::publish_metrics(telemetry::Registry& registry) {
  const auto publish = [&registry](const char* name, std::uint64_t total,
                                   std::uint64_t& published) {
    registry.counter(name).inc(total - published);
    published = total;
  };
  publish("driver.join_attempts", metrics_.join_attempts,
          published_.join_attempts);
  publish("driver.associations", metrics_.associations,
          published_.associations);
  publish("driver.joins", metrics_.joins, published_.joins);
  publish("driver.dhcp_attempts", metrics_.dhcp_attempts,
          published_.dhcp_attempts);
  publish("driver.dhcp_attempt_failures", metrics_.dhcp_attempt_failures,
          published_.dhcp_attempt_failures);
  publish("driver.dhcp_failed_joins", metrics_.dhcp_failed_joins,
          published_.dhcp_failed_joins);
  publish("driver.recamps", recamps_, published_.recamps);
  publish("driver.schedule_switches", schedule_switches_,
          published_.schedule_switches);
  static constexpr auto kDwellNames =
      phy::make_slot_names<kChannelSlots>("driver.dwell_us.ch");
  // Probe the channel plan in slot order instead of walking the unordered
  // dwell map: same totals, and the publish order no longer depends on
  // hashing internals. (Slot N is channel N for the 1..14 plan; channel 0
  // never accrues dwell, and out-of-plan channels cannot be scheduled.)
  // The name is read through data(): gcc 12 flags `kDwellNames[slot].text`
  // here with a false -Wstringop-overread.
  for (std::size_t slot = 1; slot < kChannelSlots; ++slot) {
    const auto it = airtime_.find(static_cast<net::ChannelId>(slot));
    if (it == airtime_.end()) continue;
    publish((kDwellNames.data() + slot)->text,
            static_cast<std::uint64_t>(it->second.us()),
            published_dwell_us_[slot]);
  }
}

void SpiderDriver::start() {
  if (started_) return;
  started_ = true;
  telemetry::TraceRecorder& trace = sim_.telemetry().trace();
  if (trace.enabled()) {
    for (const ChannelSlice& slice : config_.schedule) {
      const std::size_t slot = channel_slot(slice.channel);
      trace.name_track(kChannelTrackBase + static_cast<std::uint32_t>(slot),
                       kChannelTrackNames[slot].text, sim_.now().us());
    }
  }
  rotate_schedule(0);
  selection_timer_ =
      sim_.schedule_after(config_.selection_interval, [this] { selection_tick(); });
  if (config_.dynamic_channel) {
    eval_timer_ = sim_.schedule_after(config_.channel_eval_interval,
                                      [this] { channel_eval_tick(); });
  }
}

net::ChannelId SpiderDriver::home_channel() const {
  return config_.schedule.front().channel;
}

double SpiderDriver::channel_utility(net::ChannelId channel) const {
  double utility = 0.0;
  for (const ScanEntry& e : device_.scan_results(channel)) {
    utility += history_.score(e.bssid);
  }
  return utility;
}

void SpiderDriver::channel_eval_tick() {
  eval_timer_ = sim_.schedule_after(config_.channel_eval_interval,
                                    [this] { channel_eval_tick(); });
  if (excursion_active_) return;
  excursion_active_ = true;
  // Visit every orthogonal channel except home, probing briefly on each.
  excursion_remaining_.clear();
  for (net::ChannelId ch : phy::kOrthogonalChannels) {
    if (ch != home_channel()) excursion_remaining_.push_back(ch);
  }
  scan_excursion_step();
}

void SpiderDriver::scan_excursion_step() {
  if (excursion_remaining_.empty()) {
    // Head home, then decide.
    device_.switch_channel(home_channel(), [this] {
      accumulate_airtime();
      dwell_channel_ = home_channel();
      on_arrival(home_channel());
      finish_channel_eval();
    });
    return;
  }
  const net::ChannelId target = excursion_remaining_.back();
  excursion_remaining_.pop_back();
  accumulate_airtime();
  dwell_channel_ = 0;
  device_.switch_channel(target, [this, target] {
    accumulate_airtime();
    dwell_channel_ = target;
  });
  sim_.post_after(config_.scan_excursion, [this] { scan_excursion_step(); });
}

template <typename Pred>
void SpiderDriver::destroy_interfaces_if(Pred doomed, bool lost) {
  // Bssid order: each destroy updates join history and can fire the
  // disconnect callback. Stepping by upper_bound survives the erase.
  for (auto it = interfaces_.begin(); it != interfaces_.end();) {
    const net::Bssid bssid = it->first;
    if (doomed(*it->second)) destroy_interface(bssid, lost);
    it = interfaces_.upper_bound(bssid);
  }
}

void SpiderDriver::finish_channel_eval() {
  excursion_active_ = false;
  const double home_utility = channel_utility(home_channel());
  net::ChannelId best = home_channel();
  double best_utility = home_utility;
  for (net::ChannelId ch : phy::kOrthogonalChannels) {
    const double u = channel_utility(ch);
    if (u > best_utility) {
      best = ch;
      best_utility = u;
    }
  }
  if (best == home_channel()) return;
  // Hysteresis, plus never abandon live connections for speculative gain.
  if (best_utility < home_utility * config_.channel_switch_hysteresis) return;
  if (connected_count() > 0) return;
  ++recamps_;
  config_.schedule.front().channel = best;
  // Drop joining interfaces stranded on the old home channel, in bssid
  // order so failure-history updates replay identically.
  destroy_interfaces_if(
      [best](const VirtualInterface& vif) { return vif.channel != best; },
      /*lost=*/false);
  rotate_schedule(0);
}

void SpiderDriver::accumulate_airtime() {
  // Dwell accounting is monotonic: the open interval can never end before it
  // started, and closed per-channel totals only grow.
  SPIDER_CHECK(sim_.now() >= dwell_since_)
      << "dwell interval ends " << sim_.now().to_string()
      << " before it started " << dwell_since_.to_string();
  if (dwell_channel_ != 0) {
    airtime_[dwell_channel_] += sim_.now() - dwell_since_;
    telemetry::TraceRecorder& trace = sim_.telemetry().trace();
    if (trace.enabled() && sim_.now() > dwell_since_) {
      const std::size_t slot = channel_slot(dwell_channel_);
      trace.complete("dwell", "channel", dwell_since_.us(),
                     (sim_.now() - dwell_since_).us(),
                     kChannelTrackBase + static_cast<std::uint32_t>(slot));
    }
  }
  dwell_since_ = sim_.now();
}

sim::Time SpiderDriver::channel_airtime(net::ChannelId channel) const {
  sim::Time t = sim::Time::zero();
  if (auto it = airtime_.find(channel); it != airtime_.end()) t = it->second;
  if (channel == dwell_channel_) t += sim_.now() - dwell_since_;
  return t;
}

void SpiderDriver::rotate_schedule(std::size_t slice_index) {
  ChannelSlice slice = config_.schedule[slice_index];
  sim::Time dwell = config_.period * slice.fraction;
  std::size_t next = (slice_index + 1) % config_.schedule.size();

  if (config_.camp_while_connected) {
    // Camp on the lowest-bssid live connection (the first in key order), so
    // the camped channel is well defined when two connections are live.
    const VirtualInterface* camp = nullptr;
    for (const auto& [bssid, vif] : interfaces_) {
      if (vif->state == VirtualInterface::State::kConnected) {
        camp = vif.get();
        break;
      }
    }
    if (camp != nullptr) {
      // Stay with the live connection; re-evaluate after a full period.
      slice = ChannelSlice{camp->channel, 1.0};
      dwell = config_.period;
      next = slice_index;  // resume the rotation where it left off
    }
  }

  accumulate_airtime();
  dwell_channel_ = 0;  // nothing accrues during the reset

  if (device_.channel() == slice.channel && !device_.switching()) {
    // Already parked there (camping or single-channel): no PSM dance.
    dwell_channel_ = slice.channel;
    dwell_since_ = sim_.now();
    if (config_.schedule.size() > 1 || config_.camp_while_connected) {
      schedule_timer_.cancel();
      schedule_timer_ =
          sim_.schedule_after(dwell, [this, next] { rotate_schedule(next); });
    }
    return;
  }

  ++schedule_switches_;
  last_switch_latency_ =
      device_.switch_channel(slice.channel, [this, slice] {
        accumulate_airtime();
        dwell_channel_ = slice.channel;
        on_arrival(slice.channel);
      });

  if (config_.schedule.size() > 1 || config_.camp_while_connected) {
    schedule_timer_.cancel();
    schedule_timer_ =
        sim_.schedule_after(dwell, [this, next] { rotate_schedule(next); });
  }
}

void SpiderDriver::on_arrival(net::ChannelId channel) {
  // Wake co-channel sessions in bssid order: each wake-up can enqueue
  // frames, and the enqueue order decides who serializes onto the channel
  // first. Stepping by upper_bound keeps the walk valid even if a wake-up
  // destroys an interface.
  for (auto it = interfaces_.begin(); it != interfaces_.end();) {
    const net::Bssid bssid = it->first;
    VirtualInterface& vif = *it->second;
    if (vif.channel == channel) {
      if (vif.session) vif.session->radio_on_channel();
      if (vif.dhcp && vif.state == VirtualInterface::State::kDhcp)
        vif.dhcp->radio_on_channel();
    }
    it = interfaces_.upper_bound(bssid);
  }
}

bool SpiderDriver::scheduled_channel(net::ChannelId channel) const {
  return std::any_of(config_.schedule.begin(), config_.schedule.end(),
                     [channel](const ChannelSlice& s) {
                       return s.channel == channel;
                     });
}

void SpiderDriver::note_heard(VirtualInterface& vif) {
  vif.airtime_at_last_heard = channel_airtime(vif.channel);
}

void SpiderDriver::create_interface(const ScanEntry& entry) {
  const net::Bssid bssid = entry.bssid;
  // One virtual interface per AP relationship; selection_tick filters
  // candidates, so a duplicate here means the scan table and the interface
  // map disagree.
  SPIDER_CHECK(!interfaces_.contains(bssid))
      << "duplicate virtual interface for " << bssid.to_string();
  SPIDER_DCHECK(scheduled_channel(entry.channel))
      << "interface for " << bssid.to_string() << " on unscheduled channel "
      << entry.channel;
  auto vif = std::make_unique<VirtualInterface>();
  vif->bssid = bssid;
  vif->channel = entry.channel;
  vif->trace_track = next_trace_track_++;
  vif->join_started = sim_.now();
  vif->airtime_at_last_heard = channel_airtime(entry.channel);

  telemetry::TraceRecorder& trace = sim_.telemetry().trace();
  if (trace.enabled()) {
    trace.name_track(vif->trace_track,
                     "vif" + std::to_string(vif->trace_track),
                     sim_.now().us());
    // Discovery span: last beacon/probe sighting of this AP up to the
    // decision to join it — the "scan" leg of the join pipeline.
    trace.complete("scan", "join", entry.last_seen.us(),
                   (sim_.now() - entry.last_seen).us(), vif->trace_track);
  }

  // Join traffic is sent only when the radio is live on the AP's channel;
  // it is never queued (a deferred DHCP request would arrive stale anyway,
  // and the paper's whole point is that joins cannot be parked with PSM).
  const net::ChannelId channel = entry.channel;
  auto join_tx = [this, channel](const net::Frame& frame) {
    if (device_.channel() == channel && !device_.switching()) {
      return device_.radio().send(frame);
    }
    return false;
  };

  mac::ClientSessionConfig session_config = config_.session;
  session_config.trace_track = vif->trace_track;
  dhcpd::DhcpClientConfig dhcp_config = config_.dhcp;
  dhcp_config.trace_track = vif->trace_track;
  vif->session = std::make_unique<mac::ClientSession>(
      sim_, device_.address(), bssid, channel, join_tx, session_config);
  vif->dhcp = std::make_unique<dhcpd::DhcpClient>(
      sim_, device_.address(), bssid, join_tx, dhcp_config);

  VirtualInterface* raw = vif.get();
  vif->session->set_event_handler(
      [this, raw](mac::ClientSession&, mac::SessionEvent ev) {
        on_session_event(*raw, ev);
      });
  vif->dhcp->set_event_handler([this, raw](dhcpd::DhcpClient&, dhcpd::DhcpEvent ev) {
    on_dhcp_event(*raw, ev);
  });

  device_.register_bssid(bssid, [this, raw](const net::Frame& frame,
                                            const phy::RxInfo&) {
    note_heard(*raw);
    if (raw->session) raw->session->handle_frame(frame);
    if (raw->dhcp) raw->dhcp->handle_frame(frame);
  });

  interfaces_.emplace(bssid, std::move(vif));
  ++metrics_.join_attempts;
  history_.record_attempt(bssid);
  raw->session->start_join();
}

void SpiderDriver::selection_tick() {
  selection_timer_ =
      sim_.schedule_after(config_.selection_interval, [this] { selection_tick(); });

  // 1. Reap interfaces whose AP has been silent for link_loss_timeout of
  //    on-channel time (silence while parked elsewhere doesn't count), or
  //    whose join outlived its budget.
  destroy_interfaces_if(
      [this](const VirtualInterface& vif) {
        const sim::Time on_air_silence =
            channel_airtime(vif.channel) - vif.airtime_at_last_heard;
        return on_air_silence > config_.link_loss_timeout ||
               (vif.state != VirtualInterface::State::kConnected &&
                sim_.now() - vif.join_started > config_.join_give_up);
      },
      /*lost=*/true);

  // 2. Spawn interfaces for fresh candidates on scheduled channels.
  const int capacity = config_.multi_ap ? config_.max_interfaces : 1;
  if (static_cast<int>(interfaces_.size()) >= capacity) return;

  std::vector<ScanEntry> candidates;
  for (ScanEntry& e : device_.scan_results()) {
    if (!scheduled_channel(e.channel)) continue;
    if (interfaces_.contains(e.bssid)) continue;
    candidates.push_back(std::move(e));
  }

  const auto rank = [this](const ScanEntry& e) {
    switch (config_.policy) {
      case ApSelectionPolicy::kJoinHistory:
        return history_.score(e.bssid);
      case ApSelectionPolicy::kBestRssi:
        return e.rssi_dbm;
      case ApSelectionPolicy::kOfferedBandwidth:
        // No in-band estimate exists before joining; fall back to history
        // blended with signal (the ablation bench injects an oracle).
        return history_.score(e.bssid) + e.rssi_dbm * 1e-4;
    }
    return 0.0;
  };
  // Explicit bssid tie-break: std::sort is unstable, and policy scores tie
  // routinely (fresh APs share a history score of zero).
  std::sort(candidates.begin(), candidates.end(),
            [&rank](const ScanEntry& a, const ScanEntry& b) {
              const double ra = rank(a);
              const double rb = rank(b);
              if (ra != rb) return ra > rb;
              return a.bssid < b.bssid;
            });

  for (const ScanEntry& e : candidates) {
    if (static_cast<int>(interfaces_.size()) >= capacity) break;
    create_interface(e);
  }
  SPIDER_CHECK(static_cast<int>(interfaces_.size()) <= capacity)
      << interfaces_.size() << " interfaces exceed capacity " << capacity;
}

void SpiderDriver::destroy_interface(net::Bssid bssid, bool lost) {
  auto it = interfaces_.find(bssid);
  if (it == interfaces_.end()) return;
  const bool was_connected =
      it->second->state == VirtualInterface::State::kConnected;
  if (!was_connected) history_.record_failure(bssid);
  if (it->second->state == VirtualInterface::State::kDhcp) {
    ++metrics_.dhcp_failed_joins;  // associated but never got a lease
  }
  device_.unregister_bssid(bssid);
  device_.forget_scan(bssid);
  interfaces_.erase(it);
  if (lost && was_connected && on_disconnected_) on_disconnected_(bssid);
}

std::size_t SpiderDriver::connected_count() const {
  std::size_t n = 0;
  for (const auto& [bssid, vif] : interfaces_) {
    if (vif->state == VirtualInterface::State::kConnected) ++n;
  }
  return n;
}

const VirtualInterface* SpiderDriver::find_interface(net::Bssid bssid) const {
  auto it = interfaces_.find(bssid);
  return it == interfaces_.end() ? nullptr : it->second.get();
}

void SpiderDriver::on_session_event(VirtualInterface& vif,
                                    mac::SessionEvent event) {
  switch (event) {
    case mac::SessionEvent::kAssociated: {
      // Join pipeline ordering: association completes exactly once, from the
      // associating stage; DHCP only starts on top of it.
      SPIDER_CHECK(vif.state == VirtualInterface::State::kAssociating)
          << "kAssociated for " << vif.bssid.to_string()
          << " in driver state " << static_cast<int>(vif.state);
      ++metrics_.associations;
      metrics_.association_delay_sec.add(vif.session->association_delay().sec());
      sim_.telemetry()
          .metrics()
          .histogram("driver.assoc_delay_sec")
          .add(vif.session->association_delay().sec());
      vif.state = VirtualInterface::State::kDhcp;
      const auto cached = config_.cache_leases
                              ? lease_cache_.find(vif.bssid)
                              : lease_cache_.end();
      if (cached != lease_cache_.end() &&
          cached->second.acquired_at + cached->second.duration > sim_.now()) {
        vif.dhcp->start_with_cached(cached->second);
      } else {
        vif.dhcp->start();
      }
      break;
    }
    case mac::SessionEvent::kFailed: {
      // Deferred: we are inside the session's own call stack.
      const net::Bssid bssid = vif.bssid;
      sim_.post_after(sim::Time::zero(), [this, bssid] {
        destroy_interface(bssid, /*lost=*/false);
      });
      break;
    }
  }
}

void SpiderDriver::on_dhcp_event(VirtualInterface& vif, dhcpd::DhcpEvent event) {
  switch (event) {
    case dhcpd::DhcpEvent::kBound: {
      SPIDER_CHECK(vif.state == VirtualInterface::State::kDhcp)
          << "kBound for " << vif.bssid.to_string() << " in driver state "
          << static_cast<int>(vif.state);
      SPIDER_CHECK(!vif.dhcp->lease().ip.is_null())
          << "bound with a null lease on " << vif.bssid.to_string();
      const sim::Time join_delay = sim_.now() - vif.join_started;
      ++metrics_.joins;
      ++metrics_.dhcp_attempts;
      metrics_.join_delay_sec.add(join_delay.sec());
      telemetry::Hub& telemetry = sim_.telemetry();
      telemetry.metrics().histogram("driver.join_delay_sec").add(
          join_delay.sec());
      // Envelope span over the whole pipeline; the auth/assoc/dhcp sub-spans
      // nest inside it on the same per-interface lane.
      telemetry.trace().complete("join", "join", vif.join_started.us(),
                                 join_delay.us(), vif.trace_track);
      history_.record_success(vif.bssid, join_delay, sim_.now());
      if (config_.cache_leases) lease_cache_[vif.bssid] = vif.dhcp->lease();
      vif.state = VirtualInterface::State::kConnected;
      vif.connected_at = sim_.now();
      if (on_connected_) on_connected_(vif);
      break;
    }
    case dhcpd::DhcpEvent::kAttemptFailed:
      // Every attempt window counts once: here on failure, above on bind.
      ++metrics_.dhcp_attempt_failures;
      ++metrics_.dhcp_attempts;
      break;
  }
}

}  // namespace spider::core
