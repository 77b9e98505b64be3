#include "core/world.h"

#include <span>
#include <stdexcept>

#include "core/arena.h"
#include "core/check.h"
#include "telemetry/stream_exporter.h"

namespace spider::core {

World::World(const WorldConfig& config)
    : config_(config), rng_(config_.seed) {
  if (config_.trace_enabled) sim_.telemetry().trace().set_enabled(true);
  medium_ = std::make_unique<phy::Medium>(sim_, rng_.fork("medium"),
                                          config_.medium);
  server_ = std::make_unique<tcp::ContentServer>(sim_, config_.tcp);

  std::size_t index = 0;
  for (const auto& desc : config_.aps) {
    backhaul::ApHostConfig host_cfg;
    host_cfg.ap = config_.ap_mac;
    host_cfg.ap.ssid = desc.ssid;
    host_cfg.ap.channel = desc.channel;
    host_cfg.dhcp.offer_delay_min = desc.dhcp_offer_min;
    host_cfg.dhcp.offer_delay_max = desc.dhcp_offer_max;
    host_cfg.dhcp.responsive = !desc.dud;
    host_cfg.backhaul.rate_bps = desc.backhaul_bps;
    host_cfg.backhaul.latency = config_.backhaul_latency;
    ap_hosts_.push_back(std::make_unique<backhaul::ApHost>(
        *medium_, *server_, desc.mac, desc.position, desc.subnet,
        rng_.fork(index), host_cfg));
    ap_hosts_.back()->start();
    ++index;
  }
}

World::~World() = default;

void World::add_rider(phy::Radio& radio, sim::Time phase) {
  radio.set_position(config_.vehicle.position(phase));
  riders_.push_back(Rider{&radio, phase});
}

// Hot per mobility tick: the move batch is carved from the drain arena
// (bump-pointer once the first tick warmed the block), and the medium
// applies each move through set_position.
SPIDER_HOT void World::tick() {
  const sim::Time now = sim_.now();
  core::Arena::Scope scope(sim_.arena());
  phy::RadioMove* moves =
      sim_.arena().alloc_array<phy::RadioMove>(riders_.size());
  std::size_t n = 0;
  for (const Rider& rider : riders_) {
    moves[n++] = phy::RadioMove{rider.radio,
                                config_.vehicle.position(now + rider.phase)};
  }
  medium_->move_radios(std::span<const phy::RadioMove>(moves, n));
  // Stop the recurring tick at the horizon: a position applied at or past
  // config_.duration can never influence results, so rescheduling there
  // would only park a dead event chain in the queue.
  if (now + kPositionUpdate < config_.duration) {
    sim_.post_after(kPositionUpdate, [this] { tick(); });
  }
}

void World::run(const std::function<void()>& start_clients) {
  if (ran_) throw std::logic_error("World::run: already ran");
  ran_ = true;
  if (config_.stream != nullptr) {
    stream_ = std::make_unique<telemetry::StreamSession>(
        *config_.stream, sim_.telemetry(), config_.stream_run_tag,
        kStreamCadence.us());
    stream_->begin(sim_.now().us(), config_.seed);
  }
  start_clients();
  tick();
  sim_.run_until(config_.duration);
  if (stream_) {
    stream_->finish(sim_.now().us(), sim_.digest(), sim_.events_executed());
  }
}

}  // namespace spider::core
