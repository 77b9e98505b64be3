#include "core/fleet.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/arena.h"
#include "core/check.h"
#include "telemetry/stream_exporter.h"

namespace spider::core {

double FleetResults::aggregate_throughput_kBps() const {
  double total = 0.0;
  for (const auto& c : clients) {
    total += c.traffic.avg_throughput_bytes_per_sec / 1e3;
  }
  return total;
}

double FleetResults::mean_client_throughput_kBps() const {
  return clients.empty() ? 0.0
                         : aggregate_throughput_kBps() /
                               static_cast<double>(clients.size());
}

double FleetResults::fairness() const {
  if (clients.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& c : clients) {
    const double x = c.traffic.avg_throughput_bytes_per_sec;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(clients.size()) * sum_sq);
}

FleetExperiment::FleetExperiment(FleetConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.clients < 1)
    throw std::invalid_argument("FleetConfig: clients < 1");

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

  for (int i = 0; i < config_.clients; ++i) {
    auto client = std::make_unique<Client>();
    client->phase = config_.headway * i;
    client->device = std::make_unique<ClientDevice>(
        *medium_,
        net::MacAddress::from_index(0x00C10000u +
                                    static_cast<std::uint32_t>(i)));
    client->device->set_position(config_.vehicle.position(client->phase));
    client->driver =
        std::make_unique<SpiderDriver>(sim_, *client->device, config_.spider);
    client->flows = std::make_unique<FlowManager>(sim_, *client->device,
                                                  config_.tcp);
    client->flows->install_tap();
    Client* raw = client.get();
    client->flows->set_delivery_handler([this, raw](std::int64_t bytes) {
      raw->tracker.record(sim_.now(), bytes);
    });
    client->flows->set_flow_closed_handler(
        [this](std::uint64_t flow_id) { server_->remove_flow(flow_id); });
    client->driver->set_connection_handler(
        [raw](const VirtualInterface& vif) {
          raw->flows->open_flow(vif.bssid, vif.channel);
        });
    client->driver->set_disconnection_handler(
        [raw](net::Bssid bssid) { raw->flows->close_flow(bssid); });
    clients_.push_back(std::move(client));
  }

  if (config_.stream != nullptr) {
    stream_ = std::make_unique<telemetry::StreamSession>(
        *config_.stream, sim_.telemetry(), config_.stream_run_tag,
        config_.stream_cadence.us(), config_.stream_ring_capacity);
    stream_->begin(sim_.now().us(), config_.seed);
  }
}

FleetExperiment::~FleetExperiment() = default;

// Hot per mobility tick: the move batch is carved from the drain arena
// (bump-pointer once the first tick warmed the block), and the medium
// re-buckets crossers per cell group.
SPIDER_HOT void FleetExperiment::update_positions() {
  const sim::Time now = sim_.now();
  core::Arena::Scope scope(sim_.arena());
  phy::RadioMove* moves =
      sim_.arena().alloc_array<phy::RadioMove>(clients_.size());
  std::size_t n = 0;
  for (auto& client : clients_) {
    moves[n++] = phy::RadioMove{&client->device->radio(),
                                config_.vehicle.position(now + client->phase)};
  }
  medium_->move_radios(std::span<const phy::RadioMove>(moves, n));
  // Stop the recurring tick at the horizon: a position applied at or past
  // config_.duration can never influence results, so rescheduling there
  // would only park a dead event chain in the queue.
  if (now + config_.position_update < config_.duration) {
    sim_.post_after(config_.position_update, [this] { update_positions(); });
  }
}

FleetResults FleetExperiment::run() {
  if (ran_) throw std::logic_error("FleetExperiment::run: already ran");
  ran_ = true;
  for (auto& client : clients_) client->driver->start();
  update_positions();
  sim_.run_until(config_.duration);
  if (stream_) {
    stream_->finish(sim_.now().us(), sim_.digest(), sim_.events_executed());
  }

  FleetResults results;
  for (auto& client : clients_) {
    FleetClientResults r;
    r.traffic = client->tracker.report(config_.duration);
    r.joins = client->driver->metrics();
    results.clients.push_back(std::move(r));
  }
  return results;
}

}  // namespace spider::core
