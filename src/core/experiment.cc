#include "core/experiment.h"

#include <span>
#include <stdexcept>
#include <utility>

#include "core/arena.h"
#include "core/check.h"
#include "telemetry/stream_exporter.h"

namespace spider::core {

double ExperimentResults::aggregate_throughput_kBps() const {
  double total = 0.0;
  for (const ClientResults& c : clients) {
    total += c.traffic.avg_throughput_bytes_per_sec / 1e3;
  }
  return total;
}

double ExperimentResults::mean_client_throughput_kBps() const {
  return clients.empty() ? 0.0
                         : aggregate_throughput_kBps() /
                               static_cast<double>(clients.size());
}

double ExperimentResults::fairness() const {
  if (clients.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const ClientResults& c : clients) {
    const double x = c.traffic.avg_throughput_bytes_per_sec;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(clients.size()) * sum_sq);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.clients < 1) {
    throw std::invalid_argument("ExperimentConfig: clients < 1");
  }
  if (config_.trace_enabled) sim_.telemetry().trace().set_enabled(true);
  medium_ = std::make_unique<phy::Medium>(sim_, rng_.fork("medium"),
                                          config_.medium);
  server_ = std::make_unique<tcp::ContentServer>(sim_);

  std::size_t index = 0;
  for (const auto& desc : config_.aps) {
    backhaul::ApHostConfig host_cfg;
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
    add_client(static_cast<std::uint32_t>(i));
  }
}

Experiment::~Experiment() = default;

void Experiment::add_client(std::uint32_t index) {
  auto client = std::make_unique<Client>(sim_);
  Client* raw = client.get();
  client->device = std::make_unique<ClientDevice>(
      *medium_, net::MacAddress::from_index(0x00C00001u + index));
  client->phase = kClientHeadway * static_cast<std::int64_t>(index);
  client->device->radio().set_position(
      config_.vehicle.position(client->phase));
  client->device->radio().attach_energy_meter(&client->energy);

  client->flows = std::make_unique<FlowManager>(sim_, *client->device);
  client->flows->install_tap();
  client->flows->set_delivery_handler([this, raw](std::int64_t bytes) {
    raw->tracker.record(sim_.now(), bytes);
  });
  client->flows->set_flow_closed_handler(
      [this](std::uint64_t flow_id) { server_->remove_flow(flow_id); });

  const auto connected = [raw](net::Bssid bssid, net::ChannelId channel) {
    raw->flows->open_flow(bssid, channel);
  };
  const auto lost = [raw](net::Bssid bssid) { raw->flows->close_flow(bssid); };
  switch (config_.driver) {
    case DriverKind::kSpider:
      client->spider =
          std::make_unique<SpiderDriver>(sim_, *client->device, config_.spider);
      client->spider->set_connection_handler(connected);
      client->spider->set_disconnection_handler(lost);
      break;
    case DriverKind::kStock:
      client->stock =
          std::make_unique<StockDriver>(sim_, *client->device, config_.stock);
      client->stock->set_connection_handler(connected);
      client->stock->set_disconnection_handler(lost);
      break;
  }
  clients_.push_back(std::move(client));
}

// Hot per mobility tick: the move batch is carved from the drain arena
// (bump-pointer once the first tick warmed the block), and the medium
// applies each move through set_position.
SPIDER_HOT void Experiment::tick() {
  const sim::Time now = sim_.now();
  core::Arena::Scope scope(sim_.arena());
  phy::RadioMove* moves =
      sim_.arena().alloc_array<phy::RadioMove>(clients_.size());
  std::size_t n = 0;
  for (const auto& client : clients_) {
    moves[n++] = phy::RadioMove{&client->device->radio(),
                                config_.vehicle.position(now + client->phase)};
  }
  medium_->move_radios(std::span<const phy::RadioMove>(moves, n));
  // Stop the recurring tick at the horizon: a position applied at or past
  // config_.duration can never influence results, so rescheduling there
  // would only park a dead event chain in the queue.
  if (now + kPositionUpdate < config_.duration) {
    sim_.post_after(kPositionUpdate, [this] { tick(); });
  }
}

ExperimentResults Experiment::run() {
  if (ran_) throw std::logic_error("Experiment::run: already ran");
  ran_ = true;
  if (config_.stream != nullptr) {
    stream_ = std::make_unique<telemetry::StreamSession>(
        *config_.stream, sim_.telemetry(), config_.stream_run_tag,
        kStreamCadence.us());
    stream_->begin(sim_.now().us(), config_.seed);
  }
  for (const auto& client : clients_) {
    if (client->spider) client->spider->start();
    if (client->stock) client->stock->start();
  }
  tick();
  sim_.run_until(config_.duration);
  if (stream_) {
    stream_->finish(sim_.now().us(), sim_.digest(), sim_.events_executed());
  }

  ExperimentResults r;
  for (const auto& client : clients_) {
    ClientResults c;
    c.traffic = client->tracker.report(config_.duration);
    c.joins = client->spider ? client->spider->metrics()
                             : client->stock->metrics();
    c.flows_opened = client->flows->flows_opened();
    c.channel_switches = client->device->switches();
    c.client_joules = client->energy.total_joules();
    r.clients.push_back(std::move(c));
  }
  static_cast<ClientResults&>(r) = r.clients.front();
  r.frames_sent = medium_->frames_sent();
  r.frames_lost = medium_->frames_lost();
  return r;
}

}  // namespace spider::core
