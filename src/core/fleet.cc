#include "core/fleet.h"

#include <stdexcept>
#include <utility>

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
    : config_(std::move(config)), world_(config_) {
  if (config_.clients < 1)
    throw std::invalid_argument("FleetConfig: clients < 1");

  sim::Simulator& sim = world_.simulator();
  for (int i = 0; i < config_.clients; ++i) {
    auto client = std::make_unique<Client>();
    client->device = std::make_unique<ClientDevice>(
        world_.medium(),
        net::MacAddress::from_index(0x00C10000u +
                                    static_cast<std::uint32_t>(i)));
    world_.add_rider(client->device->radio(), config_.headway * i);
    client->driver =
        std::make_unique<SpiderDriver>(sim, *client->device, config_.spider);
    client->flows = std::make_unique<FlowManager>(sim, *client->device,
                                                  config_.tcp);
    client->flows->install_tap();
    Client* raw = client.get();
    client->flows->set_delivery_handler([this, raw](std::int64_t bytes) {
      raw->tracker.record(world_.simulator().now(), bytes);
    });
    client->flows->set_flow_closed_handler([this](std::uint64_t flow_id) {
      world_.server().remove_flow(flow_id);
    });
    client->driver->set_connection_handler(
        [raw](const VirtualInterface& vif) {
          raw->flows->open_flow(vif.bssid, vif.channel);
        });
    client->driver->set_disconnection_handler(
        [raw](net::Bssid bssid) { raw->flows->close_flow(bssid); });
    clients_.push_back(std::move(client));
  }
}

FleetResults FleetExperiment::run() {
  world_.run([this] {
    for (auto& client : clients_) client->driver->start();
  });

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
