#include "core/scenarios.h"

#include <string>

#include "core/check.h"
#include "core/configs.h"
#include "mobility/deployment.h"

namespace spider::core {

ExperimentConfig amherst_drive(std::uint64_t seed, sim::Time duration) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  sim::Rng rng(seed);
  auto deploy_rng = rng.fork("deploy");
  cfg.aps = mobility::area_deployment(700, 500, 30, deploy_rng);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(600, 400), 10.0);
  return cfg;
}

ExperimentConfig boston_drive(std::uint64_t seed, sim::Time duration) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  sim::Rng rng(seed ^ 0xB057);
  auto deploy_rng = rng.fork("deploy");
  mobility::DeploymentConfig dcfg;
  dcfg.cluster_fraction = 0.55;
  dcfg.backhaul_min_bps = 1.5e6;
  dcfg.backhaul_max_bps = 6e6;
  cfg.aps = mobility::area_deployment(800, 600, 45, deploy_rng, dcfg);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(700, 500), 12.0);
  return cfg;
}

ExperimentConfig static_lab(std::uint64_t seed, int n_aps,
                            net::ChannelId channel, double backhaul_bps,
                            sim::Time duration) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  for (int i = 0; i < n_aps; ++i) {
    mobility::ApDescriptor d;
    d.ssid = "lab-" + std::to_string(i);
    d.mac = net::MacAddress::from_index(0xA0 + static_cast<std::uint32_t>(i));
    d.subnet = net::Ipv4Address{(10u << 24) |
                                (static_cast<std::uint32_t>(0xA0 + i) << 8)};
    d.position = {10.0 + 2.0 * i, 0.0};
    d.channel = channel;
    d.backhaul_bps = backhaul_bps;
    d.dhcp_offer_min = sim::Time::millis(50);
    d.dhcp_offer_max = sim::Time::millis(150);
    cfg.aps.push_back(d);
  }
  return cfg;
}

const char* table2_label(int row) {
  static constexpr const char* kLabels[kTable2Rows] = {
      "(1) Channel 1, Multi-AP", "(2) Channel 1, Single-AP",
      "(3) 3 channels, Multi-AP", "(4) 3 channels, Single-AP",
      "(2) Channel 6, Single-AP (Boston)*", "Stock driver (Boston)*"};
  SPIDER_CHECK(row >= 0 && row < kTable2Rows);
  return kLabels[row];
}

ExperimentConfig table2_row(int row, std::uint64_t seed, sim::Time duration) {
  SPIDER_CHECK(row >= 0 && row < kTable2Rows);
  ExperimentConfig cfg =
      row < 4 ? amherst_drive(seed, duration) : boston_drive(seed, duration);
  switch (row) {
    case 0: cfg.spider = single_channel_multi_ap(1); break;
    case 1: cfg.spider = single_channel_single_ap(1); break;
    case 2: cfg.spider = multi_channel_multi_ap(); break;
    case 3: cfg.spider = multi_channel_single_ap(); break;
    case 4:
      cfg.spider = single_channel_multi_ap(6);
      cfg.spider.multi_ap = false;
      cfg.spider.max_interfaces = 1;
      break;
    default: cfg.driver = DriverKind::kStock; break;
  }
  return cfg;
}

ExperimentConfig contention_fleet(std::uint64_t seed, int clients,
                                  sim::Time duration) {
  ExperimentConfig cfg = amherst_drive(seed, duration);
  cfg.clients = clients;
  cfg.spider = single_channel_multi_ap(1);
  return cfg;
}

}  // namespace spider::core
