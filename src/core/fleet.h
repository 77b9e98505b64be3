// Fleet experiment — several Spider clients sharing one deployment.
//
// Section 4.8 asks what happens "as more users adopt concurrent Wi-Fi
// schemes": clients contend for airtime (the medium serializes each
// channel), for AP backhauls, and for DHCP pools. This harness puts N
// vehicle-mounted clients, staggered along the same route, into the shared
// world (core/world.h) and reports per-client and aggregate metrics, so the
// contention ablation can sweep N.
#pragma once

#include <memory>
#include <vector>

#include "core/client_device.h"
#include "core/flow_manager.h"
#include "core/metrics.h"
#include "core/spider_driver.h"
#include "core/world.h"
#include "trace/connectivity.h"

namespace spider::core {

struct FleetConfig : WorldConfig {
  FleetConfig() { duration = sim::Time::seconds(600); }  // 10 min fleets
  int clients = 4;
  // Clients are spread along the route with this headway (distance the
  // route is "rewound" per client), like vehicles in traffic.
  sim::Time headway = sim::Time::seconds(20);
};

struct FleetClientResults {
  trace::ConnectivityTracker::Report traffic;
  JoinMetrics joins;
};

struct FleetResults {
  std::vector<FleetClientResults> clients;

  double aggregate_throughput_kBps() const;
  double mean_client_throughput_kBps() const;
  // Jain's fairness index over per-client throughput (1 = perfectly fair).
  double fairness() const;
};

class FleetExperiment {
 public:
  explicit FleetExperiment(FleetConfig config);

  FleetExperiment(const FleetExperiment&) = delete;
  FleetExperiment& operator=(const FleetExperiment&) = delete;

  FleetResults run();

  sim::Simulator& simulator() { return world_.simulator(); }

  // Test access to the fleet's devices (e.g. position assertions).
  std::size_t client_count() const { return clients_.size(); }
  ClientDevice& client_device(std::size_t i) { return *clients_[i]->device; }

 private:
  struct Client {
    std::unique_ptr<ClientDevice> device;
    std::unique_ptr<SpiderDriver> driver;
    std::unique_ptr<FlowManager> flows;
    trace::ConnectivityTracker tracker;
  };

  FleetConfig config_;  // before world_, which reads it
  World world_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace spider::core
