// Fleet experiment — several Spider clients sharing one deployment.
//
// Section 4.8 asks what happens "as more users adopt concurrent Wi-Fi
// schemes": clients contend for airtime (the medium serializes each
// channel), for AP backhauls, and for DHCP pools. This harness runs N
// vehicle-mounted clients staggered along the same route and reports
// per-client and aggregate metrics, so the contention ablation can sweep N.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "backhaul/ap_host.h"
#include "core/client_device.h"
#include "core/flow_manager.h"
#include "core/metrics.h"
#include "core/spider_driver.h"
#include "mobility/deployment.h"
#include "mobility/route.h"
#include "phy/medium.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"
#include "trace/connectivity.h"

namespace spider::telemetry {
class StreamExporter;
class StreamSession;
}  // namespace spider::telemetry

namespace spider::core {

struct FleetConfig {
  std::uint64_t seed = 1;
  sim::Time duration = sim::Time::seconds(600);
  int clients = 4;
  // Clients are spread along the route with this headway (distance the
  // route is "rewound" per client), like vehicles in traffic.
  sim::Time headway = sim::Time::seconds(20);
  phy::MediumConfig medium;
  // MAC-layer knobs applied to every AP (ssid/channel still come from each
  // ApDescriptor) — e.g. the beacon interval or auto-rate, fleet-wide.
  mac::AccessPointConfig ap_mac;
  std::vector<mobility::ApDescriptor> aps;
  mobility::Vehicle vehicle{mobility::Route::rectangle(600, 400), 10.0};
  sim::Time position_update = sim::Time::millis(100);
  sim::Time backhaul_latency = sim::Time::millis(100);
  tcp::TcpConfig tcp;
  SpiderConfig spider;
  // Live telemetry plane — same contract as ExperimentConfig::stream.
  telemetry::StreamExporter* stream = nullptr;
  std::uint32_t stream_run_tag = 0;
  sim::Time stream_cadence = sim::Time::millis(100);
  std::size_t stream_ring_capacity = 1 << 15;
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
  ~FleetExperiment();  // out of line: StreamSession is incomplete here

  FleetExperiment(const FleetExperiment&) = delete;
  FleetExperiment& operator=(const FleetExperiment&) = delete;

  FleetResults run();

  sim::Simulator& simulator() { return sim_; }

  // Test access to the fleet's devices (e.g. position assertions).
  std::size_t client_count() const { return clients_.size(); }
  ClientDevice& client_device(std::size_t i) { return *clients_[i]->device; }

 private:
  struct Client {
    std::unique_ptr<ClientDevice> device;
    std::unique_ptr<SpiderDriver> driver;
    std::unique_ptr<FlowManager> flows;
    trace::ConnectivityTracker tracker;
    sim::Time phase;  // how far ahead on the route this client starts
  };

  void update_positions();

  FleetConfig config_;
  sim::Simulator sim_;
  sim::Rng rng_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<tcp::ContentServer> server_;
  std::vector<std::unique_ptr<backhaul::ApHost>> ap_hosts_;
  std::vector<std::unique_ptr<Client>> clients_;
  // Last member: destroyed first, detaching/draining before the world dies.
  std::unique_ptr<telemetry::StreamSession> stream_;
  bool ran_ = false;
};

}  // namespace spider::core
