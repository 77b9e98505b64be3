// End-to-end experiment harness: deployment + mobility + driver + workload.
//
// Builds one world (a medium, AP hosts with DHCP servers and shaped
// backhauls, a content server), puts `clients` vehicle-mounted clients on
// one route through it, runs it for a configured duration, and reports the
// paper's metrics (throughput, connectivity, join CDFs, disruption and
// connection CDFs) per client and over the fleet. Every vehicular table and
// figure in the evaluation is a one-client parameterization of this
// harness; Section 4.8's contention ablation sweeps the client count.
//
// Construction order fixes RNG forks and event sequence numbers, so it is
// part of the contract: the "medium" fork, then the AP forks by index, then
// the clients in index order, then (in run) the drivers' start in client
// order and the first mobility tick.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "backhaul/ap_host.h"
#include "core/client_device.h"
#include "core/flow_manager.h"
#include "core/metrics.h"
#include "core/spider_driver.h"
#include "core/stock_driver.h"
#include "mobility/deployment.h"
#include "mobility/route.h"
#include "phy/energy.h"
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

// Client radios move to the vehicle's route position at this period.
inline constexpr sim::Time kPositionUpdate = sim::Time::millis(100);
// A streamed run publishes its changed metrics at this period.
inline constexpr sim::Time kStreamCadence = sim::Time::millis(100);
// Client i rides this far ahead of client 0 per index, like vehicles spread
// out in traffic on the same loop.
inline constexpr sim::Time kClientHeadway = sim::Time::seconds(20);

enum class DriverKind : std::uint8_t { kSpider, kStock };

struct ExperimentConfig {
  std::uint64_t seed = 1;
  sim::Time duration = sim::Time::seconds(1800);  // paper: 30-60 min drives
  phy::MediumConfig medium;
  std::vector<mobility::ApDescriptor> aps;
  mobility::Vehicle vehicle{mobility::Route::rectangle(600, 400), 10.0};
  // One-way wired latency AP <-> content server. The paper's D = 400 ms is
  // "equal to two typical RTTs", i.e. end-to-end RTT ~200 ms.
  sim::Time backhaul_latency = sim::Time::millis(100);
  // Every client runs this driver, with the config of its kind.
  DriverKind driver = DriverKind::kSpider;
  SpiderConfig spider;
  StockDriverConfig stock;
  // Vehicles on the route, each with its own device, flows and meters.
  int clients = 1;
  // Turns on the world's trace recorder for this run (spans for joins,
  // channel dwells, DHCP). Off by default: recording costs one stream line
  // per span, and sweeps only want it on a chosen run.
  bool trace_enabled = false;
  // Live telemetry plane (DESIGN.md): when non-null, the run attaches a
  // StreamSession to this exporter and publishes metrics deltas every
  // kStreamCadence of simulated time, plus trace events as they record.
  // Streaming never perturbs the run: digests are identical on and off.
  telemetry::StreamExporter* stream = nullptr;
  std::uint32_t stream_run_tag = 0;  // "run" field on every streamed line
};

// One client's outcome.
struct ClientResults {
  trace::ConnectivityTracker::Report traffic;
  JoinMetrics joins;
  std::uint64_t flows_opened = 0;
  std::uint64_t channel_switches = 0;
  // Client-radio energy (state-based model; see phy/energy.h).
  double client_joules = 0.0;
  double joules_per_megabyte() const {
    const double mb = static_cast<double>(traffic.total_bytes) / 1e6;
    return mb > 0.0 ? client_joules / mb : 0.0;
  }

  double avg_throughput_kbps() const {
    return traffic.avg_throughput_bytes_per_sec * 8.0 / 1000.0;
  }
  double avg_throughput_kBps() const {
    return traffic.avg_throughput_bytes_per_sec / 1000.0;
  }
  double connectivity_percent() const {
    return traffic.connectivity_fraction * 100.0;
  }
};

// The run's report: client 0's record at the top level (the one vehicle of
// every table and figure), every client's in `clients`, and the world's.
struct ExperimentResults : ClientResults {
  std::vector<ClientResults> clients;  // index order; clients[0] is the base
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;

  double aggregate_throughput_kBps() const;
  double mean_client_throughput_kBps() const;
  // Jain's fairness index over per-client throughput (1 = perfectly fair).
  double fairness() const;
};

class Experiment {
 public:
  // Throws std::invalid_argument when config.clients < 1.
  explicit Experiment(ExperimentConfig config);
  ~Experiment();  // out of line: StreamSession is incomplete here

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs to completion and returns the report. Call once.
  ExperimentResults run();

  // Exposed for tests and custom benches that want to poke the world. The
  // driver and flow accessors are client 0's; spider() is null for a stock
  // world and stock() for a Spider one.
  sim::Simulator& simulator() { return sim_; }
  phy::Medium& medium() { return *medium_; }
  tcp::ContentServer& server() { return *server_; }
  ClientDevice& device() { return client_device(0); }
  ClientDevice& client_device(std::size_t i) { return *clients_[i]->device; }
  SpiderDriver* spider() { return clients_[0]->spider.get(); }
  StockDriver* stock() { return clients_[0]->stock.get(); }
  FlowManager& flows() { return *clients_[0]->flows; }
  backhaul::ApHost& ap_host(std::size_t i) { return *ap_hosts_[i]; }
  std::size_t ap_count() const { return ap_hosts_.size(); }

 private:
  // Declared so that each client's parts are destroyed before its device.
  struct Client {
    explicit Client(sim::Simulator& sim) : energy(sim) {}
    std::unique_ptr<ClientDevice> device;
    std::unique_ptr<SpiderDriver> spider;
    std::unique_ptr<StockDriver> stock;
    std::unique_ptr<FlowManager> flows;
    phy::EnergyMeter energy;
    trace::ConnectivityTracker tracker;
    sim::Time phase;  // how far ahead on the route this client rides
  };

  void add_client(std::uint32_t index);
  void tick();

  ExperimentConfig config_;
  sim::Simulator sim_;
  sim::Rng rng_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<tcp::ContentServer> server_;
  std::vector<std::unique_ptr<backhaul::ApHost>> ap_hosts_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool ran_ = false;
  // Last member: destroyed first, so the session disarms the Hub while the
  // simulator and the world's collectors are still alive.
  std::unique_ptr<telemetry::StreamSession> stream_;
};

}  // namespace spider::core
