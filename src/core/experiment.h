// End-to-end experiment harness: deployment + mobility + driver + workload.
//
// Puts a vehicle-mounted client running either Spider or the stock driver
// into the shared world (core/world.h: medium, AP hosts with DHCP servers
// and shaped backhauls, a content server), runs it for a configured
// duration, and reports the paper's metrics (throughput, connectivity, join
// CDFs, disruption/connection CDFs). Every vehicular table and figure in the
// evaluation is a parameterization of this harness.
#pragma once

#include <cstdint>
#include <memory>

#include "core/client_device.h"
#include "core/flow_manager.h"
#include "core/metrics.h"
#include "core/spider_driver.h"
#include "core/stock_driver.h"
#include "core/world.h"
#include "phy/energy.h"
#include "trace/connectivity.h"
#include "trace/frame_log.h"

namespace spider::core {

enum class DriverKind : std::uint8_t { kSpider, kStock };

struct ExperimentConfig : WorldConfig {
  DriverKind driver = DriverKind::kSpider;
  StockDriverConfig stock;
};

struct ExperimentResults {
  trace::ConnectivityTracker::Report traffic;
  JoinMetrics joins;
  std::uint64_t flows_opened = 0;
  std::uint64_t channel_switches = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
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

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs to completion and returns the report. Call once.
  ExperimentResults run();

  // Attaches a tcpdump-style tap recording every frame on the medium.
  // Call before run(); the log must outlive the experiment's run.
  void attach_frame_log(trace::FrameLog& log);

  // Exposed for tests and custom benches that want to poke the world.
  sim::Simulator& simulator() { return world_.simulator(); }
  phy::Medium& medium() { return world_.medium(); }
  tcp::ContentServer& server() { return world_.server(); }
  ClientDevice& device() { return *device_; }
  SpiderDriver* spider() { return spider_.get(); }
  StockDriver* stock() { return stock_.get(); }
  FlowManager& flows() { return *flows_; }
  backhaul::ApHost& ap_host(std::size_t i) { return world_.ap_host(i); }
  std::size_t ap_count() const { return world_.ap_count(); }

 private:
  ExperimentConfig config_;  // before world_, which reads it
  World world_;
  std::unique_ptr<ClientDevice> device_;
  std::unique_ptr<SpiderDriver> spider_;
  std::unique_ptr<StockDriver> stock_;
  std::unique_ptr<FlowManager> flows_;
  std::unique_ptr<phy::EnergyMeter> energy_;
  trace::ConnectivityTracker tracker_;
};

}  // namespace spider::core
