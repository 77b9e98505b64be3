// End-to-end experiment harness: deployment + mobility + driver + workload.
//
// Assembles the full world — medium, AP hosts with DHCP servers and shaped
// backhauls, a content server, a vehicle-mounted client running either
// Spider or the stock driver — runs it for a configured duration, and
// reports the paper's metrics (throughput, connectivity, join CDFs,
// disruption/connection CDFs). Every vehicular table and figure in the
// evaluation is a parameterization of this harness.
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
#include "phy/medium.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"
#include "trace/connectivity.h"
#include "trace/frame_log.h"

namespace spider::telemetry {
class StreamExporter;
class StreamSession;
}  // namespace spider::telemetry

namespace spider::core {

enum class DriverKind : std::uint8_t { kSpider, kStock };

struct ExperimentConfig {
  std::uint64_t seed = 1;
  sim::Time duration = sim::Time::seconds(1800);  // paper: 30-60 min drives
  phy::MediumConfig medium;
  std::vector<mobility::ApDescriptor> aps;
  mobility::Vehicle vehicle{mobility::Route::rectangle(600, 400), 10.0};
  sim::Time position_update = sim::Time::millis(100);
  // One-way wired latency AP <-> content server. The paper's D = 400 ms is
  // "equal to two typical RTTs", i.e. end-to-end RTT ~200 ms.
  sim::Time backhaul_latency = sim::Time::millis(100);
  tcp::TcpConfig tcp;
  DriverKind driver = DriverKind::kSpider;
  SpiderConfig spider;
  StockDriverConfig stock;
  mac::AccessPointConfig ap_mac;  // ssid/channel overridden per descriptor
  // Uplink rate adaptation at the client (mirrors ap_mac.auto_rate).
  bool client_auto_rate = false;
  // Turns on the world's trace recorder for this run (Chrome trace-event
  // spans for joins, channel dwells, DHCP). Off by default: recording costs
  // one ring write per span, and sweeps only want it on a chosen run.
  bool trace_enabled = false;
  std::size_t trace_capacity = telemetry::TraceRecorder::kDefaultCapacity;
  // Live telemetry plane (DESIGN.md): when non-null, the experiment attaches
  // a StreamSession to this exporter and publishes metrics deltas at
  // `stream_cadence` of simulated time, plus trace events as they record.
  // Streaming never perturbs the run: digests are identical on and off.
  telemetry::StreamExporter* stream = nullptr;
  std::uint32_t stream_run_tag = 0;  // "run" field on every streamed line
  sim::Time stream_cadence = sim::Time::millis(100);
  std::size_t stream_ring_capacity = 1 << 15;
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
  ~Experiment();  // out of line: stream_ points at an incomplete type here

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs to completion and returns the report. Call once.
  ExperimentResults run();

  // Attaches a tcpdump-style tap recording every frame on the medium.
  // Call before run(); the log must outlive the experiment's run.
  void attach_frame_log(trace::FrameLog& log);

  // Exposed for tests and custom benches that want to poke the world.
  sim::Simulator& simulator() { return sim_; }
  phy::Medium& medium() { return *medium_; }
  tcp::ContentServer& server() { return *server_; }
  ClientDevice& device() { return *device_; }
  SpiderDriver* spider() { return spider_.get(); }
  StockDriver* stock() { return stock_.get(); }
  FlowManager& flows() { return *flows_; }
  backhaul::ApHost& ap_host(std::size_t i) { return *ap_hosts_[i]; }
  std::size_t ap_count() const { return ap_hosts_.size(); }

 private:
  void update_position();

  ExperimentConfig config_;
  sim::Simulator sim_;
  sim::Rng rng_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<tcp::ContentServer> server_;
  std::vector<std::unique_ptr<backhaul::ApHost>> ap_hosts_;
  std::unique_ptr<ClientDevice> device_;
  std::unique_ptr<SpiderDriver> spider_;
  std::unique_ptr<StockDriver> stock_;
  std::unique_ptr<FlowManager> flows_;
  std::unique_ptr<phy::EnergyMeter> energy_;
  trace::ConnectivityTracker tracker_;
  // Last member: destroyed first, so the session detaches (and drains its
  // ring) while the world and its registry strings are still alive.
  std::unique_ptr<telemetry::StreamSession> stream_;
  bool ran_ = false;
};

}  // namespace spider::core
