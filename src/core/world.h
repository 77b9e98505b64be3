// The world both vehicular harnesses run in: one deployment, one medium,
// APs with DHCP servers and shaped backhauls, a content server, and the
// client radios riding a vehicle route.
//
// World assembles the shared part (simulator, RNG, medium, content server,
// AP hosts, trace switch, live stream session), moves every registered
// client radio in one batched mobility tick, and runs the start -> run_until
// -> stream-finish sequence. Experiment (one vehicle, either driver) and
// FleetExperiment (N staggered Spider clients) build their clients on top.
//
// Construction order fixes RNG forks and event sequence numbers, so it is
// part of the contract: the "medium" fork, then the AP forks by index, then
// whatever the harness builds, then (in run) the harness's start hook and
// the first mobility tick.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "backhaul/ap_host.h"
#include "core/spider_driver.h"
#include "mobility/deployment.h"
#include "mobility/route.h"
#include "phy/medium.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"

namespace spider::telemetry {
class StreamExporter;
class StreamSession;
}  // namespace spider::telemetry

namespace spider::core {

// Client radios move to the vehicle's route position at this period.
inline constexpr sim::Time kPositionUpdate = sim::Time::millis(100);
// A streamed run publishes its changed metrics at this period.
inline constexpr sim::Time kStreamCadence = sim::Time::millis(100);

// Fields every harness shares; ExperimentConfig and FleetConfig add their
// own on top.
struct WorldConfig {
  std::uint64_t seed = 1;
  sim::Time duration = sim::Time::seconds(1800);  // paper: 30-60 min drives
  phy::MediumConfig medium;
  std::vector<mobility::ApDescriptor> aps;
  mobility::Vehicle vehicle{mobility::Route::rectangle(600, 400), 10.0};
  // One-way wired latency AP <-> content server. The paper's D = 400 ms is
  // "equal to two typical RTTs", i.e. end-to-end RTT ~200 ms.
  sim::Time backhaul_latency = sim::Time::millis(100);
  tcp::TcpConfig tcp;
  SpiderConfig spider;
  // MAC-layer knobs applied to every AP (ssid/channel still come from each
  // ApDescriptor) — e.g. the beacon interval, world-wide.
  mac::AccessPointConfig ap_mac;
  // Turns on the world's trace recorder for this run (Chrome trace-event
  // spans for joins, channel dwells, DHCP). Off by default: recording costs
  // one ring write per span, and sweeps only want it on a chosen run.
  bool trace_enabled = false;
  // Live telemetry plane (DESIGN.md): when non-null, the run attaches a
  // StreamSession to this exporter and publishes metrics deltas every
  // kStreamCadence of simulated time, plus trace events as they record.
  // Streaming never perturbs the run: digests are identical on and off.
  telemetry::StreamExporter* stream = nullptr;
  std::uint32_t stream_run_tag = 0;  // "run" field on every streamed line
};

class World {
 public:
  // `config` is read for the world's whole life; the owning harness keeps it.
  explicit World(const WorldConfig& config);
  ~World();  // out of line: StreamSession is incomplete here

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Puts `radio` where the vehicle is `phase` into its route and moves it
  // with the vehicle on every mobility tick from then on.
  void add_rider(phy::Radio& radio, sim::Time phase);

  // Opens the stream session (if configured), calls `start_clients`, starts
  // the mobility tick, runs to the horizon and closes the stream. Call once.
  void run(const std::function<void()>& start_clients);

  sim::Simulator& simulator() { return sim_; }
  phy::Medium& medium() { return *medium_; }
  tcp::ContentServer& server() { return *server_; }
  backhaul::ApHost& ap_host(std::size_t i) { return *ap_hosts_[i]; }
  std::size_t ap_count() const { return ap_hosts_.size(); }

 private:
  struct Rider {
    phy::Radio* radio = nullptr;
    sim::Time phase;  // how far ahead on the route this radio rides
  };

  void tick();

  const WorldConfig& config_;
  sim::Simulator sim_;
  sim::Rng rng_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<tcp::ContentServer> server_;
  std::vector<std::unique_ptr<backhaul::ApHost>> ap_hosts_;
  std::vector<Rider> riders_;
  bool ran_ = false;
  // Last member: destroyed first, so the session disarms the Hub while the
  // simulator is still alive.
  std::unique_ptr<telemetry::StreamSession> stream_;
};

}  // namespace spider::core
