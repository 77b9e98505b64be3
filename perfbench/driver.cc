// Benchmark driver: runs one named workload of the paper's experiments
// through the simulator's public API and prints one JSON object.
//
//   spider_perfbench --workload drive|lab|fleet|model --seed N
//                    [--seconds S | --batches K] [--list-configs]
//
// A workload is a fixed batch of operations: worlds (core::Experiment or
// core::FleetExperiment) or dividing-speed solves (model::dividing_speed).
// Every input is generated here from --seed; the program only sees the
// resulting configs. Batches run back to back on one thread (closed loop)
// until --seconds have elapsed, or exactly --batches times. Each batch
// yields one run-time sample per operation (world construction excluded).
// Set-up time (config generation plus world construction) is sampled per
// operation by kSetupRounds set-up-only rounds after the batches, so every
// sample is taken under the same conditions; fixed --batches runs skip them.
//
// The output carries, for run.py to check: one record per operation of the
// first batch, each later batch's combined digest (a repeated batch must
// replay exactly), and the first batch's counters from the layers' public
// getters and the world's telemetry::Hub snapshot.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "mobility/deployment.h"
#include "mobility/route.h"
#include "model/throughput_opt.h"
#include "sim/random.h"
#include "telemetry/metrics.h"

#ifndef PERFBENCH_ALLOC_METER
#define PERFBENCH_ALLOC_METER 0
#endif
#if PERFBENCH_ALLOC_METER
#include "core/alloc_guard.h"
#endif

namespace perfbench {
namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRounds = 50;

// --- Workload shapes ---------------------------------------------------------

// drive: Table 2's rows, each replicated over kDriveSeedsPerRow world seeds.
constexpr int kDriveSeedsPerRow = 4;
constexpr double kDriveSeconds = 300.0;
// lab: Fig. 9's Spider arms at a high per-AP backhaul.
constexpr int kLabSeedsPerArm = 6;
constexpr double kLabSeconds = 300.0;
constexpr double kLabBackhaulBps = 5e6;
// fleet: the contention ablation at 200 clients.
constexpr int kFleetWorlds = 2;
constexpr int kFleetClients = 200;
constexpr double kFleetSeconds = 60.0;
// model: Fig. 4's three scenarios at two ranges.
constexpr double kModelRanges[] = {100.0, 50.0};
constexpr double kModelJoinedShares[] = {0.25, 0.50, 0.75};
constexpr int kModelSetupLoops = 2000;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// World seed of operation `index` in the batch of workload seed `seed`.
std::uint64_t world_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(mix64(seed) ^ (index + 1));
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- Generated configs --------------------------------------------------------
//
// amherst_drive, boston_drive, lab_arm and drive_row follow bench/common.h and
// bench/table2_configs.cc but are copied on purpose: the benchmark's
// workloads must stay fixed when the paper benches are edited, and
// bench/common.h would also pull in the sweep and stream-exporter plumbing
// the single-threaded benchmark avoids.

core::ExperimentConfig amherst_drive(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(kDriveSeconds);
  sim::Rng deploy = sim::Rng(seed).fork("deploy");
  cfg.aps = mobility::area_deployment(700, 500, 30, deploy);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(600, 400), 10.0);
  return cfg;
}

core::ExperimentConfig boston_drive(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(kDriveSeconds);
  sim::Rng deploy = sim::Rng(seed ^ 0xB057).fork("deploy");
  mobility::DeploymentConfig dcfg;
  dcfg.cluster_fraction = 0.55;
  dcfg.backhaul_min_bps = 1.5e6;
  dcfg.backhaul_max_bps = 6e6;
  cfg.aps = mobility::area_deployment(800, 600, 45, deploy, dcfg);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(700, 500), 12.0);
  return cfg;
}

// One Table 2 row: a named config on the Amherst or Boston drive.
core::ExperimentConfig drive_row(int row, std::uint64_t seed) {
  switch (row) {
    case 0: {
      auto cfg = amherst_drive(seed);
      cfg.spider = core::single_channel_multi_ap(1);
      return cfg;
    }
    case 1: {
      auto cfg = amherst_drive(seed);
      cfg.spider = core::single_channel_single_ap(1);
      return cfg;
    }
    case 2: {
      auto cfg = amherst_drive(seed);
      cfg.spider = core::multi_channel_multi_ap();
      return cfg;
    }
    case 3: {
      auto cfg = amherst_drive(seed);
      cfg.spider = core::multi_channel_single_ap();
      return cfg;
    }
    case 4: {
      auto cfg = boston_drive(seed);
      cfg.spider = core::single_channel_multi_ap(6);
      cfg.spider.multi_ap = false;
      cfg.spider.max_interfaces = 1;
      return cfg;
    }
    default: {
      auto cfg = boston_drive(seed);
      cfg.driver = core::DriverKind::kStock;
      return cfg;
    }
  }
}
constexpr const char* kDriveRowNames[] = {
    "amherst.ch1-multi", "amherst.ch1-single", "amherst.3ch-multi",
    "amherst.3ch-single", "boston.ch6-single", "boston.stock"};
constexpr int kDriveRows = 6;

// Fig. 9's static lab: APs a few metres from a parked client. The seed picks
// the world seed and jitters each AP by up to a metre.
core::ExperimentConfig lab_arm(int arm, std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(kLabSeconds);
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  sim::Rng jitter = sim::Rng(seed).fork("lab");
  // Arm 0: Spider on channel 1 with two APs there. Arm 1: one AP on each of
  // channels 1 and 11, 50 ms on each.
  const net::ChannelId channels[2] = {1, static_cast<net::ChannelId>(
                                             arm == 0 ? 1 : 11)};
  for (int i = 0; i < 2; ++i) {
    mobility::ApDescriptor d;
    d.ssid = "lab-" + std::to_string(i);
    d.mac = net::MacAddress::from_index(0xA0 + static_cast<std::uint32_t>(i));
    d.subnet = net::Ipv4Address{(10u << 24) |
                                (static_cast<std::uint32_t>(0xA0 + i) << 8)};
    d.position = {10.0 + 2.0 * i + jitter.uniform(-1.0, 1.0),
                  jitter.uniform(-1.0, 1.0)};
    d.channel = channels[i];
    d.backhaul_bps = kLabBackhaulBps;
    d.dhcp_offer_min = sim::Time::millis(50);
    d.dhcp_offer_max = sim::Time::millis(150);
    cfg.aps.push_back(d);
  }
  cfg.spider = core::single_channel_multi_ap(1);
  if (arm == 0) {
    cfg.spider.schedule = {{1, 1.0}};
    cfg.spider.period = sim::Time::millis(400);
  } else {
    cfg.spider.schedule = {{1, 0.5}, {11, 0.5}};
    cfg.spider.period = sim::Time::millis(100);
  }
  return cfg;
}
constexpr const char* kLabArmNames[] = {"lab.ch1-2ap", "lab.ch1-ch11-50"};

// The fleet runs on fixed towns (the contention ablation's deployment seeds):
// a 200-client world's cost follows its channel-1 AP count, which varies too
// much between generated towns for one batch to average out. The workload
// seed drives everything else in the world.
constexpr std::uint64_t kFleetTowns[] = {7, 17};

core::FleetConfig fleet_world(int town, std::uint64_t seed) {
  core::FleetConfig cfg;
  cfg.seed = seed;
  cfg.clients = kFleetClients;
  cfg.duration = sim::Time::seconds(kFleetSeconds);
  sim::Rng deploy = sim::Rng(kFleetTowns[town]).fork("deploy");
  cfg.aps = mobility::area_deployment(700, 500, 30, deploy);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(600, 400), 10.0);
  cfg.spider = core::single_channel_multi_ap(1);
  return cfg;
}

// One Fig. 4 solve: joined share of channel 1 and the coverage range.
struct Solve {
  int scenario = 0;
  double range_m = 0.0;
  model::OptimizerParams params;
  model::ChannelOffer ch1;
  model::ChannelOffer ch2;
};

// The six solves, in an order the seed permutes (inputs are the paper's).
std::vector<Solve> model_batch(std::uint64_t seed) {
  std::vector<Solve> solves;
  for (double range : kModelRanges) {
    for (int s = 0; s < 3; ++s) {
      Solve solve;
      solve.scenario = s;
      solve.range_m = range;
      solve.params.join.beta_max = 10.0;
      const double bw = solve.params.wireless_bps;
      solve.ch1 = {kModelJoinedShares[s] * bw, 0.0};
      solve.ch2 = {0.0, (1.0 - kModelJoinedShares[s]) * bw};
      solves.push_back(solve);
    }
  }
  sim::Rng order = sim::Rng(seed).fork("model");
  for (std::size_t i = solves.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        order.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(solves[i - 1], solves[j]);
  }
  return solves;
}

// --- Workload table -----------------------------------------------------------

enum class Kind { kDrive, kLab, kFleet, kModel };

struct Workload {
  const char* name;
  Kind kind;
  int ops;  // operations per batch
};

constexpr Workload kWorkloads[] = {
    {"drive", Kind::kDrive, kDriveRows * kDriveSeedsPerRow},
    {"lab", Kind::kLab, 2 * kLabSeedsPerArm},
    {"fleet", Kind::kFleet, kFleetWorlds},
    {"model", Kind::kModel, 6},
};

// A generated simulator world: exactly one of the two configs is used.
struct WorldSpec {
  std::string label;
  bool is_fleet = false;
  core::ExperimentConfig exp;
  core::FleetConfig fleet;
};

WorldSpec make_world(const Workload& w, std::uint64_t seed, int op) {
  WorldSpec spec;
  const std::uint64_t ws = world_seed(seed, static_cast<std::uint64_t>(op));
  switch (w.kind) {
    case Kind::kDrive: {
      const int row = op % kDriveRows;
      spec.label = kDriveRowNames[row];
      spec.exp = drive_row(row, ws);
      break;
    }
    case Kind::kLab: {
      const int arm = op % 2;
      spec.label = kLabArmNames[arm];
      spec.exp = lab_arm(arm, ws);
      break;
    }
    case Kind::kFleet:
      spec.label = "fleet.amherst-200";
      spec.is_fleet = true;
      spec.fleet = fleet_world(op % 2, ws);
      break;
    case Kind::kModel:
      break;
  }
  return spec;
}

// --- Counters and records -------------------------------------------------------

using Counters = std::map<std::string, double>;

void add(Counters& c, const std::string& name, double v) { c[name] += v; }
void raise(Counters& c, const std::string& name, double v) {
  c[name] = std::max(c[name], v);
}

struct Record {
  std::string json;  // one operation's fields, as a JSON object
  std::uint64_t digest = 0;
  double run_s = 0.0;  // wall time, world construction excluded
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "\"nan\"";  // run.py flags non-finite values
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Hub counters each layer publishes, under the benchmark's metric names.
constexpr std::pair<const char*, const char*> kHubCounters[] = {
    {"phy.frames_sent", "phy.frames_sent"},
    {"phy.frames_delivered", "phy.frames_delivered"},
    {"phy.frames_lost", "phy.frames_lost"},
    {"phy.deliveries.grid", "phy.deliveries_grid"},
    {"phy.deliveries.scan", "phy.deliveries_scan"},
    {"mac.ap.auth_grants", "mac.auth_grants"},
    {"mac.ap.assoc_grants", "mac.assoc_grants"},
    {"mac.ap.psm_enters", "mac.psm_enters"},
    {"mac.ap.frames_buffered", "mac.frames_buffered"},
    {"mac.ap.buffer_drops", "mac.buffer_drops"},
    {"mac.session.retries", "mac.session_retries"},
    {"dhcp.discover_sent", "dhcpd.discover_sent"},
    {"dhcp.request_sent", "dhcpd.request_sent"},
    {"dhcp.message_timeouts", "dhcpd.message_timeouts"},
    {"dhcp.bound", "dhcpd.bound"},
    {"dhcp.attempt_windows", "dhcpd.attempt_windows"},
    {"driver.schedule_switches", "core.schedule_switches"},
};

void collect_world(sim::Simulator& sim, Counters& c) {
  add(c, "sim.events_fired", static_cast<double>(sim.events_executed()));
  add(c, "sim.events_posted", static_cast<double>(sim.events_posted()));
  add(c, "sim.events_cancelled", static_cast<double>(sim.events_cancelled()));
  add(c, "sim.cascades", static_cast<double>(sim.scheduler_cascades()));
  raise(c, "sim.queue_depth_hw",
        static_cast<double>(sim.queue_depth_high_water()));
  const telemetry::MetricsSnapshot snap = sim.telemetry().collect();
  for (const auto& [hub_name, name] : kHubCounters) {
    add(c, name, static_cast<double>(snap.counter_value(hub_name)));
  }
}

// Per-operation fields shared by both world kinds.
struct WorldOutcome {
  double throughput_kBps = 0.0;
  double connectivity = 0.0;
  double bytes = 0.0;
  double joins = 0.0;
  double join_attempts = 0.0;
  double associations = 0.0;
  double channel_switches = 0.0;
  double radios = 0.0;
  double client_rx = 0.0;  // receptions at client radios
};

void add_joins(WorldOutcome& o, const core::JoinMetrics& j) {
  o.joins += static_cast<double>(j.joins);
  o.join_attempts += static_cast<double>(j.join_attempts);
  o.associations += static_cast<double>(j.associations);
}

std::string world_json(const WorldSpec& spec, std::uint64_t seed,
                       std::uint64_t digest, std::uint64_t check_failures,
                       const WorldOutcome& o, const Counters& world) {
  const auto get = [&world](const char* name) {
    const auto it = world.find(name);
    return it == world.end() ? 0.0 : it->second;
  };
  std::string s = "{\"label\":\"" + spec.label + "\",\"seed\":" +
                  std::to_string(seed) + ",\"digest\":\"" + hex(digest) +
                  "\",\"check_failures\":" + std::to_string(check_failures);
  const std::pair<const char*, double> fields[] = {
      {"throughput_kBps", o.throughput_kBps},
      {"connectivity", o.connectivity},
      {"bytes", o.bytes},
      {"joins", o.joins},
      {"join_attempts", o.join_attempts},
      {"associations", o.associations},
      {"radios", o.radios},
      {"duration_s", (spec.is_fleet ? spec.fleet.duration : spec.exp.duration)
                         .sec()},
      {"events", get("sim.events_fired")},
      {"frames_sent", get("phy.frames_sent")},
      {"frames_delivered", get("phy.frames_delivered")},
      {"frames_lost", get("phy.frames_lost")},
  };
  for (const auto& [name, value] : fields) {
    s += ",\"";
    s += name;
    s += "\":" + num(value);
  }
  return s + "}";
}

// Builds and runs one simulator world; returns its record (timed from the
// end of construction until the world is destroyed) and adds its counters to
// `batch` when non-null.
Record run_world(const WorldSpec& spec, std::uint64_t seed, Counters* batch,
                 double& alloc_count) {
  const std::uint64_t failures_before = check::failures();
  Counters world;
  WorldOutcome o;
  std::uint64_t digest = 0;
  Clock::time_point run_start;
  const auto metered_run = [&alloc_count](auto& experiment) {
#if PERFBENCH_ALLOC_METER
    core::ScopedAllocGuard meter("perfbench world");
    meter.dismiss();
    auto results = experiment.run();
    alloc_count += static_cast<double>(meter.allocations());
    return results;
#else
    (void)alloc_count;
    return experiment.run();
#endif
  };
  if (spec.is_fleet) {
    core::FleetExperiment fleet(spec.fleet);
    run_start = Clock::now();
    const core::FleetResults r = metered_run(fleet);
    digest = fleet.simulator().digest();
    collect_world(fleet.simulator(), world);
    o.throughput_kBps = r.aggregate_throughput_kBps();
    for (std::size_t i = 0; i < r.clients.size(); ++i) {
      o.connectivity +=
          r.clients[i].traffic.connectivity_fraction / r.clients.size();
      o.bytes += static_cast<double>(r.clients[i].traffic.total_bytes);
      add_joins(o, r.clients[i].joins);
      o.channel_switches +=
          static_cast<double>(fleet.client_device(i).switches());
      o.client_rx +=
          static_cast<double>(fleet.client_device(i).radio().frames_rx());
    }
    o.radios = static_cast<double>(spec.fleet.aps.size() + r.clients.size());
  } else {
    core::Experiment experiment(spec.exp);
    run_start = Clock::now();
    const core::ExperimentResults r = metered_run(experiment);
    digest = experiment.simulator().digest();
    collect_world(experiment.simulator(), world);
    o.throughput_kBps = r.avg_throughput_kBps();
    o.connectivity = r.traffic.connectivity_fraction;
    o.bytes = static_cast<double>(r.traffic.total_bytes);
    add_joins(o, r.joins);
    o.channel_switches = static_cast<double>(r.channel_switches);
    o.client_rx = static_cast<double>(experiment.device().radio().frames_rx());
    o.radios = static_cast<double>(spec.exp.aps.size() + 1);
  }
  const double run_s = seconds_since(run_start);  // the world is destroyed
  // Stock-driver worlds publish no driver.* counters; count their joins from
  // the results so core.* covers every world.
  add(world, "core.join_attempts", o.join_attempts);
  add(world, "core.joins", o.joins);
  add(world, "core.channel_switches", o.channel_switches);
  add(world, "tcp.bytes_delivered", o.bytes);
  add(world, "phy.client_rx", o.client_rx);
  if (batch != nullptr) {
    for (const auto& [name, value] : world) {
      if (name == "sim.queue_depth_hw") {
        raise(*batch, name, value);
      } else {
        add(*batch, name, value);
      }
    }
  }
  Record rec;
  rec.digest = digest;
  rec.run_s = run_s;
  rec.json = world_json(spec, seed, digest, check::failures() - failures_before,
                        o, world);
  return rec;
}

Record run_solve(const Solve& solve) {
  const auto t0 = Clock::now();
  const double v =
      model::dividing_speed(solve.params, solve.ch1, solve.ch2, solve.range_m,
                            0.5, 60.0, 0.05, 0.05);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Record rec;
  rec.run_s = seconds_since(t0);
  rec.digest = bits;
  rec.json = "{\"label\":\"model.s" + std::to_string(solve.scenario) + "-r" +
             std::to_string(static_cast<int>(solve.range_m)) +
             "\",\"scenario\":" + std::to_string(solve.scenario) +
             ",\"range_m\":" + num(solve.range_m) +
             ",\"dividing_speed\":" + num(v) + "}";
  return rec;
}

// --- Batches ---------------------------------------------------------------------

// A set-up-only round: generates every input and constructs every world of
// the batch without running any. Returns the wall seconds of each operation
// (model: of the whole batch's inputs, as one operation).
std::vector<double> setup_round(const Workload& w, std::uint64_t seed) {
  if (w.kind == Kind::kModel) {
    // Building six solve inputs takes microseconds: time many and scale to
    // one batch, so the sample sits well above the clock's resolution.
    volatile double sink = 0.0;  // keeps the loop from being optimized away
    const auto t0 = Clock::now();
    for (int i = 0; i < kModelSetupLoops; ++i) {
      sink = sink + model_batch(seed + i).front().range_m;
    }
    return {seconds_since(t0) / kModelSetupLoops};
  }
  std::vector<double> op_s;
  for (int op = 0; op < w.ops; ++op) {
    const auto t0 = Clock::now();
    const WorldSpec spec = make_world(w, seed, op);
    if (spec.is_fleet) {
      core::FleetExperiment fleet(spec.fleet);
      op_s.push_back(seconds_since(t0));
    } else {
      core::Experiment experiment(spec.exp);
      op_s.push_back(seconds_since(t0));
    }
  }
  return op_s;
}

struct BatchResult {
  double cpu_s = 0.0;
  std::vector<double> op_run_s;  // per operation, in batch order
  std::uint64_t digest = kFnvOffset;
  std::vector<Record> records;
  Counters counters;
  double allocations = 0.0;
};

BatchResult run_batch(const Workload& w, std::uint64_t seed, bool first) {
  BatchResult b;
  const double cpu_start = thread_cpu_s();
  if (w.kind == Kind::kModel) {
    for (const Solve& solve : model_batch(seed)) {
      Record rec = run_solve(solve);
      b.op_run_s.push_back(rec.run_s);
      b.digest = fnv1a(b.digest, rec.digest);
      b.records.push_back(std::move(rec));
    }
    add(b.counters, "model.solves", static_cast<double>(b.records.size()));
  } else {
    for (int op = 0; op < w.ops; ++op) {
      const WorldSpec spec = make_world(w, seed, op);
      Record rec = run_world(spec, world_seed(seed, op),
                             first ? &b.counters : nullptr, b.allocations);
      b.op_run_s.push_back(rec.run_s);
      b.digest = fnv1a(b.digest, rec.digest);
      b.records.push_back(std::move(rec));
    }
  }
  b.cpu_s = thread_cpu_s() - cpu_start;
  return b;
}

// Fingerprint of every generated input of the batch (same seed, same value).
void list_configs(const Workload& w, std::uint64_t seed) {
  std::printf("{\"workload\":\"%s\",\"configs\":[", w.name);
  if (w.kind == Kind::kModel) {
    const std::vector<Solve> solves = model_batch(seed);
    for (std::size_t i = 0; i < solves.size(); ++i) {
      std::printf("%s\"s%d-r%d\"", i ? "," : "", solves[i].scenario,
                  static_cast<int>(solves[i].range_m));
    }
  } else {
    for (int op = 0; op < w.ops; ++op) {
      const WorldSpec spec = make_world(w, seed, op);
      const auto& aps = spec.is_fleet ? spec.fleet.aps : spec.exp.aps;
      std::uint64_t h = fnv1a(kFnvOffset, spec.is_fleet ? spec.fleet.seed
                                                        : spec.exp.seed);
      for (const auto& ap : aps) {
        std::uint64_t x = 0, y = 0;
        std::memcpy(&x, &ap.position.x, sizeof x);
        std::memcpy(&y, &ap.position.y, sizeof y);
        h = fnv1a(fnv1a(fnv1a(h, ap.mac.value()), x), y);
        h = fnv1a(fnv1a(h, static_cast<std::uint64_t>(ap.channel)),
                  static_cast<std::uint64_t>(ap.backhaul_bps));
        h = fnv1a(h, static_cast<std::uint64_t>(ap.dud));
      }
      std::printf("%s{\"label\":\"%s\",\"aps\":%zu,\"fingerprint\":\"%s\"}",
                  op ? "," : "", spec.label.c_str(), aps.size(),
                  hex(h).c_str());
    }
  }
  std::printf("]}\n");
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

std::string json_matrix(const std::vector<std::vector<double>>& rows) {
  std::string s = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    s += (i ? "," : "") + json_array(rows[i]);
  }
  return s + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: spider_perfbench --workload drive|lab|fleet|model "
               "--seed N [--seconds S | --batches K] [--list-configs]\n");
  return 2;
}

int run(int argc, char** argv) {
  const char* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int batches = 0;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0 && (v = value())) {
      workload = v;
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = value())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && (v = value())) {
      seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(argv[i], "--batches") == 0 && (v = value())) {
      batches = std::atoi(v);
    } else if (std::strcmp(argv[i], "--list-configs") == 0) {
      list = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload != nullptr && std::strcmp(workload, candidate.name) == 0) {
      w = &candidate;
    }
  }
  if (w == nullptr) return usage();
  if (list) {
    list_configs(*w, seed);
    return 0;
  }

  // Invariant failures are counted per world instead of aborting the run.
  check::set_policy(check::Policy::kLogAndCount);

  const auto start = Clock::now();
  std::vector<std::vector<double>> op_run_s;
  std::vector<double> cpu_s_batches;
  std::vector<std::vector<double>> op_setup_s;
  std::vector<std::string> repeat_digests;
  BatchResult first;
  for (int n = 0;; ++n) {
    if (batches > 0 ? n >= batches : (n > 0 && seconds_since(start) >= seconds))
      break;
    BatchResult b = run_batch(*w, seed, n == 0);
    cpu_s_batches.push_back(b.cpu_s);
    op_run_s.push_back(b.op_run_s);
    repeat_digests.push_back(hex(b.digest));
    if (n == 0) first = std::move(b);
  }
  for (int n = 0; batches == 0 && n < kSetupRounds; ++n) {
    op_setup_s.push_back(setup_round(*w, seed));
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"ops_per_batch\":%d",
              w->name, seed, w->ops);
  std::printf(",\"op_setup_s\":%s", json_matrix(op_setup_s).c_str());
  std::printf(",\"batch_cpu_s\":%s", json_array(cpu_s_batches).c_str());
  std::printf(",\"op_run_s\":%s", json_matrix(op_run_s).c_str());
  std::printf(",\"peak_rss_mb\":%s",
              num(static_cast<double>(usage_self.ru_maxrss) / 1024.0).c_str());
  std::printf(",\"digest\":\"%s\",\"batch_digests\":[", hex(first.digest).c_str());
  for (std::size_t i = 0; i < repeat_digests.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", repeat_digests[i].c_str());
  }
  std::printf("],\"counters\":{");
  bool comma = false;
  for (const auto& [name, value] : first.counters) {
    std::printf("%s\"%s\":%s", comma ? "," : "", name.c_str(), num(value).c_str());
    comma = true;
  }
  std::printf("},\"allocations\":%s", num(first.allocations).c_str());
  std::printf(",\"records\":[");
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    std::printf("%s%s", i ? "," : "", first.records[i].json.c_str());
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
