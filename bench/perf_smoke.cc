// perf_smoke — per-layer micro-measurements, as one machine-readable artifact.
//
// Measures (1) single-threaded event-queue throughput of the timing-wheel
// simulator on mixed and cancel-heavy churn, with tracing and a live stream
// attached, (2) fleet-scale PHY frame delivery through the medium's
// partition+grid index at 10k and 100k radios, (3) the fleet hot path — 200
// mobile clients under 20 beaconing APs moved through batched
// Medium::move_radios ticks with interned beacon payloads — and (4)
// wall-clock time of an 8-replication vehicular sweep run serially vs. on
// all hardware threads, verifying per-run digests match. Every gated number
// is an absolute throughput floored far below a quiet box; the end-to-end
// numbers live in perfbench/ (BENCHMARK.json).
//
// Emits BENCH_perf.json (schema "spider-bench-perf-v1"; see README) so CI can
// upload the numbers and successive PRs have a comparable perf record.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/common.h"
#include "core/check.h"

// Allocation teeth for the measured loops, gated exactly like SPIDER_DCHECK:
// active in plain debug builds and whenever SPIDER_FORCE_DCHECKS is on (the
// sanitizer presets), compiled out — and spider_alloc_guard left unlinked,
// see bench/CMakeLists.txt — in NDEBUG measurement builds, so the Release
// perf gate never pays for the operator new/delete interception.
#if !defined(NDEBUG) || defined(SPIDER_FORCE_DCHECKS)
#define SPIDER_BENCH_ALLOC_TEETH 1
#include <optional>

#include "core/alloc_guard.h"
#endif
#include "core/sweep.h"
#include "mac/access_point.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/thread_pool.h"
#include "telemetry/stream_exporter.h"

using namespace spider;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Event churn mixed the way a vehicular run mixes it: three quarters of the
// events are fire-and-forget (frame deliveries, beacon ticks — post_at), one
// quarter are cancellable timers, and half of those get cancelled before
// firing. Captures (a reference plus two 64-bit values, 24 bytes) fit
// SmallFn's inline buffer. Returns scheduled events per second.
template <typename Sim>
double churn_events_per_sec(int waves, int per_wave,
                            std::uint64_t* sink_out) {
  Sim sim;
  std::uint64_t sink = 0;
  std::vector<sim::TimerHandle> handles;
  handles.reserve(static_cast<std::size_t>(per_wave));
  const auto start = std::chrono::steady_clock::now();
  for (int wave = 0; wave < waves; ++wave) {
    handles.clear();
    const sim::Time base = sim.now() + sim::Time::micros(1);
    for (int i = 0; i < per_wave; ++i) {
      const sim::Time at = base + sim::Time::micros(i % 97);
      const std::uint64_t a = static_cast<std::uint64_t>(i) * 0x9E3779B9u;
      const std::uint64_t b = static_cast<std::uint64_t>(wave);
      auto fn = [&sink, a, b] { sink += a ^ b; };
      if (i % 4 == 0) {
        handles.push_back(sim.schedule_at(at, fn));
      } else {
        sim.post_at(at, fn);
      }
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run_all();
  }
  const double elapsed = seconds_since(start);
  *sink_out = sink + sim.digest();
  const double scheduled =
      static_cast<double>(waves) * static_cast<double>(per_wave);
  return scheduled / elapsed;
}

// Cancellation churn — the dominant pattern of the measurement-derived join
// replays, where a scan dwell schedules a retry timeout and the response
// almost always arrives first: every timer in a wave is cancelled before
// its instant, and one uncancellable "response arrived" event per wave
// executes (it is what caused the cancellations, and it advances the clock
// the way real responses do). The loop therefore measures schedule + cancel
// + fire-time discard, both O(1) on the wheel. Returns scheduled events per
// second.
double cancel_churn_per_sec(int waves, int per_wave, std::uint64_t* sink_out) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  std::vector<sim::TimerHandle> handles;
  handles.reserve(static_cast<std::size_t>(per_wave));
  const auto start = std::chrono::steady_clock::now();
  for (int wave = 0; wave < waves; ++wave) {
    handles.clear();
    const sim::Time base = sim.now() + sim::Time::micros(1);
    for (int i = 0; i < per_wave - 1; ++i) {
      const sim::Time at = base + sim::Time::micros(i % 97);
      handles.push_back(sim.schedule_at(at, [&sink] { ++sink; }));
    }
    sim.post_at(base + sim::Time::micros(97), [&sink] { ++sink; });
    for (auto& h : handles) h.cancel();
    sim.run_all();
  }
  const double elapsed = seconds_since(start);
  *sink_out += sink + sim.digest();
  return static_cast<double>(waves) * static_cast<double>(per_wave) / elapsed;
}

// Same engine with the trace recorder armed — the dispatch loop never
// consults the recorder, so this measurement pins down the "tracing on but
// nothing span-instrumented fires" floor of the telemetry design.
class TracedSimulator : public sim::Simulator {
 public:
  TracedSimulator() { telemetry().trace().set_enabled(true); }
};

// Same engine with a live StreamSession attached (DESIGN.md "Live telemetry
// plane"): the cadence hook in Simulator::drain fires a metrics publish at
// every 100 us sim-time boundary, records cross the SPSC ring, and the
// exporter thread renders them to the sample stream file. This bounds the
// price of *watching* a run live — the exporter-overhead floor in
// bench/BENCH_perf_baseline.json gates it.
telemetry::StreamExporter& smoke_stream_exporter() {
  static telemetry::StreamExporter exporter;
  static const bool wired = [] {
    const std::string& flag = bench::telemetry_options().stream_path;
    const std::string path = flag.empty() ? "BENCH_stream_sample.jsonl" : flag;
    auto sink = std::make_shared<telemetry::FileStreamSink>(path);
    if (!sink->ok()) {
      std::fprintf(stderr, "warning: could not open stream file %s\n",
                   path.c_str());
      return false;
    }
    exporter.add_sink(std::move(sink));
    return true;
  }();
  (void)wired;
  return exporter;
}

class StreamingSimulator : public sim::Simulator {
 public:
  StreamingSimulator()
      : session_(smoke_stream_exporter(), telemetry(), next_tag(),
                 /*cadence_us=*/100) {
    session_.begin(now().us(), /*seed=*/0);
  }
  ~StreamingSimulator() {
    session_.finish(now().us(), digest(), events_executed());
  }

 private:
  static std::uint32_t next_tag() {
    static std::uint32_t next = 1;
    return next++;
  }

  // Member of the derived class: destroyed before the base Simulator (and
  // the Hub/Registry the stream records point into), per the session's
  // lifetime contract.
  telemetry::StreamSession session_;
};

core::ExperimentConfig sweep_config(std::uint64_t seed) {
  auto cfg = bench::amherst_drive(seed, sim::Time::seconds(120));
  cfg.spider = core::single_channel_multi_ap(1);
  return cfg;
}

// ---------------------------------------------------------------------------
// Scale section: PHY delivery at fleet sizes (10k / 100k radios). n radios
// dense on one channel at constant density (~500 radios/km^2, a downtown
// fleet), so the expected neighborhood of any sender is scale-invariant.
// Each wave drifts every radio a few meters through one batched
// Medium::move_radios call (RadioMove batches and grid-move staging on the
// drain arena), then sends an all-radios probe volley. Measurement waves run
// against a wall-clock budget so the 100k scale stays affordable; fixed-wave
// runs feed the digest cross-checks.

struct ScaleMeasurement {
  double frames_per_sec = 0.0;
  double events_per_sec = 0.0;
  double bytes_per_radio = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t digest = 0;
};

// fixed_waves > 0: run exactly that many waves (digest comparisons).
// fixed_waves == 0: run whole waves until `budget_seconds` of wall clock.
// scan_threshold: MediumConfig::indexed_scan_threshold (the default lets
// the grid serve; SIZE_MAX forces partition scans for the cross-check).
ScaleMeasurement scale_run(int n_radios, int fixed_waves,
                           double budget_seconds,
                           std::size_t scan_threshold =
                               phy::MediumConfig{}.indexed_scan_threshold) {
  sim::Simulator sim;
  phy::MediumConfig cfg;
  cfg.base_loss = 0.1;
  cfg.indexed_scan_threshold = scan_threshold;
  phy::Medium medium(sim, sim::Rng(0x5CA7E), cfg);
  const double side =
      std::sqrt(static_cast<double>(n_radios) / 500.0) * 1000.0;
  sim::Rng layout(0x5CA1E);
  std::vector<std::unique_ptr<phy::Radio>> radios;
  radios.reserve(static_cast<std::size_t>(n_radios));
  for (int i = 0; i < n_radios; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(static_cast<std::uint32_t>(i + 1)),
        phy::RadioConfig{.initial_channel = 1}));
    radios.back()->set_position(
        {layout.uniform(0.0, side), layout.uniform(0.0, side)});
  }
  sim::Rng walk = layout.fork("walk");
  std::vector<phy::RadioMove> moves;
  moves.reserve(radios.size());
  int waves = 0;
  const auto start = std::chrono::steady_clock::now();
  while (fixed_waves > 0 ? waves < fixed_waves
                         : (waves == 0 ||
                            seconds_since(start) < budget_seconds)) {
    // Vehicular drift, batched: the whole fleet through one move_radios
    // call (RadioMove staging and per-slot grouping live on the arena).
    moves.clear();
    for (auto& r : radios) {
      moves.push_back(phy::RadioMove{
          r.get(), r->position() + phy::Vec2{walk.uniform(-3.0, 3.0),
                                             walk.uniform(-3.0, 3.0)}});
    }
    medium.move_radios(moves);
#ifdef SPIDER_BENCH_ALLOC_TEETH
    // Wave 0 grows the arena blocks, the tx pool and the event queue; every
    // later wave's send+deliver half owns a zero allocation budget.
    std::optional<core::ScopedAllocGuard> teeth;
    if (waves > 0) teeth.emplace("perf_smoke scale wave");
#endif
    for (auto& r : radios) {
      r->send(net::make_probe_request(r->address()));
    }
    sim.run_all();
    ++waves;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t frames =
      static_cast<std::uint64_t>(waves) * static_cast<std::uint64_t>(n_radios);
  SPIDER_CHECK(medium.frames_sent() == frames);
  return {static_cast<double>(frames) / elapsed,
          static_cast<double>(sim.events_executed()) / elapsed,
          static_cast<double>(medium.hot_state_bytes()) /
              static_cast<double>(n_radios),
          frames, sim.digest()};
}

// ---------------------------------------------------------------------------
// Fleet hot path: 200 clients random-walking through a 20-AP downtown block:
// partition+grid frame delivery, the whole fleet moved through one
// Medium::move_radios call per position tick, and every AP handing out its
// interned beacon payload on beacon ticks and probe responses.

struct FleetMeasurement {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

// Drives the per-tick fleet work (one mobility batch + a rotating slice of
// probe requests). Out-of-line context so the rescheduling lambda captures
// one pointer and stays inside SmallFn's inline buffer.
struct FleetTicker {
  sim::Simulator& sim;
  phy::Medium& medium;
  std::vector<std::unique_ptr<phy::Radio>>& clients;
  sim::Rng walk;
  double side;
  sim::Time tick;
  sim::Time horizon;
  int probe_cursor = 0;
  std::vector<phy::RadioMove> moves;

  void step() {
    moves.clear();
    for (auto& c : clients) {
      // Reflect at the block edges to hold density.
      phy::Vec2 p = c->position() + phy::Vec2{walk.uniform(-60.0, 60.0),
                                              walk.uniform(-60.0, 60.0)};
      p.x = p.x < 0.0 ? -p.x : (p.x > side ? 2.0 * side - p.x : p.x);
      p.y = p.y < 0.0 ? -p.y : (p.y > side ? 2.0 * side - p.y : p.y);
      moves.push_back(phy::RadioMove{c.get(), p});
    }
    medium.move_radios(moves);
    // A tenth of the fleet scans each tick; every AP that hears a probe
    // answers with its interned probe response.
    for (std::size_t i = 0; i < clients.size(); i += 10) {
      phy::Radio& tx =
          *clients[(static_cast<std::size_t>(probe_cursor) + i) %
                   clients.size()];
      tx.send(net::make_probe_request(tx.address()));
    }
    ++probe_cursor;
    if (sim.now() + tick < horizon) {
      sim.post_after(tick, [this] { step(); });
    }
  }
};

FleetMeasurement fleet_hotpath_run(int n_clients, int n_aps,
                                   sim::Time duration) {
  sim::Simulator sim;
  phy::MediumConfig cfg;
  // Dense co-channel block: high loss keeps delivery fan-out from drowning
  // the per-send costs under test.
  cfg.base_loss = 0.8;
  phy::Medium medium(sim, sim::Rng(1234), cfg);

  // ~14x14 cells of the spatial grid: wide enough that a delivery disc
  // covers a small neighborhood, dense enough that cell crossings still
  // cluster for the batch re-bucket.
  const double kSide = 2000.0;
  // Two-channel reuse plan (1/11), the aggressive end of dense downtown
  // deployments. Two channels keep each channel's offered beacon load under
  // its serialized airtime capacity (~3.5k frames/s at 11 Mb/s with the long
  // preamble) — a single-channel deployment this dense would saturate, and
  // deliveries would slide past the horizon unmeasured — while each channel
  // partition (~110 radios) sits past the small-partition scan threshold,
  // so deliveries gather from the grid.
  constexpr net::ChannelId kPlan[2] = {1, 11};
  mac::AccessPointConfig ap_cfg;
  ap_cfg.ssid = "spider-fleet-downtown-macro-cell";
  // Compressed cadence (real APs beacon at ~100 ms): the bench squeezes a
  // long steady state into a short run, the per-beacon costs are unchanged.
  ap_cfg.beacon_interval = sim::Time::millis(4);
  std::vector<std::unique_ptr<mac::AccessPoint>> aps;
  aps.reserve(static_cast<std::size_t>(n_aps));
  for (int i = 0; i < n_aps; ++i) {
    const phy::Vec2 pos{(i % 5 + 0.5) * kSide / 5.0,
                        (i / 5 + 0.5) * kSide / 4.0};
    ap_cfg.channel = kPlan[i % 2];
    aps.push_back(std::make_unique<mac::AccessPoint>(
        medium, net::MacAddress::from_index(0x500u + static_cast<std::uint32_t>(i)),
        pos, sim::Rng(77 + static_cast<std::uint64_t>(i)), ap_cfg));
    aps.back()->start();
  }

  sim::Rng layout(0xF1EE7);
  std::vector<std::unique_ptr<phy::Radio>> clients;
  clients.reserve(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    clients.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(static_cast<std::uint32_t>(i + 1)),
        phy::RadioConfig{.initial_channel =
                             kPlan[static_cast<std::size_t>(i) % 2]}));
    clients.back()->set_position(
        {layout.uniform(0.0, kSide), layout.uniform(0.0, kSide)});
  }

  FleetTicker ticker{sim,
                     medium,
                     clients,
                     layout.fork("walk"),
                     kSide,
                     sim::Time::millis(5),
                     duration,
                     /*probe_cursor=*/0,
                     /*moves=*/{}};
  ticker.moves.reserve(clients.size());
  sim.post_after(ticker.tick, [&ticker] { ticker.step(); });

  const auto start = std::chrono::steady_clock::now();
  sim.run_until(duration);
  const double elapsed = seconds_since(start);
  const FleetMeasurement out{static_cast<double>(sim.events_executed()) /
                                 elapsed,
                             sim.events_executed(), sim.digest()};
#ifdef SPIDER_BENCH_ALLOC_TEETH
  // Runtime teeth past the measured horizon (digest and event count were
  // captured above): with mobility and probe ticks stopped, let in-flight
  // management responses drain — warm responses ride pooled nodes and
  // interned payloads, but the final probe volley may still grow the
  // response pool cold — then assert the remaining steady state, interned
  // beacon ticks plus their deliveries, allocates nothing.
  sim.run_until(duration + sim::Time::millis(50));
  core::ScopedAllocGuard teeth("perf_smoke fleet beacon steady state");
  sim.run_until(duration + sim::Time::millis(150));
#endif
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const char* out_path = "BENCH_perf.json";
  // Scale-section overrides: --radios N measures one custom fleet size
  // instead of the default {10k, 100k} pair (note: the CI gate keys on
  // radios_10000, so gated runs must keep the defaults), --seconds S sets
  // the wall-clock budget per measured scale.
  int scale_radios_override = 0;
  double scale_budget_seconds = 1.5;
  // --section NAME[,NAME...] runs only the named sections and emits only
  // their JSON objects (empty = the full suite). The CI perf gate needs the
  // full suite — the baseline keys every section — but local iteration and
  // targeted CI reruns can pay for just the one being worked on.
  std::vector<std::string> section_filter;
  for (int i = 1; i < argc; ++i) {
    const auto value_of = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
      if (argv[i][len] == '=') return argv[i] + len + 1;
      if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value_of("--radios")) {
      scale_radios_override = std::atoi(v);
      SPIDER_CHECK(scale_radios_override > 0)
          << "--radios wants a positive radio count, got " << v;
    } else if (const char* v = value_of("--seconds")) {
      scale_budget_seconds = std::atof(v);
      SPIDER_CHECK(scale_budget_seconds > 0.0)
          << "--seconds wants a positive budget, got " << v;
    } else if (const char* v = value_of("--section")) {
      for (const char* p = v; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        const std::size_t len = comma != nullptr
                                    ? static_cast<std::size_t>(comma - p)
                                    : std::strlen(p);
        SPIDER_CHECK(len > 0)
            << "--section wants NAME[,NAME...], got '" << v << "'";
        section_filter.emplace_back(p, len);
        p += len;
        if (comma != nullptr) ++p;
      }
      SPIDER_CHECK(!section_filter.empty())
          << "--section wants at least one section name";
    } else if (value_of("--telemetry") != nullptr ||
               value_of("--trace") != nullptr ||
               value_of("--stream") != nullptr) {
      // Already handled by parse_common_flags; consumed here only so a
      // separate-token value isn't mistaken for the output path.
    } else if (argv[i][0] != '-') {
      out_path = argv[i];  // positional output path, flags may precede it
    }
  }
  static constexpr const char* kSectionNames[] = {"event_queue", "stream",
                                                  "scale", "fleet", "sweep"};
  for (const std::string& s : section_filter) {
    bool known = false;
    for (const char* name : kSectionNames) known = known || s == name;
    SPIDER_CHECK(known) << "--section: unknown section '" << s
                        << "' (sections: event_queue, stream, scale, fleet, "
                           "sweep)";
  }
  const auto section_on = [&section_filter](const char* name) {
    if (section_filter.empty()) return true;
    for (const std::string& s : section_filter) {
      if (s == name) return true;
    }
    return false;
  };
  bench::print_header("perf_smoke",
                      "per-layer micro-measurements: event queue, PHY "
                      "delivery, fleet hot path, parallel sweep");

  // ---- event-queue microbenchmark -----------------------------------------
  // Wave size mirrors the depth the vehicular experiments actually keep the
  // queue at (hundreds of pending events, not tens of thousands), so the
  // per-event constant costs — allocation, token management — dominate the
  // measurement the way they dominate production runs.
  constexpr int kWaves = 8'000;
  constexpr int kPerWave = 256;
  std::uint64_t sink = 0;
  // Plain churn throughput, shared by the event_queue section (its headline)
  // and the stream section (the overhead ratio's denominator); measured
  // once, by whichever enabled section asks first.
  double plain = 0.0;
  const auto measure_plain = [&] {
    if (plain == 0.0) {
      churn_events_per_sec<sim::Simulator>(10, kPerWave, &sink);  // warm
      plain = churn_events_per_sec<sim::Simulator>(kWaves, kPerWave, &sink);
    }
  };

  bench::JsonWriter event_queue;
  if (section_on("event_queue")) {
    measure_plain();
    const double traced =
        churn_events_per_sec<TracedSimulator>(kWaves, kPerWave, &sink);
    std::printf("event queue:  %.3g events/s\n", plain);
    std::printf("telemetry:    %.3g events/s with the trace recorder armed\n"
                "              (%.2fx of tracing-off)\n",
                traced, traced / plain);

    // Cancellation churn: schedule-then-cancel, the join replays' dominant
    // pattern.
    cancel_churn_per_sec(10, kPerWave, &sink);  // warm
    const double cancel = cancel_churn_per_sec(kWaves, kPerWave, &sink);
    std::printf("cancel churn: %.3g cancelled events/s\n", cancel);

    event_queue.add("events", static_cast<std::uint64_t>(kWaves) * kPerWave)
        .add("events_per_sec", plain)
        .add("cancel_churn_per_sec", cancel)
        .add("tracing_on_events_per_sec", traced)
        .add("tracing_on_ratio", traced / plain);
  }

  // ---- live stream exporter overhead --------------------------------------
  // Same churn with a StreamSession attached at a 100 us cadence (aggressive:
  // production defaults stream every 100 ms). The ratio vs. the plain engine
  // is the price of live observability; bench/BENCH_perf_baseline.json floors
  // it at 0.95.
  bench::JsonWriter stream_json;
  if (section_on("stream")) {
    measure_plain();
    churn_events_per_sec<StreamingSimulator>(10, kPerWave, &sink);  // warm
    const double streaming =
        churn_events_per_sec<StreamingSimulator>(kWaves, kPerWave, &sink);
    const std::uint64_t stream_lines = smoke_stream_exporter().lines_written();
    const std::uint64_t stream_dropped = smoke_stream_exporter().ring_dropped();
    const double stream_ratio = streaming / plain;
    std::printf(
        "stream:       %.3g events/s with a live 100us-cadence stream\n"
        "              session (%.2fx of stream-off; %llu lines, %llu\n"
        "              ring drops)\n",
        streaming, stream_ratio, static_cast<unsigned long long>(stream_lines),
        static_cast<unsigned long long>(stream_dropped));
    stream_json.add("events_per_sec_streaming", streaming)
        .add("events_per_sec_plain", plain)
        .add("overhead_ratio", stream_ratio)
        .add("cadence_us", 100)
        .add("lines_written", stream_lines)
        .add("ring_dropped", stream_dropped);
  }

  // ---- scale: SoA + arena delivery at fleet sizes -------------------------
  bench::JsonWriter scale_json;
  if (section_on("scale")) {
  std::vector<int> scale_sizes = {10'000, 100'000};
  if (scale_radios_override > 0) scale_sizes = {scale_radios_override};
  for (const int n : scale_sizes) {
    // Digest gates first. Run-to-run determinism holds at every scale; the
    // grid-vs-partition-scan equivalence is only affordable where the scan
    // arm's O(n) per frame stays sane (the scan is the same filter over a
    // superset, so equivalence at 10k covers the shared delivery code).
    const ScaleMeasurement a = scale_run(n, /*fixed_waves=*/2, 0.0);
    const ScaleMeasurement b = scale_run(n, /*fixed_waves=*/2, 0.0);
    SPIDER_CHECK(a.digest == b.digest)
        << "scale run is not deterministic at " << n << " radios";
    bool cross_checked = false;
    if (n <= 20'000) {
      const ScaleMeasurement scan =
          scale_run(n, /*fixed_waves=*/2, 0.0,
                    std::numeric_limits<std::size_t>::max());
      SPIDER_CHECK(a.digest == scan.digest)
          << "grid delivery diverged from the partition scan at " << n
          << " radios";
      cross_checked = true;
    }
    const ScaleMeasurement m =
        scale_run(n, /*fixed_waves=*/0, scale_budget_seconds);
    std::printf(
        "scale:        %6d radios: %.3g frames/s, %.3g events/s,\n"
        "              %.0f hot-state bytes/radio  (%llu frames, digests %s)\n",
        n, m.frames_per_sec, m.events_per_sec, m.bytes_per_radio,
        static_cast<unsigned long long>(m.frames),
        cross_checked ? "cross-checked vs scan" : "deterministic");
    bench::JsonWriter entry;
    entry.add("radios", n)
        .add("frames_per_sec", m.frames_per_sec)
        .add("events_per_sec", m.events_per_sec)
        .add("bytes_per_radio", m.bytes_per_radio)
        .add("frames", m.frames)
        .add("digests_match", true);
    char key[32];
    std::snprintf(key, sizeof(key), "radios_%d", n);
    scale_json.add_object(key, entry);
  }
  }

  // ---- fleet hot path: batched mobility + interned payloads ---------------
  bench::JsonWriter fleet_json;
  if (section_on("fleet")) {
  constexpr int kFleetClients = 200;
  constexpr int kFleetAps = 20;
  const sim::Time kFleetDuration = sim::Time::seconds(30);
  fleet_hotpath_run(kFleetClients, kFleetAps,
                    sim::Time::seconds(3));  // warm allocators/caches
  const FleetMeasurement a =
      fleet_hotpath_run(kFleetClients, kFleetAps, kFleetDuration);
  const FleetMeasurement b =
      fleet_hotpath_run(kFleetClients, kFleetAps, kFleetDuration);
  SPIDER_CHECK(a.digest == b.digest && a.events == b.events)
      << "fleet hot-path run is not deterministic";
  const double events_per_sec = std::max(a.events_per_sec, b.events_per_sec);
  std::printf("fleet:        %d clients x %d APs, %llu events: %.3g events/s\n"
              "              (digests identical across two runs)\n",
              kFleetClients, kFleetAps,
              static_cast<unsigned long long>(a.events), events_per_sec);
  fleet_json.add("clients", kFleetClients)
      .add("aps", kFleetAps)
      .add("events", a.events)
      .add("events_per_sec", events_per_sec)
      .add("digests_match", true);
  }

  // ---- sweep: serial vs. parallel -----------------------------------------
  bench::JsonWriter sweep;
  if (section_on("sweep")) {
  const std::vector<std::uint64_t> seeds = {7, 17, 27, 37, 47, 57, 67, 77};
  const auto serial = core::run_seed_sweep(seeds, sweep_config, 1);
  const auto parallel = core::run_seed_sweep(seeds, sweep_config, 0);

  bool digests_match = serial.runs.size() == parallel.runs.size();
  for (std::size_t i = 0; digests_match && i < serial.runs.size(); ++i) {
    digests_match = serial.runs[i].digest == parallel.runs[i].digest;
  }
  SPIDER_CHECK(digests_match)
      << "parallel sweep diverged from serial execution";
  const double sweep_speedup = serial.wall_seconds / parallel.wall_seconds;
  std::uint64_t total_events = 0;
  for (const auto& run : serial.runs) total_events += run.events_executed;
  std::printf("sweep:        %zu runs x 120 sim-s, %.2fs serial -> %.2fs on\n"
              "              %u threads  (speedup %.2fx, digests %s)\n",
              seeds.size(), serial.wall_seconds, parallel.wall_seconds,
              parallel.threads, sweep_speedup,
              digests_match ? "identical" : "DIVERGED");
  sweep.add("replications", static_cast<std::uint64_t>(seeds.size()))
      .add("sim_seconds_each", 120)
      .add("events_total", total_events)
      .add("serial_seconds", serial.wall_seconds)
      .add("parallel_seconds", parallel.wall_seconds)
      .add("parallel_threads", parallel.threads)
      .add("speedup", sweep_speedup)
      .add("digests_match", digests_match)
      .add_hex("combined_digest", parallel.combined_digest());
  }

  // ---- artifact -----------------------------------------------------------
  bench::JsonWriter doc;
  // hardware_threads is what the OS reports, default_pool_threads what a
  // ThreadPool(0) actually spawns; the sweep section records the worker
  // count it really used (sweep.parallel_threads) so the artifact says how
  // parallel the number was, not just how parallel the machine could have
  // been. A --section run emits only the sections it
  // measured, so a partial artifact can never satisfy the full-baseline gate
  // by accident.
  doc.add("schema", "spider-bench-perf-v1")
      .add("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("default_pool_threads", sim::ThreadPool::default_thread_count());
  if (section_on("event_queue")) doc.add_object("event_queue", event_queue);
  if (section_on("stream")) doc.add_object("stream", stream_json);
  if (section_on("scale")) doc.add_object("scale", scale_json);
  if (section_on("fleet")) doc.add_object("fleet", fleet_json);
  if (section_on("sweep")) doc.add_object("sweep", sweep);
  if (!doc.write_file(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %s\n", out_path);
  return sink == 0xdead ? 2 : 0;  // keep `sink` observable
}
