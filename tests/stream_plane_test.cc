// End-to-end gates for the live telemetry plane (DESIGN.md "Live telemetry
// plane"): warm cadence publishes are allocation-free (this binary links
// spider_alloc_guard, so an armed guard makes any heap traffic fatal), the
// final streamed totals reconcile exactly with the end-of-run
// MetricsSnapshot despite cumulative-value self-healing, the exporter's
// snapshot line carries finished-run state, sweeps assign deterministic
// per-replication run tags, and — the plane's prime directive — per-run
// digests are bit-identical with streaming on and off.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/alloc_guard.h"
#include "core/check.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "mobility/route.h"
#include "net/addr.h"
#include "sim/simulator.h"
#include "telemetry/hub.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/stream_exporter.h"

namespace spider {
namespace {

// Accumulates every rendered line; write_line runs on the exporter thread
// (with the exporter's lock held), the test reads after runs complete, so
// the sink carries its own lock.
class CaptureSink : public telemetry::StreamSink {
 public:
  bool write_line(std::string_view line) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(line);
    return true;
  }

  std::string text() const {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

// Latest cumulative values seen on a run's "metrics" lines — the reader-side
// model of the self-healing contract: whatever was dropped mid-run, the last
// sighting of each metric is the truth.
struct StreamedFinals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> gauges;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;
  bool begun = false;
  bool ended = false;
  std::uint64_t events = 0;
};

std::map<std::uint32_t, StreamedFinals> replay_stream(
    const std::string& text) {
  std::map<std::uint32_t, StreamedFinals> runs;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    telemetry::JsonValue doc;
    if (!telemetry::parse_json(line, doc)) {
      ADD_FAILURE() << "unparseable stream line: " << line;
      continue;
    }
    EXPECT_EQ(doc.string_or("schema", ""), telemetry::kStreamSchema);
    StreamedFinals& run = runs[static_cast<std::uint32_t>(
        doc.number_or("run", 0))];
    const std::string kind = doc.string_or("kind", "");
    if (kind == "run_begin") {
      run.begun = true;
    } else if (kind == "run_end") {
      run.ended = true;
      run.events = static_cast<std::uint64_t>(doc.number_or("events", 0));
    } else if (kind == "metrics") {
      if (const telemetry::JsonValue* c = doc.find("counters")) {
        for (const auto& [name, value] : c->object) {
          run.counters[name] = static_cast<std::uint64_t>(value.number);
        }
      }
      if (const telemetry::JsonValue* g = doc.find("gauges")) {
        for (const auto& [name, value] : g->object) {
          run.gauges[name] = {
              static_cast<std::int64_t>(value.number_or("value", 0)),
              static_cast<std::int64_t>(value.number_or("high_water", 0))};
        }
      }
      if (const telemetry::JsonValue* h = doc.find("histograms")) {
        for (const auto& [name, value] : h->object) {
          run.histograms[name] = {
              static_cast<std::uint64_t>(value.number_or("count", 0)),
              value.number_or("sum", 0.0)};
        }
      }
    }
  }
  return runs;
}

void expect_finals_match_snapshot(const StreamedFinals& finals,
                                  const telemetry::MetricsSnapshot& snap) {
  for (const auto& sample : snap.counters) {
    const auto it = finals.counters.find(sample.name);
    ASSERT_NE(it, finals.counters.end()) << sample.name;
    EXPECT_EQ(it->second, sample.value) << sample.name;
  }
  for (const auto& sample : snap.gauges) {
    const auto it = finals.gauges.find(sample.name);
    ASSERT_NE(it, finals.gauges.end()) << sample.name;
    EXPECT_EQ(it->second.first, sample.value) << sample.name;
    EXPECT_EQ(it->second.second, sample.high_water) << sample.name;
  }
  for (const auto& sample : snap.histograms) {
    const auto it = finals.histograms.find(sample.name);
    ASSERT_NE(it, finals.histograms.end()) << sample.name;
    EXPECT_EQ(it->second.first, sample.count) << sample.name;
    EXPECT_DOUBLE_EQ(it->second.second, sample.sum) << sample.name;
  }
}

TEST(StreamPlane, WarmPublishIsAllocationFree) {
  ASSERT_TRUE(core::alloc_guard_linked());
  sim::Simulator sim;
  telemetry::Hub& hub = sim.telemetry();
  telemetry::Counter& hits = hub.metrics().counter("app.hits");
  telemetry::Gauge& depth = hub.metrics().gauge("app.depth");
  telemetry::Histogram& latency = hub.metrics().histogram("app.latency_s");

  telemetry::StreamExporter exporter;
  telemetry::StreamSession session(exporter, hub, /*run_tag=*/1,
                                   /*cadence_us=*/100);
  session.begin(0, /*seed=*/42);  // cold: defines every metric (allocates)
  hits.inc(3);
  depth.set(5);
  latency.add(0.25);
  session.publisher().publish_metrics(100, hub.metrics());

  // Warm steady state: no new metrics, so each publish is a lockstep walk
  // of the registry plus fixed-size ring pushes — zero allocation budget.
  for (int i = 0; i < 4; ++i) {
    hits.inc(1);
    depth.set(6 + i);
    latency.add(0.5);
    core::ScopedAllocGuard guard("warm stream publish");
    session.publisher().publish_metrics(200 + 100 * i, hub.metrics());
  }
  session.finish(1000, sim.digest(), sim.events_executed());
}

TEST(StreamPlane, FinalStreamedTotalsReconcileWithSnapshot) {
  sim::Simulator sim;
  telemetry::Hub& hub = sim.telemetry();
  telemetry::Counter& hits = hub.metrics().counter("app.hits");
  telemetry::Gauge& depth = hub.metrics().gauge("app.depth");
  telemetry::Histogram& latency = hub.metrics().histogram("app.latency_s");

  telemetry::StreamExporter exporter;
  auto capture = std::make_shared<CaptureSink>();
  exporter.add_sink(capture);
  {
    telemetry::StreamSession session(exporter, hub, /*run_tag=*/3,
                                     /*cadence_us=*/50);
    session.begin(0, /*seed=*/11);
    for (int i = 1; i <= 200; ++i) {
      sim.post_at(sim::Time::micros(i * 37), [&, i] {
        hits.inc(static_cast<std::uint64_t>(i));
        depth.set(i % 17);
        latency.add(0.001 * i);
      });
    }
    sim.run_all();
    session.finish(sim.now().us(), sim.digest(), sim.events_executed());
  }  // detach drains the ring before the registry can go away

  const telemetry::MetricsSnapshot snap = hub.collect();
  auto runs = replay_stream(capture->text());
  ASSERT_EQ(runs.size(), 1u);
  const StreamedFinals& finals = runs[3];
  EXPECT_TRUE(finals.begun);
  EXPECT_TRUE(finals.ended);
  EXPECT_EQ(finals.events, sim.events_executed());
  expect_finals_match_snapshot(finals, snap);
}

// Compact vehicular scenario (mirrors tests/sweep_test.cc) so replications
// stay fast while exercising the full stack the stream hooks ride on.
core::ExperimentConfig stream_scenario(std::uint64_t seed,
                                       telemetry::StreamExporter* stream) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(15);
  cfg.medium.base_loss = 0.1;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(250.0), 12.0);
  cfg.spider = core::single_channel_multi_ap(1);
  mobility::ApDescriptor ap;
  ap.ssid = "stream-ap";
  ap.mac = net::MacAddress::from_index(0xA0);
  ap.subnet = net::Ipv4Address{(10u << 24) | (0xA0u << 8)};
  ap.position = {90, 12};
  ap.channel = 1;
  ap.backhaul_bps = 2e6;
  mobility::ApDescriptor ap2 = ap;
  ap2.ssid = "stream-ap2";
  ap2.mac = net::MacAddress::from_index(0xA1);
  ap2.subnet = net::Ipv4Address{(10u << 24) | (0xA1u << 8)};
  ap2.position = {200, -8};
  cfg.aps = {ap, ap2};
  cfg.stream = stream;
  cfg.stream_cadence = sim::Time::millis(10);
  return cfg;
}

TEST(StreamPlane, SweepStreamsEveryReplicationAndLeavesDigestsUnchanged) {
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  const core::SweepReport plain = core::run_seed_sweep(
      seeds, [](std::uint64_t s) { return stream_scenario(s, nullptr); }, 2);

  telemetry::StreamExporter exporter;
  auto capture = std::make_shared<CaptureSink>();
  exporter.add_sink(capture);
  const core::SweepReport streamed = core::run_seed_sweep(
      seeds, [&](std::uint64_t s) { return stream_scenario(s, &exporter); },
      2);

  // The prime directive: attaching the stream plane changes nothing about
  // the simulation — publishing consumes no RNG and schedules no events.
  ASSERT_EQ(plain.runs.size(), streamed.runs.size());
  for (std::size_t i = 0; i < plain.runs.size(); ++i) {
    EXPECT_EQ(plain.runs[i].digest, streamed.runs[i].digest) << "run " << i;
    EXPECT_EQ(plain.runs[i].events_executed, streamed.runs[i].events_executed);
  }

  // SweepRunner tags untagged configs with their submission index, so the
  // interleaved multi-worker stream demultiplexes back into per-run finals
  // that reconcile with each replication's collected snapshot.
  auto runs = replay_stream(capture->text());
  ASSERT_EQ(runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto it = runs.find(static_cast<std::uint32_t>(i));
    ASSERT_NE(it, runs.end()) << "missing stream for run " << i;
    EXPECT_TRUE(it->second.begun);
    EXPECT_TRUE(it->second.ended);
    EXPECT_EQ(it->second.events, streamed.runs[i].events_executed);
    expect_finals_match_snapshot(it->second, streamed.runs[i].telemetry);
  }

  // The exporter's registry snapshot agrees: every run finished, in tag
  // order, with its event count.
  telemetry::JsonValue snap;
  ASSERT_TRUE(telemetry::parse_json(exporter.snapshot_json(), snap));
  EXPECT_EQ(snap.string_or("kind", ""), "snapshot");
  const telemetry::JsonValue* snap_runs = snap.find("runs");
  ASSERT_NE(snap_runs, nullptr);
  ASSERT_EQ(snap_runs->array.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const telemetry::JsonValue& entry = snap_runs->array[i];
    EXPECT_EQ(static_cast<std::size_t>(entry.number_or("run", 99)), i);
    EXPECT_EQ(entry.string_or("state", ""), "finished");
    EXPECT_EQ(static_cast<std::uint64_t>(entry.number_or("events", 0)),
              streamed.runs[i].events_executed);
  }
}

}  // namespace
}  // namespace spider
