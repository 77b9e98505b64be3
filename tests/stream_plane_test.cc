// End-to-end gates for the live telemetry plane (DESIGN.md "Live telemetry
// plane"): warm cadence publishes, sink write included, are allocation-free
// (this binary links spider_alloc_guard, so an armed guard makes any heap
// traffic fatal), the final streamed totals reconcile exactly with the
// end-of-run MetricsSnapshot (for a bare simulator and for a fleet world,
// traced and untraced), sweeps assign deterministic per-replication run
// tags, each run's lines depend only on its seed — not on the worker count —
// spider-trace reads streamed, half-written and hostile files without
// undefined behaviour, and — the plane's prime directive — per-run digests
// are bit-identical with streaming on and off.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/alloc_guard.h"
#include "core/check.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "core/fleet.h"
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

// Accumulates every rendered line; write() runs on whichever world thread
// hands its lines off (with the exporter's lock held), and the test reads
// after runs complete, so the sink carries its own lock.
class CaptureSink : public telemetry::StreamSink {
 public:
  bool write(std::string_view lines) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(lines);
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
// model of the stream: the last sighting of each metric is its total.
struct StreamedFinals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> gauges;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;
  bool begun = false;
  bool ended = false;
  std::uint64_t events = 0;
  std::size_t spans = 0;
};

// Counts the bytes handed to it and keeps none of them, so a sink write
// allocates nothing and the warm-publish guard covers the whole path.
class CountingSink : public telemetry::StreamSink {
 public:
  bool write(std::string_view lines) override {
    bytes_ += lines.size();
    return true;
  }
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

// A stream's lines grouped by run, in file order. Fails the test unless
// each run's seq runs 0..n-1 with no gap.
std::map<std::uint32_t, std::vector<std::string>> lines_by_run(
    const std::string& text) {
  std::map<std::uint32_t, std::vector<std::string>> runs;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    telemetry::JsonValue doc;
    if (!telemetry::parse_json(line, doc)) {
      ADD_FAILURE() << "unparseable stream line: " << line;
      continue;
    }
    std::vector<std::string>& run =
        runs[static_cast<std::uint32_t>(doc.number_or("run", 0))];
    EXPECT_EQ(doc.number_or("seq", -1), static_cast<double>(run.size()))
        << line;
    run.push_back(std::move(line));
  }
  return runs;
}

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
    } else if (kind == "span") {
      ++run.spans;
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
  return cfg;
}

TEST(StreamPlane, WarmPublishIsAllocationFree) {
  ASSERT_TRUE(core::alloc_guard_linked());
  sim::Simulator sim;
  telemetry::Hub& hub = sim.telemetry();
  telemetry::Counter& hits = hub.metrics().counter("app.hits");
  telemetry::Gauge& depth = hub.metrics().gauge("app.depth");
  telemetry::Histogram& latency = hub.metrics().histogram("app.latency_s");

  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<CountingSink>();
  exporter.set_sink(sink);
  telemetry::StreamSession session(exporter, hub, /*run_tag=*/1,
                                   /*cadence_us=*/100);
  session.begin(0, /*seed=*/42);  // cold: tracks every metric (allocates)
  hits.inc(3);
  depth.set(5);
  latency.add(0.25);
  session.publisher().publish_metrics(100, hub.metrics());

  // Warm steady state: no new metrics, so each publish is a lockstep walk
  // of the registry rendering into the reserved buffer, then one sink
  // write — zero allocation budget.
  for (int i = 0; i < 4; ++i) {
    hits.inc(1);
    depth.set(6 + i);
    latency.add(0.5);
    const std::size_t before = sink->bytes();
    {
      core::ScopedAllocGuard guard("warm stream publish");
      session.publisher().publish_metrics(200 + 100 * i, hub.metrics());
    }
    EXPECT_GT(sink->bytes(), before) << "publish " << i << " wrote no line";
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
  exporter.set_sink(capture);
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
  }

  const telemetry::MetricsSnapshot snap = hub.collect();
  auto runs = replay_stream(capture->text());
  ASSERT_EQ(runs.size(), 1u);
  const StreamedFinals& finals = runs[3];
  EXPECT_TRUE(finals.begun);
  EXPECT_TRUE(finals.ended);
  EXPECT_EQ(finals.events, sim.events_executed());
  expect_finals_match_snapshot(finals, snap);

  // A fleet world streams through the same World path. Its trace switch
  // decides whether join spans reach the stream; either way the finals
  // reconcile with the fleet's own end-of-run snapshot.
  for (const bool trace : {true, false}) {
    telemetry::StreamExporter fleet_exporter;
    auto fleet_capture = std::make_shared<CaptureSink>();
    fleet_exporter.set_sink(fleet_capture);
    core::FleetConfig cfg;
    static_cast<core::WorldConfig&>(cfg) = stream_scenario(9, &fleet_exporter);
    cfg.clients = 2;
    cfg.trace_enabled = trace;
    cfg.stream_run_tag = 4;
    telemetry::MetricsSnapshot fleet_snap;
    std::uint64_t fleet_events = 0;
    {
      core::FleetExperiment fleet(cfg);
      fleet.run();
      fleet_snap = fleet.simulator().telemetry().collect();
      fleet_events = fleet.simulator().events_executed();
    }

    auto fleet_runs = replay_stream(fleet_capture->text());
    ASSERT_EQ(fleet_runs.size(), 1u) << "trace " << trace;
    const StreamedFinals& fleet_finals = fleet_runs[4];
    EXPECT_TRUE(fleet_finals.begun);
    EXPECT_TRUE(fleet_finals.ended);
    EXPECT_EQ(fleet_finals.events, fleet_events);
    if (trace) {
      EXPECT_GT(fleet_finals.spans, 0u);
    } else {
      EXPECT_EQ(fleet_finals.spans, 0u);
    }
    expect_finals_match_snapshot(fleet_finals, fleet_snap);
  }
}

TEST(StreamPlane, SweepStreamsEveryReplicationAndLeavesDigestsUnchanged) {
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  const core::SweepReport plain = core::run_seed_sweep(
      seeds, [](std::uint64_t s) { return stream_scenario(s, nullptr); }, 2);

  telemetry::StreamExporter exporter;
  auto capture = std::make_shared<CaptureSink>();
  exporter.set_sink(capture);
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

  // A run's lines depend only on its seed: streamed by 1, 2 or 3 workers,
  // each run holds the same lines in the same order, numbered without gaps.
  const auto by_run = [&seeds](unsigned threads) {
    telemetry::StreamExporter rerun_exporter;
    auto rerun = std::make_shared<CaptureSink>();
    rerun_exporter.set_sink(rerun);
    core::run_seed_sweep(
        seeds,
        [&](std::uint64_t s) { return stream_scenario(s, &rerun_exporter); },
        threads);
    return lines_by_run(rerun->text());
  };
  const auto two_workers = lines_by_run(capture->text());
  ASSERT_EQ(two_workers.size(), seeds.size());
  EXPECT_EQ(by_run(1), two_workers);
  EXPECT_EQ(by_run(3), two_workers);
}

// Runs the real spider-trace with `args`; returns its wait status and puts
// what it wrote to stdout and stderr in `out`.
int run_spider_trace(const std::string& args, std::string* out) {
  const std::string cmd = std::string(SPIDER_TRACE_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out->append(buf, n);
  }
  return ::pclose(pipe);
}

TEST(StreamPlane, StreamedRunPassesSpiderTraceStrict) {
  // A drive streamed to a file must summarize cleanly under the real
  // spider-trace --strict: every line readable, run_begin through run_end.
  const std::string path =
      testing::TempDir() + "stream_plane_strict_" +
      std::to_string(static_cast<long>(::getpid())) + ".jsonl";
  {
    telemetry::StreamExporter exporter;
    auto sink = std::make_shared<telemetry::FileStreamSink>(path);
    ASSERT_TRUE(sink->ok());
    exporter.set_sink(sink);
    core::ExperimentConfig cfg = stream_scenario(5, &exporter);
    cfg.duration = sim::Time::seconds(3);
    core::Experiment(cfg).run();
  }  // the sink closes the file

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto runs = lines_by_run(text);
  ASSERT_EQ(runs.size(), 1u);
  const std::vector<std::string>& lines = runs.begin()->second;
  ASSERT_GT(lines.size(), 2u);
  EXPECT_NE(lines.front().find("\"kind\":\"run_begin\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"kind\":\"run_end\""), std::string::npos);

  std::string out;
  int status = run_spider_trace("--strict " + path, &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;

  // A file read while the run is still writing it can end mid-line. The
  // unterminated tail is skipped with a note and the rest still summarizes;
  // the same broken line with its newline is a hard parse error.
  std::size_t cut = text.size() / 2;
  while (text[cut - 1] == '\n') ++cut;
  std::ofstream(path, std::ios::binary) << text.substr(0, cut);
  out.clear();
  status = run_spider_trace("--strict " + path, &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  EXPECT_NE(out.find("may still be being written"), std::string::npos) << out;
  EXPECT_NE(out.find("stream line(s)"), std::string::npos) << out;

  std::ofstream(path, std::ios::binary) << text.substr(0, cut) << "\n";
  out.clear();
  status = run_spider_trace(path, &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << out;
  EXPECT_NE(out.find("parse error"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(StreamPlane, SpiderTraceSkipsNumbersOutOfRange) {
  // spider-trace reads files that other processes wrote. A number that
  // cannot be the integer it stands for (a negative run tag, an infinite
  // timestamp, a bucket past any index) must cost its line or trace event
  // with a warning, never reach a cast: that cast is undefined behaviour,
  // which the sanitizer builds turn into an abort. One hostile file per
  // artifact kind, each with one good record so the run still succeeds.
  const std::string stream = R"({"schema":"spider-telemetry-stream-v1",)"
                             R"("kind":"run_begin","seq":0,"seed":1,)";
  const std::string report = R"({"schema":"spider-telemetry-v1",)"
                             R"("label":"a","runs":1,"combined_digest":"0x1",)";
  struct Case {
    const char* name;
    std::string text;
    const char* summary;  // what the good records add up to
  };
  const Case cases[] = {
      {"stream",
       stream + R"("run":-1,"ts_us":0})" "\n" +
           stream + R"("run":0,"ts_us":1e999})" "\n" +
           stream + R"("run":0,"ts_us":0})" "\n",
       "1 stream line(s), 2 skipped"},
      {"report",
       report + R"("kind":"run","counters":{"driver.joins":-1}})" "\n" +
           report + R"("kind":"sweep","merged":{"counters":{"x":1e20}}})"
                    "\n" +
           report + R"("kind":"sweep","merged":{"histograms":{"h":{)"
                    R"("count":1,"sum":1,"buckets":[[-3,1e300]]}}}})" "\n" +
           report + R"("kind":"run","counters":{"driver.joins":2}})" "\n",
       "1 run line(s), 0 sweep block(s), 0 stream line(s), 3 skipped"},
      {"trace",
       R"({"traceEvents":[)"
       R"({"ph":"M","name":"thread_name","tid":-1,"args":{"name":"bad"}},)"
       R"({"ph":"X","cat":"c","name":"n","ts":1e999,"dur":1},)"
       R"({"ph":"X","cat":"c","name":"n","ts":5,"dur":2}],"droppedEvents":0})",
       "skipped events (numbers out of range): 2"},
  };
  for (const Case& c : cases) {
    const std::string path = testing::TempDir() + "stream_plane_hostile_" +
                             c.name + "_" +
                             std::to_string(static_cast<long>(::getpid()));
    std::ofstream(path) << c.text;
    std::string out;
    const int status = run_spider_trace(path, &out);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << c.name << ":\n" << out;
    EXPECT_NE(out.find("is out of range"), std::string::npos)
        << c.name << ":\n" << out;
    EXPECT_NE(out.find(c.summary), std::string::npos)
        << c.name << ":\n" << out;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace spider
