// End-to-end gates for the live telemetry plane (DESIGN.md "Live telemetry
// plane"): warm cadence publishes, sink write included, are allocation-free
// (this binary links spider_alloc_guard, so an armed guard makes any heap
// traffic fatal), the final streamed totals reconcile exactly with the
// end-of-run MetricsSnapshot (for a bare simulator and for a fleet world,
// traced and untraced), sweeps assign deterministic per-replication run
// tags, each run's lines depend only on its seed — not on the worker count —
// a failed write is remembered and reported, spider-trace reads streamed,
// bench-written, half-written and hostile files without undefined behaviour
// and turns their trace lines into a valid Chrome trace, and — the plane's
// prime directive — per-run digests are bit-identical with streaming on and
// off.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
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
#include "telemetry/stream_exporter.h"
#include "telemetry/trace_recorder.h"
#include "stream_capture.h"

namespace spider {
namespace {

using testutil::CaptureSink;
using testutil::read_file;
using testutil::run_command;

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

// A stream's run lines grouped by run, in file order (the exporter's closing
// line belongs to no run). Fails the test unless each run's seq runs
// 0..n-1 with no gap.
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
    if (doc.string_or("kind", "") == "close") continue;
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
    if (doc.string_or("kind", "") == "close") continue;
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

  // A fleet world streams through the same Experiment path. Its trace switch
  // decides whether join spans reach the stream; either way the finals
  // reconcile with the fleet's own end-of-run snapshot.
  for (const bool trace : {true, false}) {
    telemetry::StreamExporter fleet_exporter;
    auto fleet_capture = std::make_shared<CaptureSink>();
    fleet_exporter.set_sink(fleet_capture);
    core::ExperimentConfig cfg = stream_scenario(9, &fleet_exporter);
    cfg.clients = 2;
    cfg.trace_enabled = trace;
    cfg.stream_run_tag = 4;
    telemetry::MetricsSnapshot fleet_snap;
    std::uint64_t fleet_events = 0;
    {
      core::Experiment fleet(cfg);
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
  return run_command(std::string(SPIDER_TRACE_BIN) + " " + args + " 2>&1",
                     out);
}

TEST(StreamPlane, StreamedRunPassesSpiderTrace) {
  // A drive streamed to a file must summarize cleanly under the real
  // spider-trace: every line readable, run_begin through run_end, then the
  // exporter's closing line.
  const std::string path =
      testing::TempDir() + "stream_plane_read_" +
      std::to_string(static_cast<long>(::getpid())) + ".jsonl";
  {
    telemetry::StreamExporter exporter;
    auto sink = std::make_shared<telemetry::FileStreamSink>(path);
    ASSERT_TRUE(sink->ok());
    exporter.set_sink(sink);
    core::ExperimentConfig cfg = stream_scenario(5, &exporter);
    cfg.duration = sim::Time::seconds(3);
    core::Experiment(cfg).run();
    EXPECT_TRUE(exporter.close());
  }

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
  EXPECT_NE(text.rfind("{\"schema\":\"spider-telemetry-stream-v1\","
                       "\"kind\":\"close\""),
            std::string::npos);

  std::string out;
  int status = run_spider_trace(path, &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  EXPECT_NE(out.find("merged over 1 finished run(s)"), std::string::npos)
      << out;

  // A file read while the run is still writing it can end mid-line. The
  // unterminated tail is skipped with a note and the rest still summarizes;
  // the same broken line with its newline is a hard parse error.
  std::size_t cut = text.size() / 2;
  while (text[cut - 1] == '\n') ++cut;
  std::ofstream(path, std::ios::binary) << text.substr(0, cut);
  out.clear();
  status = run_spider_trace(path, &out);
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

// A sink whose every call fails, as a full disk would.
class FailingSink : public telemetry::StreamSink {
 public:
  bool write(std::string_view) override {
    ++writes;
    return false;
  }
  bool flush() override { return false; }
  int writes = 0;
};

TEST(StreamPlane, FailedStreamWritesAreRememberedAndReported) {
  // A failed write drops the sink and is remembered; close() reports it.
  {
    telemetry::StreamExporter exporter;
    auto sink = std::make_shared<FailingSink>();
    exporter.set_sink(sink);
    exporter.write("{}\n");
    exporter.write("{}\n");  // the sink is gone: not called again
    EXPECT_EQ(sink->writes, 1);
    EXPECT_FALSE(exporter.close());
    EXPECT_FALSE(exporter.close());
  }
  // So is a failed flush at a run's end, with every write accepted.
  {
    class FailingFlush : public CaptureSink {
     public:
      bool flush() override { return false; }
    };
    telemetry::StreamExporter exporter;
    exporter.set_sink(std::make_shared<FailingFlush>());
    core::ExperimentConfig cfg = stream_scenario(5, &exporter);
    cfg.duration = sim::Time::seconds(1);
    core::Experiment(cfg).run();
    EXPECT_FALSE(exporter.close());
  }
  // A real file on a full device fails at the run's end flush or at close.
  if (std::FILE* probe = std::fopen("/dev/full", "w")) {
    std::fclose(probe);
    telemetry::StreamExporter exporter;
    auto sink = std::make_shared<telemetry::FileStreamSink>("/dev/full");
    ASSERT_TRUE(sink->ok());
    exporter.set_sink(sink);
    core::ExperimentConfig cfg = stream_scenario(5, &exporter);
    cfg.duration = sim::Time::seconds(1);
    core::Experiment(cfg).run();
    EXPECT_FALSE(exporter.close());
  }
}

TEST(StreamPlane, SpiderTraceRejectsBadArguments) {
  const std::string path = testing::TempDir() + "stream_plane_args_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".jsonl";
  std::ofstream(path) << R"({"schema":"spider-telemetry-stream-v1",)"
                         R"("kind":"run_begin","run":0,"seq":0,"ts_us":0,)"
                         R"("seed":1})" "\n";
  const std::string out_path = path + ".json";
  // --top parses all of its value as an integer in 1..1000; --chrome needs
  // a path; anything unknown or extra is refused.
  const std::string bad[] = {
      "--top=4294967297 " + path, "--top=3x " + path, "--top 0 " + path,
      "--top=1001 " + path,       "--top= " + path,   "--top=-2 " + path,
      path + " --top",            "--chrome",         path + " --chrome",
      "--chrome= " + path,        "--strict " + path, path + " " + path,
      "",
  };
  for (const std::string& args : bad) {
    std::string out;
    const int status = run_spider_trace(args, &out);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << "[" << args << "]:\n" << out;
    EXPECT_NE(out.find("usage: spider-trace"), std::string::npos)
        << "[" << args << "]:\n" << out;
  }
  for (const std::string& args :
       {"--top=3 " + path, "--top 1000 " + path,
        "--chrome=" + out_path + " " + path}) {
    std::string out;
    const int status = run_spider_trace(args, &out);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "[" << args << "]:\n" << out;
  }
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

// The Chrome document spider-trace --chrome makes of `stream_text`; fails
// the test unless spider-trace exits 0 and the document parses.
telemetry::JsonValue chrome_of(const std::string& stream_text,
                               const std::string& tag) {
  const std::string base = testing::TempDir() + "stream_plane_chrome_" + tag +
                           "_" + std::to_string(static_cast<long>(::getpid()));
  std::ofstream(base + ".jsonl", std::ios::binary) << stream_text;
  std::string out;
  const int status =
      run_spider_trace("--chrome " + base + ".json " + base + ".jsonl", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  telemetry::JsonValue doc;
  std::string error;
  EXPECT_TRUE(telemetry::parse_json(read_file(base + ".json"), doc, &error))
      << error;
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());
  return doc;
}

// The recorder's events, streamed and turned into a Chrome document by
// spider-trace --chrome, read back through the JSON reader.
TEST(TraceRecorder, JsonRoundTripsThroughTheReader) {
  testutil::TraceCapture capture;
  telemetry::TraceRecorder rec;
  capture.attach(rec);
  rec.set_enabled(true);
  rec.name_track(1, "vif0", 0);
  // Multi-digit tids once truncated the metadata record's buffer; keep one
  // in the round trip.
  rec.name_track(106, "ch6", 0);
  rec.complete("dhcp", "join", 1000, 250, 1, "attempts", 2);
  rec.instant("frame_evicted", "framelog", 1500, 0, "bytes", 62);

  const telemetry::JsonValue doc = chrome_of(capture.text(), "roundtrip");
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 4u);
  EXPECT_EQ(events->array[1].find("args")->string_or("name", ""), "ch6");
  EXPECT_DOUBLE_EQ(events->array[1].number_or("tid", -1), 106.0);

  const telemetry::JsonValue& span = events->array[2];
  EXPECT_EQ(span.string_or("ph", ""), "X");
  EXPECT_EQ(span.string_or("name", ""), "dhcp");
  EXPECT_EQ(span.string_or("cat", ""), "join");
  EXPECT_DOUBLE_EQ(span.number_or("ts", 0), 1000.0);
  EXPECT_DOUBLE_EQ(span.number_or("dur", 0), 250.0);
  EXPECT_DOUBLE_EQ(span.number_or("tid", -1), 1.0);
  ASSERT_NE(span.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(span.find("args")->number_or("attempts", 0), 2.0);

  const telemetry::JsonValue& instant = events->array[3];
  EXPECT_EQ(instant.string_or("ph", ""), "i");
  EXPECT_EQ(instant.find("dur"), nullptr);
  ASSERT_NE(instant.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(instant.find("args")->number_or("bytes", 0), 62.0);

  const telemetry::JsonValue& meta = events->array[0];
  EXPECT_EQ(meta.string_or("ph", ""), "M");
  EXPECT_EQ(meta.string_or("name", ""), "thread_name");
  ASSERT_NE(meta.find("args"), nullptr);
  EXPECT_EQ(meta.find("args")->string_or("name", ""), "vif0");
}

TEST(TraceRecorder, CounterEventsRenderAsPerfettoCounterSeries) {
  testutil::TraceCapture capture;
  telemetry::TraceRecorder rec;
  capture.attach(rec);
  rec.set_enabled(true);
  rec.counter("sim.queue_depth", "sim", 1000, 42);
  rec.counter("mac.ap.psm_buffered", "mac", 2000, 3, /*track=*/7);

  const telemetry::JsonValue doc = chrome_of(capture.text(), "counter");
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);

  const telemetry::JsonValue& depth = events->array[0];
  EXPECT_EQ(depth.string_or("ph", ""), "C");
  EXPECT_EQ(depth.string_or("name", ""), "sim.queue_depth");
  EXPECT_DOUBLE_EQ(depth.number_or("ts", 0), 1000.0);
  EXPECT_EQ(depth.find("dur"), nullptr);
  // Track 0 is the sole unkeyed series: no "id" field.
  EXPECT_EQ(depth.find("id"), nullptr);
  ASSERT_NE(depth.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(depth.find("args")->number_or("value", 0), 42.0);

  const telemetry::JsonValue& psm = events->array[1];
  EXPECT_EQ(psm.string_or("ph", ""), "C");
  // A nonzero track becomes the series id, so per-AP series stay separate.
  EXPECT_EQ(psm.string_or("id", ""), "7");
  ASSERT_NE(psm.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(psm.find("args")->number_or("value", 0), 3.0);
}

TEST(StreamPlane, SpiderTraceSkipsNumbersOutOfRange) {
  // spider-trace reads files that other processes wrote. A number that
  // cannot be the integer it stands for (a negative run tag, an infinite
  // timestamp, a bucket past any index) must cost its line with a warning,
  // never reach a cast: that cast is undefined behaviour, which the
  // sanitizer builds turn into an abort. Each hostile file has good lines
  // too, so the run still succeeds.
  const std::string head = R"({"schema":"spider-telemetry-stream-v1",)";
  const std::string begin = head + R"("kind":"run_begin","seq":0,"seed":1,)";
  const std::string end = head + R"("kind":"run_end","run":0,"seq":1,)"
                                 R"("ts_us":5,"snapshot":)";
  struct Case {
    const char* name;
    std::string text;
    const char* summary;  // what the good lines add up to
  };
  const Case cases[] = {
      {"stream",
       begin + R"("run":-1,"ts_us":0})" "\n" +
           begin + R"("run":0,"ts_us":1e999})" "\n" +
           begin + R"("run":0,"ts_us":0})" "\n",
       "1 stream line(s), 2 skipped"},
      {"snapshot",
       begin + R"("run":0,"ts_us":0})" "\n" +
           end + R"({"counters":{"driver.joins":-1}}})" "\n" +
           end + R"({"gauges":{"g":{"value":1e300,"high_water":0}}}})" "\n" +
           end + R"({"histograms":{"h":{"count":1,"sum":1,)"
                 R"("buckets":[[-3,1e300]]}}}})" "\n" +
           end + R"({"histograms":{"h":{"count":1,"sum":1,)"
                 R"("buckets":[[56,1]]}}}})" "\n" +
           head + R"("kind":"close","process":{"counters":{"x":1e20}}})"
                  "\n",
       "1 stream line(s), 5 skipped"},
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

  // --chrome: trace lines whose ts_us, dur_us or track cannot be their
  // integers are skipped with a warning, and the document stays valid JSON
  // holding only the good lines.
  const std::string span = head + R"("kind":"span","run":0,"seq":1,)"
                                  R"("name":"join","cat":"join",)";
  const std::string text =
      span + R"("ts_us":5,"dur_us":1e999,"track":1})" "\n" +
      span + R"("ts_us":5,"dur_us":2,"track":-1})" "\n" +
      span + R"("ts_us":1e300,"dur_us":2,"track":1})" "\n" +
      head + R"("kind":"counter_sample","run":0,"seq":2,"ts_us":5,)"
             R"("value":3,"name":"q","cat":"sim","track":4294967296})" "\n" +
      head + R"("kind":"track","run":0,"seq":3,"ts_us":5,"track":-2,)"
             R"("name":"bad"})" "\n" +
      head + R"("kind":"track","run":0,"seq":4,"ts_us":5,"track":1,)"
             R"("name":"vif1"})" "\n" +
      span + R"("ts_us":5,"dur_us":2,"track":1})" "\n";
  const std::string base = testing::TempDir() + "stream_plane_hostile_chrome_" +
                           std::to_string(static_cast<long>(::getpid()));
  std::ofstream(base + ".jsonl") << text;
  std::string out;
  const int status =
      run_spider_trace("--chrome " + base + ".json " + base + ".jsonl", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  EXPECT_NE(out.find("is out of range"), std::string::npos) << out;
  EXPECT_NE(out.find("2 stream line(s), 5 skipped"), std::string::npos) << out;
  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(read_file(base + ".json"), doc, &error))
      << error;
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].string_or("ph", ""), "M");
  EXPECT_EQ(events->array[1].string_or("ph", ""), "X");
  EXPECT_DOUBLE_EQ(events->array[1].number_or("dur", -1), 2.0);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());
}

TEST(StreamPlane, BenchStreamRoundTripsThroughSpiderTrace) {
  const std::string base = testing::TempDir() + "stream_plane_fig8_" +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string fig8 = std::string("SPIDER_BENCH_THREADS=2 ") +
                           SPIDER_FIG8_BIN;
  std::string plain;
  int status = run_command(fig8, &plain);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << plain;
  // Streaming and tracing change nothing a bench prints.
  std::string streamed;
  status = run_command(fig8 + " --stream " + base + ".jsonl --trace",
                       &streamed);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << streamed;
  EXPECT_EQ(plain, streamed);

  std::string out;
  status = run_spider_trace(base + ".jsonl", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  out.clear();
  status = run_spider_trace(
      "--chrome " + base + ".json " + base + ".jsonl", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;

  // One Chrome event per span, instant and counter_sample line, and one
  // thread_name record per track line; --trace traced the first world only.
  const std::string text = read_file(base + ".jsonl");
  std::size_t trace_lines = 0;
  std::set<std::pair<double, double>> tracks;
  for (const telemetry::JsonValue& line : testutil::parse_lines(text, "")) {
    const std::string kind = line.string_or("kind", "");
    if (kind == "span" || kind == "instant" || kind == "counter_sample") {
      ++trace_lines;
      EXPECT_DOUBLE_EQ(line.number_or("run", -1), 1.0);
    } else if (kind == "track") {
      tracks.emplace(line.number_or("run", -1), line.number_or("track", -1));
    }
  }
  EXPECT_GT(trace_lines, 0u);
  EXPECT_FALSE(tracks.empty());
  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(read_file(base + ".json"), doc, &error))
      << error;
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t chrome_events = 0;
  std::set<std::pair<double, double>> named;
  for (const telemetry::JsonValue& ev : events->array) {
    if (ev.string_or("ph", "") == "M") {
      named.emplace(ev.number_or("pid", -1), ev.number_or("tid", -1));
    } else {
      ++chrome_events;
    }
  }
  EXPECT_EQ(chrome_events, trace_lines);
  EXPECT_EQ(named, tracks);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());

  // A stream that cannot be written fails the bench, with a message.
  if (std::FILE* probe = std::fopen("/dev/full", "w")) {
    std::fclose(probe);
    out.clear();
    status = run_command(fig8 + " --stream /dev/full 2>&1 >/dev/null", &out);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << out;
    EXPECT_NE(out.find("/dev/full"), std::string::npos) << out;
  }
  // --trace records into the stream, so it needs one; a bench that runs no
  // world takes no flags.
  out.clear();
  status = run_command(fig8 + " --trace 2>&1", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << out;
  out.clear();
  status = run_command(std::string(SPIDER_FIG2_BIN) + " --stream " + base +
                           ".jsonl 2>&1",
                       &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << out;
}

}  // namespace
}  // namespace spider
