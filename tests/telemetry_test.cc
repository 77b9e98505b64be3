// Unit gates for the telemetry layer: histogram bucket boundaries (the
// fixed log-scale buckets must be bit-deterministic, including values that
// land exactly on a boundary), snapshot merging, the trace recorder's
// stream tee, the JSON reader, the run_end and closing lines' schema
// round-trip, frame-log eviction streaming, and the check-failure shim over
// the process registry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "mac/access_point.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/hub.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/stream_exporter.h"
#include "telemetry/trace_recorder.h"
#include "stream_capture.h"

namespace spider::telemetry {
namespace {

using spider::testutil::CaptureSink;
using spider::testutil::parse_lines;
using spider::testutil::TraceCapture;

// ---------------------------------------------------------------------------
// Histogram buckets

TEST(Histogram, BucketBoundariesAreExactDoublings) {
  // Bucket 0 is underflow: anything below the first bound, plus NaN and
  // negatives.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.99e-6), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);

  // A value exactly on a boundary belongs to the bucket whose *lower* bound
  // it is (inclusive lower / exclusive upper).
  EXPECT_EQ(Histogram::bucket_index(Histogram::kFirstBound), 1u);
  EXPECT_EQ(Histogram::bucket_index(2 * Histogram::kFirstBound), 2u);
  EXPECT_EQ(Histogram::bucket_index(4 * Histogram::kFirstBound), 3u);

  // Just below a boundary stays in the lower bucket.
  const double below = std::nextafter(2 * Histogram::kFirstBound, 0.0);
  EXPECT_EQ(Histogram::bucket_index(below), 1u);

  // The top bound and beyond land in the overflow bucket.
  const double top = Histogram::bucket_lower_bound(Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(top), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, EveryValueSatisfiesItsBucketBounds) {
  for (double v = 1e-7; v < 1e12; v *= 3.7) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_GE(v, Histogram::bucket_lower_bound(i)) << "v=" << v;
    EXPECT_LT(v, Histogram::bucket_upper_bound(i)) << "v=" << v;
  }
}

TEST(Histogram, StatsAndQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i) * 0.01);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.01);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_NEAR(h.sum(), 50.5, 1e-9);
  // Log buckets give nearest-upper-bound quantiles: p50 of U(0.01, 1.0) must
  // land within a doubling of the true median.
  EXPECT_GE(h.quantile(0.5), 0.5);
  EXPECT_LE(h.quantile(0.5), 1.1);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

// ---------------------------------------------------------------------------
// Counters / gauges / snapshot merge

TEST(Metrics, CounterAndGaugeBasics) {
  Registry registry;
  registry.counter("a").inc();
  registry.counter("a").inc(4);
  EXPECT_EQ(registry.counter("a").value(), 5u);

  Gauge& g = registry.gauge("g");
  g.set(3);
  g.add(2);
  g.add(-4);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_water(), 5);
  g.record_peak(40);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_water(), 40);
  g.record_peak(10);  // lower peaks never regress the mark
  EXPECT_EQ(g.high_water(), 40);
}

TEST(Metrics, SnapshotMergeSumsCountersAndMaxesHighWater) {
  Registry a;
  a.counter("shared").inc(3);
  a.counter("only_a").inc(1);
  a.gauge("depth").set(4);
  a.histogram("lat").add(0.5);

  Registry b;
  b.counter("shared").inc(7);
  b.counter("only_b").inc(2);
  b.gauge("depth").set(9);
  b.histogram("lat").add(2.0);
  b.histogram("lat").add(0.5);

  MetricsSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());

  EXPECT_EQ(merged.counter_value("shared"), 10u);
  EXPECT_EQ(merged.counter_value("only_a"), 1u);
  EXPECT_EQ(merged.counter_value("only_b"), 2u);
  const GaugeSample* depth = merged.find_gauge("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 13);      // levels add across worlds
  EXPECT_EQ(depth->high_water, 9);  // peaks take the worst single world
  const HistogramSample* lat = merged.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->min, 0.5);
  EXPECT_DOUBLE_EQ(lat->max, 2.0);
  std::uint64_t bucket_total = 0;
  for (const auto& [index, count] : lat->buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(Metrics, MergeOrderIsWhatMakesExportsIdentical) {
  // Merging the same snapshots in the same order must give identical
  // vectors — the unit-level core of the sweep determinism contract.
  Registry a;
  a.counter("x").inc(2);
  Registry b;
  b.counter("x").inc(5);
  b.counter("y").inc(1);

  MetricsSnapshot m1 = a.snapshot();
  m1.merge_from(b.snapshot());
  MetricsSnapshot m2 = a.snapshot();
  m2.merge_from(b.snapshot());
  ASSERT_EQ(m1.counters.size(), m2.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].name, m2.counters[i].name);
    EXPECT_EQ(m1.counters[i].value, m2.counters[i].value);
  }
}

// ---------------------------------------------------------------------------
// Trace recorder: events reach the stream as they are recorded

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceCapture capture;
  TraceRecorder rec;
  capture.attach(rec);
  rec.complete("span", "cat", 0, 10, 0);
  rec.instant("mark", "cat", 5, 0);
  rec.counter("depth", "cat", 5, 3);
  rec.name_track(1, "vif1", 0);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(capture.lines().empty());
}

TEST(TraceRecorder, SimulatorEmitsQueueDepthCounterSamples) {
  // A streamed world samples its queue depth once per stream cadence, not
  // at every instant: 2,000 one-millisecond instants over 2 s carry at most
  // ceil(2 s / 100 ms) + 1 samples.
  constexpr std::int64_t kCadenceUs = 100'000;
  constexpr int kInstants = 2000;
  const sim::Time duration = sim::Time::seconds(2);
  auto capture = std::make_shared<CaptureSink>();
  StreamExporter exporter;
  exporter.set_sink(capture);
  sim::Simulator sim;
  sim.telemetry().trace().set_enabled(true);
  for (int i = 1; i <= kInstants; ++i) {
    sim.post_at(sim::Time::millis(i), [] {});
  }
  {
    StreamSession session(exporter, sim.telemetry(), /*run_tag=*/1,
                          kCadenceUs);
    session.begin(0, /*seed=*/1);
    sim.run_until(duration);
    session.finish(sim.now().us(), sim.digest(), sim.events_executed());
  }

  std::vector<std::int64_t> samples;
  for (const JsonValue& line : parse_lines(capture->text(), "counter_sample")) {
    EXPECT_EQ(line.string_or("name", ""), "sim.queue_depth");
    samples.push_back(static_cast<std::int64_t>(line.number_or("value", -1)));
  }
  EXPECT_LE(samples.size(),
            static_cast<std::size_t>(duration.us() / kCadenceUs) + 1);
  // The queue drains one event per instant, so each sample is lower.
  ASSERT_GE(samples.size(), 10u);
  EXPECT_LT(samples.front(), kInstants);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i], samples[i - 1]);
  }
  EXPECT_GE(samples.back(), 0);
}

TEST(TraceRecorder, ApEmitsPsmOccupancyCounterSamples) {
  TraceCapture capture;
  sim::Simulator sim;
  capture.attach(sim.telemetry().trace());
  phy::MediumConfig medium_cfg;
  medium_cfg.base_loss = 0.0;
  medium_cfg.edge_degradation = false;
  phy::Medium medium(sim, sim::Rng(1), medium_cfg);
  sim.telemetry().trace().set_enabled(true);

  mac::AccessPointConfig ap_cfg;
  ap_cfg.response_delay_min = sim::Time::millis(1);
  ap_cfg.response_delay_max = sim::Time::millis(2);
  mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA0),
                      phy::Vec2{0, 0}, sim::Rng(2), ap_cfg);
  phy::Radio client(medium, net::MacAddress::from_index(0xC0),
                    phy::RadioConfig{.initial_channel = ap_cfg.channel});
  client.set_position({20, 0});

  // Join by hand, park in power-save, and buffer two downlink frames.
  client.send(net::make_auth_request(client.address(), ap.address()));
  sim.run_for(sim::Time::millis(10));
  client.send(net::make_assoc_request(client.address(), ap.address()));
  sim.run_for(sim::Time::millis(10));
  client.send(net::make_null_data(client.address(), ap.address(), true));
  sim.run_for(sim::Time::millis(10));
  ASSERT_TRUE(ap.in_power_save(client.address()));
  for (int i = 0; i < 2; ++i) {
    net::Frame f = net::make_tcp_frame(ap.address(), client.address(),
                                       ap.address(), net::TcpSegment{});
    ASSERT_TRUE(ap.send_to_client(client.address(), std::move(f)));
  }
  // Wake up: the flush must sample the counter back down to zero.
  client.send(net::make_ps_poll(client.address(), ap.address()));
  sim.run_for(sim::Time::millis(10));

  std::vector<std::int64_t> samples;
  for (const JsonValue& line : capture.lines("counter_sample")) {
    if (line.string_or("name", "") != "mac.ap.psm_buffered") continue;
    // Series id = the AP radio's attach order (1: the AP's radio is this
    // world's first attach), so multi-AP worlds render one occupancy graph
    // per AP.
    EXPECT_DOUBLE_EQ(line.number_or("track", -1), 1.0);
    samples.push_back(static_cast<std::int64_t>(line.number_or("value", -1)));
  }
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0], 1);
  EXPECT_EQ(samples[1], 2);
  EXPECT_EQ(samples[2], 0);
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(Json, ParsesTheShapesTheEmittersProduce) {
  JsonValue doc;
  ASSERT_TRUE(parse_json(
      R"({"s":"a\"b","n":-2.5e3,"b":true,"z":null,"a":[1,[2]],"o":{"k":1}})",
      doc, nullptr));
  EXPECT_EQ(doc.string_or("s", ""), "a\"b");
  EXPECT_DOUBLE_EQ(doc.number_or("n", 0), -2500.0);
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_TRUE(doc.find("b")->boolean);
  EXPECT_EQ(doc.find("z")->type, JsonValue::Type::kNull);
  ASSERT_TRUE(doc.find("a")->is_array());
  EXPECT_EQ(doc.find("a")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.find("o")->number_or("k", 0), 1.0);
}

TEST(Json, RejectsMalformedInput) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\":", doc, &error));
  EXPECT_FALSE(parse_json("[1,2", doc, nullptr));
  EXPECT_FALSE(parse_json("{} trailing", doc, nullptr));
  EXPECT_FALSE(parse_json("", doc, nullptr));
  EXPECT_FALSE(error.empty());
}

// One artifact of each shape spider-trace reads or writes, as the emitters
// write them: a stream "metrics" line, a run_end line with its snapshot, the
// exporter's closing line, a span line, and the --chrome document the real
// spider-trace makes of that stream.
std::vector<std::string> real_artifacts() {
  std::string stream;
  {
    auto sink = std::make_shared<CaptureSink>();
    sim::Simulator sim;
    sim.telemetry().metrics().counter("driver.joins").inc(3);
    sim.telemetry().metrics().gauge("sim.queue_depth").set(17);
    sim.telemetry().metrics().histogram("app.latency_s").add(0.5);
    TraceRecorder& trace = sim.telemetry().trace();
    trace.set_enabled(true);
    StreamExporter exporter;
    exporter.set_sink(sink);
    {
      StreamSession session(exporter, sim.telemetry(), /*run_tag=*/3,
                            /*cadence_us=*/100);
      session.begin(0, /*seed=*/42);
      trace.name_track(106, "ch6", 0);
      trace.complete("dhcp", "join", 1000, 250, 1, "attempts", 2);
      trace.instant("frame_evicted", "framelog", 1500, 0, "bytes", 62);
      trace.counter("mac.ap.psm_buffered", "mac", 2000, 42, /*track=*/7);
      session.finish(2000, sim.digest(), sim.events_executed());
    }
    EXPECT_TRUE(exporter.close());
    stream = sink->text();
  }
  const auto line_of = [&stream](const char* kind) {
    const std::size_t at =
        stream.find(std::string("\"kind\":\"") + kind + "\"");
    const std::size_t begin = stream.rfind('\n', at) + 1;  // npos + 1 = 0
    return stream.substr(begin, stream.find('\n', at) - begin);
  };
  std::vector<std::string> out = {line_of("metrics"), line_of("run_end"),
                                  line_of("close"), line_of("span")};

  const std::string base = ::testing::TempDir() + "artifacts_" +
                           std::to_string(static_cast<long>(::getpid()));
  std::ofstream(base + ".jsonl", std::ios::binary) << stream;
  std::string summary;
  EXPECT_EQ(testutil::run_command(std::string(SPIDER_TRACE_BIN) +
                                      " --chrome " + base + ".json " + base +
                                      ".jsonl 2>&1",
                                  &summary),
            0)
      << summary;
  out.push_back(testutil::read_file(base + ".json"));
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());
  return out;
}

// parse_json is the only reader of outside input (spider-trace's files).
// Seeded byte flips, inserts, deletes and truncations of real artifacts
// must each parse or fail with an error — under the sanitizer presets, with
// no report — and nesting far past the depth cap must be refused.
TEST(Json, SeededMutationsOfRealArtifactsParseOrFailCleanly) {
  const std::vector<std::string> artifacts = real_artifacts();
  for (const std::string& text : artifacts) {
    JsonValue doc;
    ASSERT_TRUE(parse_json(text, doc, nullptr)) << text;
  }
  sim::Rng rng(0x5EED);
  constexpr int kMutants = 20000;
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text =
        artifacts[static_cast<std::size_t>(i) % artifacts.size()];
    for (auto edits = rng.uniform_int(1, 4); edits > 0 && !text.empty();
         --edits) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
          break;
        case 1:
          text.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
          break;
        case 2:
          text.erase(at, 1);
          break;
        default:
          text.resize(at);
          break;
      }
    }
    JsonValue doc;
    std::string error;
    if (parse_json(text, doc, &error)) {
      ++parsed;
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  // Both outcomes occur, so the budget reaches past the first byte.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);

  JsonValue doc;
  EXPECT_TRUE(parse_json(std::string(32, '[') + std::string(32, ']'), doc));
  EXPECT_FALSE(parse_json(std::string(100000, '['), doc));
  // Balanced, so only the depth cap can refuse it.
  EXPECT_FALSE(parse_json(
      std::string(100000, '[') + std::string(100000, ']'), doc));
}

// ---------------------------------------------------------------------------
// The run's report: the stream's run_end and closing lines

// The run_end line of a one-run stream whose registry holds `registry`.
std::string run_end_line(const Registry& registry) {
  StreamExporter exporter;
  auto sink = std::make_shared<CaptureSink>();
  exporter.set_sink(sink);
  StreamPublisher publisher(exporter, /*run_tag=*/2);
  publisher.begin_run(0, /*seed=*/42);
  publisher.end_run(100, /*digest=*/0xabcdef, /*events_executed=*/9001,
                    registry.snapshot());
  const std::string text = sink->text();
  const std::size_t at = text.find("\"kind\":\"run_end\"");
  const std::size_t begin = text.rfind('\n', at) + 1;
  return text.substr(begin, text.find('\n', at) - begin);
}

TEST(RunReport, LineRoundTripsThroughTheReader) {
  Registry registry;
  registry.counter("driver.joins").inc(3);
  registry.gauge("sim.queue_depth").set(17);
  registry.histogram("dhcp.acquisition_delay_sec").add(0.25);

  const std::string line = run_end_line(registry);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(line, doc, &error)) << error;
  EXPECT_EQ(doc.string_or("schema", ""), kStreamSchema);
  EXPECT_EQ(doc.string_or("kind", ""), "run_end");
  EXPECT_DOUBLE_EQ(doc.number_or("run", -1), 2.0);
  EXPECT_DOUBLE_EQ(doc.number_or("seq", -1), 1.0);
  EXPECT_DOUBLE_EQ(doc.number_or("ts_us", -1), 100.0);
  EXPECT_EQ(doc.string_or("digest", ""), "0x0000000000abcdef");
  EXPECT_DOUBLE_EQ(doc.number_or("events", -1), 9001.0);
  const JsonValue* snapshot = doc.find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  const JsonValue* counters = snapshot->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("driver.joins", 0), 3.0);
  const JsonValue* gauges = snapshot->find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("sim.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("sim.queue_depth")->number_or("value", 0),
                   17.0);
  const JsonValue* histograms = snapshot->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* h = histograms->find("dhcp.acquisition_delay_sec");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->number_or("count", 0), 1.0);
  EXPECT_DOUBLE_EQ(h->number_or("min", 0), 0.25);
  EXPECT_DOUBLE_EQ(h->number_or("max", 0), 0.25);
  // Sparse buckets: the one sample's bucket, so quantiles stay exact.
  const JsonValue* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[0].number,
                   static_cast<double>(Histogram::bucket_index(0.25)));
  EXPECT_DOUBLE_EQ(buckets->array[0].array[1].number, 1.0);
}

// Forward compatibility: every line carries "schema" so a reader can
// dispatch or skip, and the reader tolerates unknown keys — a reader
// pointed at a line from a newer writer, or at a line of another schema,
// reads the fields it knows and identifies the rest, instead of erroring
// (spider-trace does exactly this).
TEST(RunReport, ReadersTolerateUnknownKeysAndForeignSchemas) {
  Registry registry;
  registry.counter("driver.joins").inc(3);
  std::string line = run_end_line(registry);
  // A future writer appends fields this reader has never heard of.
  ASSERT_EQ(line.back(), '}');
  line.pop_back();
  line += ",\"future_key\":{\"nested\":[1,2,3]},\"another\":\"x\"}";
  JsonValue doc;
  ASSERT_TRUE(parse_json(line, doc, nullptr));
  EXPECT_EQ(doc.string_or("schema", ""), kStreamSchema);
  EXPECT_DOUBLE_EQ(
      doc.find("snapshot")->find("counters")->number_or("driver.joins", 0),
      3.0);

  // A line of another schema parses with the same reader and announces
  // its schema, so the reader can tell it apart and skip it.
  const std::string foreign =
      "{\"schema\":\"some-other-tool-v2\",\"kind\":\"metrics\","
      "\"run\":3,\"seq\":7,\"ts_us\":1500,\"counters\":{\"x\":4},"
      "\"unknown_section\":{\"v\":true}}";
  JsonValue foreign_doc;
  ASSERT_TRUE(parse_json(foreign, foreign_doc, nullptr));
  EXPECT_NE(foreign_doc.string_or("schema", ""), kStreamSchema);
  EXPECT_DOUBLE_EQ(foreign_doc.number_or("seq", -1), 7.0);
}

TEST(RunReport, ClosingLineCarriesTheProcessRegistry) {
  check::ScopedPolicy scoped(check::Policy::kLogAndCount);
  check::reset_counters();
  SPIDER_CHECK(1 == 2) << "intentional failure for the closing-line test";
  StreamExporter exporter;
  auto sink = std::make_shared<CaptureSink>();
  exporter.set_sink(sink);
  exporter.write("{\"schema\":\"spider-telemetry-stream-v1\"}\n");
  EXPECT_TRUE(exporter.close());
  check::reset_counters();

  const auto lines = parse_lines(sink->text(), "");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue& close = lines.back();
  EXPECT_EQ(close.string_or("schema", ""), kStreamSchema);
  EXPECT_EQ(close.string_or("kind", ""), "close");
  const JsonValue* process = close.find("process");
  ASSERT_NE(process, nullptr);
  ASSERT_NE(process->find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(
      process->find("counters")->number_or("check.failures.check", 0), 1.0);
  EXPECT_NE(process->find("gauges"), nullptr);
  EXPECT_NE(process->find("histograms"), nullptr);

  // Closed means closed: later writes are discarded, a second close only
  // repeats the verdict.
  exporter.write("{}\n");
  EXPECT_TRUE(exporter.close());
  EXPECT_EQ(parse_lines(sink->text(), "").size(), 2u);
}

// ---------------------------------------------------------------------------
// check.h failure counters live in the process registry

TEST(CheckShim, FailureCountersReportThroughTheProcessRegistry) {
  check::ScopedPolicy scoped(check::Policy::kLogAndCount);
  check::reset_counters();
  SPIDER_CHECK(1 == 2) << "intentional failure for the shim test";
  EXPECT_EQ(check::check_failures(), 1u);
  EXPECT_EQ(check::failures(), 1u);
  {
    std::lock_guard<std::mutex> lock(process_registry_mutex());
    EXPECT_EQ(
        process_registry().counter("check.failures.check").value(), 1u);
  }
  check::reset_counters();
  EXPECT_EQ(check::failures(), 0u);
}

}  // namespace
}  // namespace spider::telemetry
