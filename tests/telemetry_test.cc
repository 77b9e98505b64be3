// Unit gates for the telemetry layer: histogram bucket boundaries (the
// fixed log-scale buckets must be bit-deterministic, including values that
// land exactly on a boundary), snapshot merging, the trace ring, the JSON
// reader, the run-report schema round-trip, frame-log eviction streaming,
// and the check-failure shim over the process registry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/check.h"
#include "mac/access_point.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "telemetry/hub.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/trace_recorder.h"
#include "trace/frame_log.h"

namespace spider::telemetry {
namespace {

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
// Trace recorder ring

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;
  rec.complete("span", "cat", 0, 10, 0);
  rec.instant("mark", "cat", 5, 0);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(TraceRecorder, RingKeepsTheMostRecentWindow) {
  TraceRecorder rec;
  rec.set_capacity(4);
  rec.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    rec.instant("mark", "cat", i, 0);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events_in_order();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<std::int64_t>(6 + i));
  }
}

TEST(TraceRecorder, JsonRoundTripsThroughTheReader) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.name_track(1, "vif0");
  // Multi-digit tids once truncated the metadata record's snprintf buffer;
  // keep one in the round trip.
  rec.name_track(106, "ch6");
  rec.complete("dhcp", "join", 1000, 250, 1, "attempts", 2);
  rec.instant("frame_evicted", "framelog", 1500, 0, "bytes", 62);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(rec.to_json(), doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 4u);
  EXPECT_EQ(events->array[1].find("args")->string_or("name", ""), "ch6");

  const JsonValue& span = events->array[2];
  EXPECT_EQ(span.string_or("ph", ""), "X");
  EXPECT_EQ(span.string_or("name", ""), "dhcp");
  EXPECT_EQ(span.string_or("cat", ""), "join");
  EXPECT_DOUBLE_EQ(span.number_or("ts", 0), 1000.0);
  EXPECT_DOUBLE_EQ(span.number_or("dur", 0), 250.0);
  EXPECT_DOUBLE_EQ(span.number_or("tid", -1), 1.0);
  ASSERT_NE(span.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(span.find("args")->number_or("attempts", 0), 2.0);

  const JsonValue& instant = events->array[3];
  EXPECT_EQ(instant.string_or("ph", ""), "i");
  EXPECT_EQ(instant.find("dur"), nullptr);

  const JsonValue& meta = events->array[0];
  EXPECT_EQ(meta.string_or("ph", ""), "M");
  EXPECT_EQ(meta.string_or("name", ""), "thread_name");
  ASSERT_NE(meta.find("args"), nullptr);
  EXPECT_EQ(meta.find("args")->string_or("name", ""), "vif0");
}

TEST(TraceRecorder, CounterEventsRenderAsPerfettoCounterSeries) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.counter("sim.queue_depth", "sim", 1000, 42);
  rec.counter("mac.ap.psm_buffered", "mac", 2000, 3, /*track=*/7);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(rec.to_json(), doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue& depth = events->array[0];
  EXPECT_EQ(depth.string_or("ph", ""), "C");
  EXPECT_EQ(depth.string_or("name", ""), "sim.queue_depth");
  EXPECT_DOUBLE_EQ(depth.number_or("ts", 0), 1000.0);
  EXPECT_EQ(depth.find("dur"), nullptr);
  // Track 0 is the sole unkeyed series: no "id" field.
  EXPECT_EQ(depth.find("id"), nullptr);
  ASSERT_NE(depth.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(depth.find("args")->number_or("value", 0), 42.0);

  const JsonValue& psm = events->array[1];
  EXPECT_EQ(psm.string_or("ph", ""), "C");
  // A nonzero track becomes the series id, so per-AP series stay separate.
  EXPECT_EQ(psm.string_or("id", ""), "7");
  ASSERT_NE(psm.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(psm.find("args")->number_or("value", 0), 3.0);
}

TEST(TraceRecorder, SimulatorEmitsQueueDepthCounterSamples) {
  sim::Simulator sim;
  sim.telemetry().trace().set_enabled(true);
  for (int i = 1; i <= 4; ++i) {
    sim.post_at(sim::Time::millis(i), [] {});
  }
  sim.run_all();

  std::vector<std::int64_t> samples;
  for (const TraceEvent& ev : sim.telemetry().trace().events_in_order()) {
    if (ev.phase != 'C') continue;
    EXPECT_STREQ(ev.name, "sim.queue_depth");
    samples.push_back(ev.arg_value);
  }
  // One sample per instant boundary where the depth changed: the four
  // distinct-time events drain 2, 1, 0.
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i], samples[i - 1]);
  }
  EXPECT_EQ(samples.back(), 0);
}

TEST(TraceRecorder, ApEmitsPsmOccupancyCounterSamples) {
  sim::Simulator sim;
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
  for (const TraceEvent& ev : sim.telemetry().trace().events_in_order()) {
    if (ev.phase != 'C' || std::string(ev.name) != "mac.ap.psm_buffered") {
      continue;
    }
    // Series id = the AP radio's attach order (1: the AP's radio is this
    // world's first attach), so multi-AP worlds render one occupancy graph
    // per AP.
    EXPECT_EQ(ev.track, 1u);
    samples.push_back(ev.arg_value);
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

// ---------------------------------------------------------------------------
// Run-report schema round-trip

TEST(RunReport, LineRoundTripsThroughTheReader) {
  Registry registry;
  registry.counter("driver.joins").inc(3);
  registry.gauge("sim.queue_depth").set(17);
  registry.histogram("dhcp.acquisition_delay_sec").add(0.25);

  const std::string line = run_report_line("fig6", 2, 42, 0xabcdef, 9001,
                                           registry.snapshot());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(line, doc, &error)) << error;
  EXPECT_EQ(doc.string_or("schema", ""), kRunReportSchema);
  EXPECT_EQ(doc.string_or("kind", ""), "run");
  EXPECT_EQ(doc.string_or("label", ""), "fig6");
  EXPECT_DOUBLE_EQ(doc.number_or("run", -1), 2.0);
  EXPECT_DOUBLE_EQ(doc.number_or("seed", -1), 42.0);
  EXPECT_EQ(doc.string_or("digest", ""), "0x0000000000abcdef");
  EXPECT_DOUBLE_EQ(doc.number_or("events", -1), 9001.0);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("driver.joins", 0), 3.0);
  const JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("sim.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("sim.queue_depth")->number_or("value", 0),
                   17.0);
  const JsonValue* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* h = histograms->find("dhcp.acquisition_delay_sec");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->number_or("count", 0), 1.0);
}

// Forward compatibility both ways across the run-report (-v1) and stream
// (-stream-v1) schemas: every line carries "schema" so a reader can
// dispatch or skip, and the reader tolerates unknown keys — a v1 consumer
// pointed at a mixed file reads the lines it knows and identifies the
// rest, instead of erroring (spider-trace does exactly this).
TEST(RunReport, ReadersTolerateUnknownKeysAndForeignSchemas) {
  Registry registry;
  registry.counter("driver.joins").inc(3);
  std::string line = run_report_line("fig6", 2, 42, 0xabcdef, 9001,
                                     registry.snapshot());
  // A future writer appends fields this reader has never heard of.
  ASSERT_EQ(line.back(), '}');
  line.pop_back();
  line += ",\"future_key\":{\"nested\":[1,2,3]},\"another\":\"x\"}";
  JsonValue doc;
  ASSERT_TRUE(parse_json(line, doc, nullptr));
  EXPECT_EQ(doc.string_or("schema", ""), kRunReportSchema);
  EXPECT_DOUBLE_EQ(doc.find("counters")->number_or("driver.joins", 0), 3.0);

  // A stream-v1 line parses with the same reader, announces its schema,
  // and its known shapes (run/seq/counters) read exactly like -v1 shapes.
  const std::string stream_line =
      "{\"schema\":\"spider-telemetry-stream-v1\",\"kind\":\"metrics\","
      "\"run\":3,\"seq\":7,\"ts_us\":1500,\"counters\":{\"driver.joins\":4},"
      "\"unknown_section\":{\"v\":true}}";
  JsonValue stream_doc;
  ASSERT_TRUE(parse_json(stream_line, stream_doc, nullptr));
  EXPECT_EQ(stream_doc.string_or("schema", ""), kStreamSchema);
  EXPECT_DOUBLE_EQ(stream_doc.number_or("run", -1), 3.0);
  EXPECT_DOUBLE_EQ(stream_doc.number_or("seq", -1), 7.0);
  EXPECT_DOUBLE_EQ(stream_doc.find("counters")->number_or("driver.joins", 0),
                   4.0);
}

TEST(RunReport, SweepLineCarriesMergedAndProcessSections) {
  Registry registry;
  registry.counter("x").inc(1);
  const std::string line =
      sweep_report_line("lab", 4, 0x1234, registry.snapshot());
  JsonValue doc;
  ASSERT_TRUE(parse_json(line, doc, nullptr));
  EXPECT_EQ(doc.string_or("kind", ""), "sweep");
  EXPECT_DOUBLE_EQ(doc.number_or("runs", 0), 4.0);
  EXPECT_EQ(doc.string_or("combined_digest", ""), "0x0000000000001234");
  ASSERT_NE(doc.find("merged"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("merged")->find("counters")->number_or("x", 0),
                   1.0);
  EXPECT_NE(doc.find("process"), nullptr);
}

// ---------------------------------------------------------------------------
// FrameLog eviction streaming

TEST(FrameLog, EvictionsStreamIntoTheTraceRecorder) {
  TraceRecorder rec;
  rec.set_enabled(true);
  trace::FrameLog log(/*capacity=*/2);
  log.stream_evictions_to(rec);

  for (int i = 0; i < 5; ++i) {
    trace::FrameRecord r;
    r.at = sim::Time::millis(i);
    r.size_bytes = 100 + i;
    log.record(r);
  }
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  ASSERT_EQ(rec.size(), 3u);
  const auto events = rec.events_in_order();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_STREQ(events[i].name, "frame_evicted");
    EXPECT_EQ(events[i].phase, 'i');
    EXPECT_EQ(events[i].ts_us, sim::Time::millis(i).us());
    EXPECT_EQ(events[i].arg_value, 100 + static_cast<int>(i));
  }
}

TEST(FrameLog, DroppedCounterAdvancesEvenWithoutARecorder) {
  trace::FrameLog log(/*capacity=*/1);
  trace::FrameRecord r;
  log.record(r);
  log.record(r);
  log.record(r);
  EXPECT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.dropped(), 2u);
  log.clear();
  EXPECT_EQ(log.dropped(), 0u);
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
