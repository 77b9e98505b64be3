// Telemetry determinism gates.
//
// The stream is only trustworthy if it is a *reproducible artifact*: the
// same seeded sweep must stream byte-identical lines when repeated, the
// same lines per run whatever the worker count, and spider-trace must print
// the same summary of either file, its merged values equal to the sweep's
// own merged_telemetry(). These tests pin that at the string level (not just
// value-level equality), and check the end-to-end trace path: a vehicular
// run with tracing on must stream the scan/auth/assoc/DHCP join spans the
// recorder promises.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "mobility/route.h"
#include "net/addr.h"
#include "stream_capture.h"
#include "telemetry/json.h"
#include "telemetry/stream_exporter.h"

namespace spider::core {
namespace {

// Short drive past two same-channel APs: the full join pipeline (scan, auth,
// assoc, DHCP) fires several times in 20 simulated seconds.
ExperimentConfig scenario(std::uint64_t seed, bool trace = false) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(20);
  cfg.medium.base_loss = 0.1;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(300.0), 12.0);
  cfg.spider = single_channel_multi_ap(1);
  cfg.trace_enabled = trace;

  mobility::ApDescriptor ap;
  ap.ssid = "telemetry-ap";
  ap.mac = net::MacAddress::from_index(0xB0);
  ap.subnet = net::Ipv4Address{(10u << 24) | (0xB0u << 8)};
  ap.position = {90, 12};
  ap.channel = 1;
  ap.backhaul_bps = 2e6;
  mobility::ApDescriptor ap2 = ap;
  ap2.ssid = "telemetry-ap2";
  ap2.mac = net::MacAddress::from_index(0xB1);
  ap2.subnet = net::Ipv4Address{(10u << 24) | (0xB1u << 8)};
  ap2.position = {210, -8};
  cfg.aps = {ap, ap2};
  return cfg;
}

// Runs the sweep with every run streamed; returns the stream file's text,
// closing line included.
std::string streamed_sweep(const std::vector<std::uint64_t>& seeds,
                           unsigned threads, SweepReport* report = nullptr) {
  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<testutil::CaptureSink>();
  exporter.set_sink(sink);
  SweepReport sweep = run_seed_sweep(
      seeds,
      [&exporter](std::uint64_t s) {
        ExperimentConfig cfg = scenario(s);
        cfg.stream = &exporter;
        return cfg;
      },
      threads);
  EXPECT_TRUE(exporter.close());
  if (report != nullptr) *report = std::move(sweep);
  return sink->text();
}

// A stream's lines keyed by (run, seq): the order-free view of a file that
// several workers wrote.
std::map<std::pair<int, int>, std::string> by_run_and_seq(
    const std::string& text) {
  std::map<std::pair<int, int>, std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    telemetry::JsonValue doc;
    EXPECT_TRUE(telemetry::parse_json(line, doc)) << line;
    const auto key =
        std::make_pair(static_cast<int>(doc.number_or("run", -1)),
                       static_cast<int>(doc.number_or("seq", -1)));
    EXPECT_TRUE(out.emplace(key, line).second) << "duplicate " << line;
  }
  return out;
}

// What the real spider-trace prints for `text` (stdout only).
std::string spider_trace_stdout(const std::string& text) {
  const std::string path = ::testing::TempDir() + "determinism_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".jsonl";
  std::ofstream(path, std::ios::binary) << text;
  std::string out;
  const int status = testutil::run_command(
      std::string(SPIDER_TRACE_BIN) + " " + path + " 2>/dev/null", &out);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  std::remove(path.c_str());
  return out;
}

// The merged summary's body: the lines after spider-trace's "merged over …"
// line, up to the line count at the end.
std::string merged_section(const std::string& summary) {
  const std::size_t header = summary.find("merged over ");
  const std::size_t footer = summary.find(" stream line(s)");
  if (header == std::string::npos || footer == std::string::npos) return {};
  const std::size_t body = summary.find('\n', header) + 1;
  return summary.substr(body, summary.rfind('\n', footer) + 1 - body);
}

std::vector<std::uint64_t> eight_seeds() {
  return {101, 202, 303, 404, 505, 606, 707, 808};
}

TEST(TelemetryDeterminism, RepeatedSeededSweepsExportIdenticalBytes) {
  const auto seeds = eight_seeds();
  const std::string first = streamed_sweep(seeds, 1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, streamed_sweep(seeds, 1));
}

TEST(TelemetryDeterminism, WorkerCountCannotChangeTheExport) {
  const auto seeds = eight_seeds();
  SweepReport serial_report;
  const std::string serial = streamed_sweep(seeds, 1, &serial_report);
  const std::string parallel = streamed_sweep(seeds, 8);
  // Eight workers interleave the runs' lines differently; each run's lines
  // are the same.
  EXPECT_EQ(by_run_and_seq(serial), by_run_and_seq(parallel))
      << "each run's stream must be a function of its seed, not the workers";

  // spider-trace orders what it prints by run tag, so it prints the same
  // summary of either file.
  const std::string summary = spider_trace_stdout(serial);
  EXPECT_EQ(summary, spider_trace_stdout(parallel));

  // Its merged summary reads the values of the sweep's merged_telemetry():
  // a one-run stream whose run_end carries that snapshot prints the same
  // merged section.
  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<testutil::CaptureSink>();
  exporter.set_sink(sink);
  {
    telemetry::StreamPublisher publisher(exporter, /*run_tag=*/0);
    publisher.begin_run(0, /*seed=*/0);
    publisher.end_run(0, serial_report.combined_digest(), 0,
                      serial_report.merged_telemetry());
  }
  EXPECT_TRUE(exporter.close());
  const std::string expected = merged_section(spider_trace_stdout(sink->text()));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(merged_section(summary), expected);
  EXPECT_NE(summary.find("merged over 8 finished run(s)"), std::string::npos)
      << summary;
  // And one value spelled out: the merged count of posted events, the
  // largest counter.
  char posted[80];
  std::snprintf(posted, sizeof posted, "    %-40s %12llu\n",
                "sim.events_posted",
                static_cast<unsigned long long>(
                    serial_report.merged_telemetry().counter_value(
                        "sim.events_posted")));
  EXPECT_NE(expected.find(posted), std::string::npos) << expected;
}

TEST(TelemetryDeterminism, TelemetryAgreesWithTheResultsItDescribes) {
  const auto report = run_seed_sweep(
      {41, 42}, [](std::uint64_t s) { return scenario(s); }, 1);
  for (const SweepRunResult& run : report.runs) {
    // The registry view and the ExperimentResults view of the same world
    // must agree — they are two readouts of the same counters.
    EXPECT_EQ(run.telemetry.counter_value("driver.joins"),
              run.results.joins.joins);
    EXPECT_EQ(run.telemetry.counter_value("driver.join_attempts"),
              run.results.joins.join_attempts);
    EXPECT_EQ(run.telemetry.counter_value("phy.frames_sent"),
              run.results.frames_sent);
    EXPECT_EQ(run.telemetry.counter_value("phy.frames_lost"),
              run.results.frames_lost);
    EXPECT_EQ(run.telemetry.counter_value("sim.events_fired"),
              run.events_executed);
    // Per-channel slices must sum back to the totals (this scenario never
    // leaves channel 1, so the slice *is* the total).
    EXPECT_EQ(run.telemetry.counter_value("phy.frames_sent.ch1"),
              run.results.frames_sent);
  }
}

// The traced run's stream text.
std::string traced_stream(std::uint64_t seed) {
  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<testutil::CaptureSink>();
  exporter.set_sink(sink);
  ExperimentConfig cfg = scenario(seed, /*trace=*/true);
  cfg.stream = &exporter;
  Experiment(std::move(cfg)).run();
  return sink->text();
}

TEST(TelemetryDeterminism, TracedRunEmitsTheJoinSpans) {
  const std::string text = traced_stream(7);

  std::set<std::string> span_names;
  for (const telemetry::JsonValue& span : testutil::parse_lines(text, "span")) {
    if (span.string_or("cat", "") != "join") continue;
    span_names.insert(span.string_or("name", ""));
    EXPECT_GE(span.number_or("dur_us", -1), 0.0);
  }
  std::set<std::string> track_names;
  for (const telemetry::JsonValue& track :
       testutil::parse_lines(text, "track")) {
    track_names.insert(track.string_or("name", ""));
  }
  // The full join pipeline must be visible: scan -> auth -> assoc -> dhcp,
  // plus the enclosing join envelope.
  EXPECT_TRUE(span_names.count("scan")) << text.substr(0, 400);
  EXPECT_TRUE(span_names.count("auth"));
  EXPECT_TRUE(span_names.count("assoc"));
  EXPECT_TRUE(span_names.count("dhcp"));
  EXPECT_TRUE(span_names.count("join"));
  // Each virtual interface's lane is named after its client, as is the
  // client's channel-1 dwell lane.
  const std::string client =
      net::MacAddress::from_index(0x00C00001u).to_string();
  EXPECT_TRUE(std::any_of(track_names.begin(), track_names.end(),
                          [&client](const std::string& name) {
                            return name.starts_with(client + " vif ");
                          }));
  EXPECT_TRUE(track_names.count(client + " ch1"));

  // Re-running the identical traced scenario streams the identical lines.
  EXPECT_EQ(text, traced_stream(7));
}

TEST(TelemetryDeterminism, UntracedRunsRecordNoTraceEvents) {
  Experiment experiment(scenario(7, /*trace=*/false));
  experiment.run();
  EXPECT_EQ(experiment.simulator().telemetry().trace().recorded(), 0u);
}

}  // namespace
}  // namespace spider::core
