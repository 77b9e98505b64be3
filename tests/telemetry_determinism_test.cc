// Telemetry determinism gates.
//
// The exports are only trustworthy if they are *reproducible artifacts*:
// the same seeded sweep must render byte-identical JSONL no matter how many
// worker threads ran it and no matter how often it is repeated. These tests
// pin that property at the string level (not just value-level equality), and
// check the end-to-end trace path: a vehicular run with tracing on must
// produce Perfetto-loadable JSON containing the scan/auth/assoc/DHCP join
// spans the recorder promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "mobility/route.h"
#include "net/addr.h"
#include "telemetry/json.h"
#include "telemetry/run_report.h"

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

// Exactly what core::append_telemetry_jsonl writes, minus the file I/O —
// the byte sequence under test.
std::string render_jsonl(const SweepReport& report) {
  std::string out;
  for (const SweepRunResult& run : report.runs) {
    out += telemetry::run_report_line("gate", run.index, run.seed, run.digest,
                                      run.events_executed, run.telemetry);
    out += '\n';
  }
  out += telemetry::sweep_report_line("gate", report.runs.size(),
                                      report.combined_digest(),
                                      report.merged_telemetry());
  out += '\n';
  return out;
}

std::vector<std::uint64_t> eight_seeds() {
  return {101, 202, 303, 404, 505, 606, 707, 808};
}

TEST(TelemetryDeterminism, RepeatedSeededSweepsExportIdenticalBytes) {
  const auto seeds = eight_seeds();
  const auto first = run_seed_sweep(
      seeds, [](std::uint64_t s) { return scenario(s); }, 2);
  const auto second = run_seed_sweep(
      seeds, [](std::uint64_t s) { return scenario(s); }, 2);
  EXPECT_EQ(render_jsonl(first), render_jsonl(second));
}

TEST(TelemetryDeterminism, WorkerCountCannotChangeTheExport) {
  const auto seeds = eight_seeds();
  const auto serial = run_seed_sweep(
      seeds, [](std::uint64_t s) { return scenario(s); }, 1);
  const auto parallel = run_seed_sweep(
      seeds, [](std::uint64_t s) { return scenario(s); }, 8);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  EXPECT_EQ(render_jsonl(serial), render_jsonl(parallel))
      << "merged telemetry must be a function of the runs, not the workers";
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

TEST(TelemetryDeterminism, TracedRunEmitsTheJoinSpans) {
  Experiment experiment(scenario(7, /*trace=*/true));
  experiment.run();
  const std::string json =
      experiment.simulator().telemetry().trace().to_json();

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(json, doc, &error)) << error;
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> span_names;
  std::set<std::string> track_names;
  for (const telemetry::JsonValue& ev : events->array) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "X" && ev.string_or("cat", "") == "join") {
      span_names.insert(ev.string_or("name", ""));
      EXPECT_GE(ev.number_or("dur", -1), 0.0);
    } else if (ph == "M") {
      if (const telemetry::JsonValue* args = ev.find("args")) {
        track_names.insert(args->string_or("name", ""));
      }
    }
  }
  // The full join pipeline must be visible: scan -> auth -> assoc -> dhcp,
  // plus the enclosing join envelope.
  EXPECT_TRUE(span_names.count("scan")) << json.substr(0, 400);
  EXPECT_TRUE(span_names.count("auth"));
  EXPECT_TRUE(span_names.count("assoc"));
  EXPECT_TRUE(span_names.count("dhcp"));
  EXPECT_TRUE(span_names.count("join"));
  // Track 0 is the main/stock lane; the first virtual interface gets lane 1.
  EXPECT_TRUE(track_names.count("vif1"));

  // Re-running the identical traced scenario renders the identical file.
  Experiment again(scenario(7, /*trace=*/true));
  again.run();
  EXPECT_EQ(json, again.simulator().telemetry().trace().to_json());
}

TEST(TelemetryDeterminism, UntracedRunsRecordNoTraceEvents) {
  Experiment experiment(scenario(7, /*trace=*/false));
  experiment.run();
  EXPECT_EQ(experiment.simulator().telemetry().trace().recorded(), 0u);
}

}  // namespace
}  // namespace spider::core
