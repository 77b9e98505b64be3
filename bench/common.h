// Shared scaffolding for the reproduction benches: the telemetry flags, the
// seed sweeps, and CDF printing in the gnuplot-friendly two-column format
// each figure plots. The paper worlds themselves live in core/scenarios.h.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "telemetry/stream_exporter.h"
#include "trace/stats.h"

namespace spider::bench {

// Telemetry export options shared by every bench binary:
//   --telemetry <path>   append one spider-telemetry-v1 JSONL block per sweep
//                        (inspect with `spider-trace <path>`);
//   --trace <path>       record the binary's *first* replication with the
//                        Chrome trace recorder and write the JSON there
//                        (load in Perfetto / chrome://tracing);
//   --stream <path>      stream every replication live as
//                        spider-telemetry-stream-v1 JSONL (inspect with
//                        `spider-trace <path>`; see DESIGN.md "Live
//                        telemetry plane").
// All also accept the --flag=value spelling.
struct TelemetryOptions {
  std::string telemetry_path;
  std::string trace_path;
  std::string stream_path;
};

inline TelemetryOptions& telemetry_options() {
  static TelemetryOptions options;
  return options;
}

// Parses the shared flags above; call first thing in main. Unknown
// arguments are ignored (benches have no other flags).
inline void parse_common_flags(int argc, char** argv) {
  TelemetryOptions& options = telemetry_options();
  const auto value_of = [&](const char* flag, int& i) -> const char* {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of("--telemetry", i)) {
      options.telemetry_path = v;
    } else if (const char* v = value_of("--trace", i)) {
      options.trace_path = v;
    } else if (const char* v = value_of("--stream", i)) {
      options.stream_path = v;
    }
  }
}

// The binary's shared stream exporter, created on first use when --stream is
// set (nullptr otherwise). One exporter serves every sweep in the binary:
// each run appends its own lines to the file, and the exporter flushes the
// file sink at exit.
inline telemetry::StreamExporter* stream_exporter() {
  const TelemetryOptions& options = telemetry_options();
  if (options.stream_path.empty()) return nullptr;
  static telemetry::StreamExporter exporter;
  static const bool wired = [] {
    auto sink = std::make_shared<telemetry::FileStreamSink>(
        telemetry_options().stream_path);
    if (!sink->ok()) {
      std::fprintf(stderr, "warning: could not open stream file %s\n",
                   telemetry_options().stream_path.c_str());
      return false;
    }
    exporter.set_sink(std::move(sink));
    return true;
  }();
  return wired ? &exporter : nullptr;
}

// Binary-wide run tags for --stream: configs materialize serially in
// submission order (core/sweep.cc), so consecutive tags are deterministic
// across worker counts and a multi-sweep bench never reuses a tag.
inline std::uint32_t next_stream_run_tag() {
  static std::uint32_t next = 1;
  return next++;
}

// Worker threads for bench sweeps: SPIDER_BENCH_THREADS if set (>0), else
// hardware concurrency. Per-seed results are bit-identical either way — the
// sweep determinism gate in tests/sweep_test.cc is what lets every bench
// default to parallel without perturbing a single reproduced number.
inline unsigned sweep_threads() {
  if (const char* env = std::getenv("SPIDER_BENCH_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
  }
  return 0;  // SweepRunner resolves 0 to hardware concurrency
}

// Replicates one scenario across seeds (one Simulator world per worker) and
// returns per-seed results in seed order, exactly as the old serial loops
// produced them. When --telemetry is set, every sweep appends its JSONL
// block under `label`; when --trace is set, the binary's first replication
// runs with the trace recorder on and its Chrome trace JSON lands at the
// given path.
inline std::vector<core::ExperimentResults> run_seed_replications(
    const std::vector<std::uint64_t>& seeds,
    const std::function<core::ExperimentConfig(std::uint64_t)>& make_config,
    const char* label = "sweep") {
  const TelemetryOptions& options = telemetry_options();
  static bool trace_written = false;
  const bool want_trace = !options.trace_path.empty() && !trace_written;
  std::size_t invocation = 0;
  core::SweepReport report = core::run_seed_sweep(
      seeds,
      [&](std::uint64_t seed) {
        core::ExperimentConfig cfg = make_config(seed);
        // Configs materialize serially in submission order, so invocation 0
        // is exactly run 0 of this sweep.
        if (want_trace && invocation == 0) cfg.trace_enabled = true;
        if (telemetry::StreamExporter* stream = stream_exporter()) {
          cfg.stream = stream;
          cfg.stream_run_tag = next_stream_run_tag();
        }
        ++invocation;
        return cfg;
      },
      sweep_threads());
  if (!options.telemetry_path.empty()) {
    if (!core::append_telemetry_jsonl(report, options.telemetry_path, label)) {
      std::fprintf(stderr, "warning: could not append telemetry to %s\n",
                   options.telemetry_path.c_str());
    }
  }
  if (want_trace && !report.runs.empty() &&
      !report.runs.front().trace_json.empty()) {
    if (std::FILE* f = std::fopen(options.trace_path.c_str(), "w")) {
      std::fwrite(report.runs.front().trace_json.data(), 1,
                  report.runs.front().trace_json.size(), f);
      std::fclose(f);
      trace_written = true;
    } else {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   options.trace_path.c_str());
    }
  }
  std::vector<core::ExperimentResults> results;
  results.reserve(report.runs.size());
  for (core::SweepRunResult& run : report.runs) {
    results.push_back(std::move(run.results));
  }
  return results;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

// Prints a CDF as "x F(x)" rows, one series per call. Labels are plain
// C strings (every caller passes a literal or a local char buffer); taking
// std::string here used to construct and destroy a throwaway heap string on
// every row of every figure's inner loop.
inline void print_cdf(const char* label, const trace::EmpiricalCdf& cdf,
                      double x_max, int points = 16) {
  std::printf("# series: %s (%zu samples)\n", label, cdf.count());
  if (cdf.empty()) {
    std::printf("#   (empty)\n");
    return;
  }
  for (const auto& [x, f] : cdf.curve(points, 0.0, x_max)) {
    std::printf("  %10.2f  %6.3f\n", x, f);
  }
}

inline void print_cdf_summary(const char* label,
                              const trace::EmpiricalCdf& cdf) {
  if (cdf.empty()) {
    std::printf("  %-38s  (no samples)\n", label);
    return;
  }
  std::printf("  %-38s median=%7.2f  p90=%7.2f  n=%zu\n", label,
              cdf.median(), cdf.quantile(0.9), cdf.count());
}

}  // namespace spider::bench
