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

// Telemetry flags shared by every bench binary that runs simulated worlds:
//   --stream <path>   write every world's run to <path> as
//                     spider-telemetry-stream-v1 JSONL (also
//                     --stream=<path>; inspect with `spider-trace <path>`,
//                     see DESIGN.md "Live telemetry plane");
//   --trace           also record the binary's first world's trace events
//                     (join spans, channel dwells, queue-depth samples) into
//                     that stream; `spider-trace --chrome OUT <path>` turns
//                     them into a Perfetto / chrome://tracing file.
// Any other argument exits 2. Benches that run no world take no flags
// (reject_flags).
struct TelemetryOptions {
  std::string stream_path;
  bool trace = false;
  // The binary's stream, once --stream's file is open; nullptr otherwise.
  telemetry::StreamExporter* stream = nullptr;
};

inline TelemetryOptions& telemetry_options() {
  static TelemetryOptions options;
  return options;
}

// Exits 2 with `problem` and a usage line.
[[noreturn]] inline void usage_error(const char* program,
                                     const std::string& problem,
                                     const char* usage) {
  std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program, problem.c_str(),
               program, usage);
  std::exit(2);
}

// For benches that evaluate the analytical model only: there is no world
// to stream, so any argument exits 2.
inline void reject_flags(int argc, char** argv) {
  if (argc > 1) {
    usage_error(argv[0], std::string("unexpected argument '") + argv[1] + "'",
                "(takes no arguments)");
  }
}

// Parses the shared flags above and opens the stream file; call first thing
// in main. A file that cannot be opened exits 1.
inline void parse_common_flags(int argc, char** argv) {
  static constexpr const char* kUsage = "[--stream PATH [--trace]]";
  TelemetryOptions& options = telemetry_options();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      options.stream_path = argv[++i];
    } else if (std::strncmp(argv[i], "--stream=", 9) == 0 &&
               argv[i][9] != '\0') {
      options.stream_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
    } else {
      usage_error(argv[0],
                  std::string("unexpected argument '") + argv[i] + "'",
                  kUsage);
    }
  }
  if (options.trace && options.stream_path.empty()) {
    usage_error(argv[0], "--trace records into the stream; add --stream PATH",
                kUsage);
  }
  if (options.stream_path.empty()) return;
  auto sink = std::make_shared<telemetry::FileStreamSink>(options.stream_path);
  if (!sink->ok()) {
    std::fprintf(stderr, "%s: could not open stream file %s\n", argv[0],
                 options.stream_path.c_str());
    std::exit(1);
  }
  static telemetry::StreamExporter exporter;
  exporter.set_sink(std::move(sink));
  options.stream = &exporter;
}

// Attaches one world to the binary's stream, if there is one: the next
// binary-wide run tag, and tracing on for the binary's first world when
// --trace is set. Call once per world, in the order the worlds' configs are
// built (sweeps build them serially in submission order, core/sweep.cc), so
// tags are deterministic across worker counts and a multi-sweep bench never
// reuses one.
inline void attach_stream(core::WorldConfig& cfg) {
  const TelemetryOptions& options = telemetry_options();
  if (options.stream == nullptr) return;
  static std::uint32_t next_tag = 1;
  cfg.stream = options.stream;
  cfg.stream_run_tag = next_tag++;
  if (options.trace && cfg.stream_run_tag == 1) cfg.trace_enabled = true;
}

// main's exit status: closes the stream file (its last line carries the
// process-wide check counters) and returns 1, after a message, if any write
// to it failed; 0 otherwise.
inline int finish() {
  const TelemetryOptions& options = telemetry_options();
  if (options.stream == nullptr || options.stream->close()) return 0;
  std::fprintf(stderr, "error: writing stream file %s failed; it is "
               "incomplete\n", options.stream_path.c_str());
  return 1;
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
// produced them. Every world is attached to the stream (attach_stream).
inline std::vector<core::ExperimentResults> run_seed_replications(
    const std::vector<std::uint64_t>& seeds,
    const std::function<core::ExperimentConfig(std::uint64_t)>& make_config) {
  core::SweepReport report = core::run_seed_sweep(
      seeds,
      [&](std::uint64_t seed) {
        core::ExperimentConfig cfg = make_config(seed);
        attach_stream(cfg);
        return cfg;
      },
      sweep_threads());
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
