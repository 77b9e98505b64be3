// Parallel sweep engine: N independent (config, seed) -> ExperimentResults
// replications fanned across a fixed thread pool.
//
// Concurrency model (the determinism contract):
//   * each replication constructs, runs, and destroys its *own* Experiment —
//     one Simulator world per task, nothing simulator-related crosses a
//     thread boundary;
//   * configs are built serially on the calling thread (the factory needs no
//     thread safety) and results land in pre-sized slots, so the report is
//     in submission order regardless of completion order;
//   * every run records its Simulator::digest(), so a serial run and a
//     parallel run of the same sweep are verifiably identical — see
//     tests/sweep_test.cc, which gates 1-thread vs 8-thread digests.
//
// This is what lets every bench/fig* and bench/table* binary execute its
// seed replications at hardware speed without perturbing a single metric.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.h"
#include "telemetry/metrics.h"

namespace spider::core {

// One replication's outcome plus the evidence that it is the same run a
// serial executor would have produced.
struct SweepRunResult {
  std::size_t index = 0;       // submission index within the sweep
  std::uint64_t seed = 0;      // config.seed of this replication
  ExperimentResults results;
  std::uint64_t digest = 0;    // Simulator::digest() after the run
  std::uint64_t events_executed = 0;
  // Collected telemetry of this replication's world.
  telemetry::MetricsSnapshot telemetry;
};

struct SweepReport {
  std::vector<SweepRunResult> runs;  // submission order
  unsigned threads = 1;              // workers actually used
  double wall_seconds = 0.0;

  // Order-sensitive FNV-1a over the per-run digests: one number that pins
  // down the whole sweep. Serial and parallel executions must agree on it.
  std::uint64_t combined_digest() const;

  // Submission-order merge of the per-run snapshots. Worker count cannot
  // affect the result: merges apply in run index order, not completion
  // order, so 1-thread and 8-thread sweeps merge identically. spider-trace's
  // merged summary of the sweep's stream reads the same values.
  telemetry::MetricsSnapshot merged_telemetry() const;
};

class SweepRunner {
 public:
  using ConfigFactory = std::function<ExperimentConfig(std::size_t index)>;

  // threads == 0 picks hardware concurrency; threads == 1 runs inline on the
  // calling thread (no pool), which is also the fallback when a sweep has a
  // single replication.
  explicit SweepRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  // Runs `replications` independent experiments. make_config(i) is invoked
  // serially, in order, on the calling thread. Exceptions thrown by a
  // replication propagate to the caller after outstanding runs finish.
  SweepReport run(std::size_t replications,
                  const ConfigFactory& make_config) const;

 private:
  unsigned threads_;
};

// Convenience for the common bench shape: one scenario replicated across
// seeds. make_config(seed) must set cfg.seed itself (every existing bench
// factory already does).
SweepReport run_seed_sweep(
    const std::vector<std::uint64_t>& seeds,
    const std::function<ExperimentConfig(std::uint64_t seed)>& make_config,
    unsigned threads = 0);

}  // namespace spider::core
