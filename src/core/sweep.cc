// spider-lint: timing-only steady_clock here measures host wall time for sweep progress/throughput reporting; nothing it reads ever feeds simulation state or the digest
#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "core/check.h"
#include "sim/thread_pool.h"

namespace spider::core {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

SweepRunResult run_one(std::size_t index, ExperimentConfig config) {
  SweepRunResult out;
  out.index = index;
  out.seed = config.seed;
  Experiment experiment(std::move(config));
  out.results = experiment.run();
  out.digest = experiment.simulator().digest();
  out.events_executed = experiment.simulator().events_executed();
  // Snapshot on the worker thread, inside the world that produced it; only
  // the immutable snapshot crosses back to the caller.
  out.telemetry = experiment.simulator().telemetry().collect();
  return out;
}

}  // namespace

std::uint64_t SweepReport::combined_digest() const {
  std::uint64_t digest = kFnvOffset;
  for (const SweepRunResult& run : runs) {
    digest = fnv1a_u64(digest, run.digest);
  }
  return digest;
}

telemetry::MetricsSnapshot SweepReport::merged_telemetry() const {
  telemetry::MetricsSnapshot merged;
  for (const SweepRunResult& run : runs) {
    merged.merge_from(run.telemetry);
  }
  return merged;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads == 0 ? sim::ThreadPool::default_thread_count()
                            : threads) {}

SweepReport SweepRunner::run(std::size_t replications,
                             const ConfigFactory& make_config) const {
  SPIDER_CHECK(static_cast<bool>(make_config)) << "sweep without a factory";
  SweepReport report;
  // Never spin up more workers than there are replications.
  report.threads = static_cast<unsigned>(std::min<std::size_t>(
      threads_, std::max<std::size_t>(replications, 1)));
  report.runs.resize(replications);

  // Configs are materialized serially so a stateful factory behaves exactly
  // as it would in the old serial for-loop.
  std::vector<ExperimentConfig> configs;
  configs.reserve(replications);
  for (std::size_t i = 0; i < replications; ++i) {
    configs.push_back(make_config(i));
    // Streamed lines are tagged with the submission index, never a worker
    // id, so a live stream sorts deterministically by (run, seq) whatever
    // the thread count. Factories that set their own tag keep it.
    if (configs.back().stream != nullptr && configs.back().stream_run_tag == 0)
      configs.back().stream_run_tag = static_cast<std::uint32_t>(i);
  }

  const auto start = std::chrono::steady_clock::now();
  if (report.threads <= 1) {
    for (std::size_t i = 0; i < replications; ++i) {
      report.runs[i] = run_one(i, std::move(configs[i]));
    }
  } else {
    // Each task owns its whole world, so worker scheduling cannot affect
    // results.
    sim::ThreadPool pool(report.threads);
    std::vector<std::future<void>> done;
    done.reserve(replications);
    for (std::size_t i = 0; i < replications; ++i) {
      done.push_back(pool.submit(
          [i, config = std::move(configs[i]), &report]() mutable {
            report.runs[i] = run_one(i, std::move(config));
          }));
    }
    // get() rather than wait() so a replication's exception propagates; all
    // futures are collected first so outstanding runs finish either way.
    for (std::future<void>& f : done) f.get();
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

SweepReport run_seed_sweep(
    const std::vector<std::uint64_t>& seeds,
    const std::function<ExperimentConfig(std::uint64_t seed)>& make_config,
    unsigned threads) {
  SweepRunner runner(threads);
  return runner.run(seeds.size(), [&](std::size_t i) {
    ExperimentConfig cfg = make_config(seeds[i]);
    return cfg;
  });
}

}  // namespace spider::core
