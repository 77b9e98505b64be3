// SweepRunner determinism gate: a sweep run with 1 thread and the same sweep
// run with 8 threads must yield identical per-run Simulator digests and
// identical ExperimentResults. This is the property that lets the bench
// binaries fan replications across cores without perturbing a single metric.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "mobility/route.h"
#include "net/addr.h"
#include "sim/thread_pool.h"

namespace spider::core {
namespace {

// Compact vehicular scenario (short drive past two APs) so 16 replications
// stay fast while still exercising the full stack: PHY, MAC, DHCP, TCP.
ExperimentConfig sweep_scenario(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.duration = sim::Time::seconds(20);
  cfg.medium.base_loss = 0.1;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(300.0), 12.0);
  cfg.spider = single_channel_multi_ap(1);

  mobility::ApDescriptor ap;
  ap.ssid = "sweep-ap";
  ap.mac = net::MacAddress::from_index(0xA0);
  ap.subnet = net::Ipv4Address{(10u << 24) | (0xA0u << 8)};
  ap.position = {90, 12};
  ap.channel = 1;
  ap.backhaul_bps = 2e6;
  mobility::ApDescriptor ap2 = ap;
  ap2.ssid = "sweep-ap2";
  ap2.mac = net::MacAddress::from_index(0xA1);
  ap2.subnet = net::Ipv4Address{(10u << 24) | (0xA1u << 8)};
  ap2.position = {210, -8};
  cfg.aps = {ap, ap2};
  return cfg;
}

std::vector<std::uint64_t> sixteen_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 16; ++s) seeds.push_back(s * 31 + 5);
  return seeds;
}

void expect_identical_cdfs(const trace::EmpiricalCdf& a,
                           const trace::EmpiricalCdf& b, const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  const auto& sa = a.samples();
  const auto& sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << what << " sample " << i;
  }
}

// Field-wise equality across everything an ExperimentResults carries. Exact
// floating-point comparison is intentional: serial and parallel replications
// execute the identical event sequence, so every derived number must match
// bit for bit, not just approximately.
void expect_identical_results(const ExperimentResults& a,
                              const ExperimentResults& b) {
  EXPECT_EQ(a.traffic.total_bytes, b.traffic.total_bytes);
  EXPECT_EQ(a.traffic.avg_throughput_bytes_per_sec,
            b.traffic.avg_throughput_bytes_per_sec);
  EXPECT_EQ(a.traffic.connectivity_fraction, b.traffic.connectivity_fraction);
  expect_identical_cdfs(a.traffic.connection_durations_sec,
                        b.traffic.connection_durations_sec,
                        "connection_durations");
  expect_identical_cdfs(a.traffic.disruption_durations_sec,
                        b.traffic.disruption_durations_sec,
                        "disruption_durations");
  expect_identical_cdfs(a.traffic.instantaneous_bytes_per_sec,
                        b.traffic.instantaneous_bytes_per_sec,
                        "instantaneous_rate");
  expect_identical_cdfs(a.joins.association_delay_sec,
                        b.joins.association_delay_sec, "association_delay");
  expect_identical_cdfs(a.joins.join_delay_sec, b.joins.join_delay_sec,
                        "join_delay");
  EXPECT_EQ(a.joins.associations, b.joins.associations);
  EXPECT_EQ(a.joins.joins, b.joins.joins);
  EXPECT_EQ(a.joins.join_attempts, b.joins.join_attempts);
  EXPECT_EQ(a.joins.dhcp_attempt_failures, b.joins.dhcp_attempt_failures);
  EXPECT_EQ(a.joins.dhcp_attempts, b.joins.dhcp_attempts);
  EXPECT_EQ(a.joins.dhcp_failed_joins, b.joins.dhcp_failed_joins);
  EXPECT_EQ(a.flows_opened, b.flows_opened);
  EXPECT_EQ(a.channel_switches, b.channel_switches);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.client_joules, b.client_joules);
}

TEST(Sweep, SerialAndEightThreadSweepsAreIdentical) {
  const auto seeds = sixteen_seeds();
  const SweepReport serial = run_seed_sweep(seeds, sweep_scenario, 1);
  const SweepReport parallel = run_seed_sweep(seeds, sweep_scenario, 8);

  ASSERT_EQ(serial.runs.size(), seeds.size());
  ASSERT_EQ(parallel.runs.size(), seeds.size());
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(parallel.threads, 8u);

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("replication " + std::to_string(i));
    EXPECT_EQ(serial.runs[i].index, i);
    EXPECT_EQ(parallel.runs[i].index, i);
    EXPECT_EQ(serial.runs[i].seed, seeds[i]);
    EXPECT_EQ(parallel.runs[i].seed, seeds[i]);
    EXPECT_EQ(serial.runs[i].digest, parallel.runs[i].digest)
        << "parallel execution changed what the simulator did";
    EXPECT_EQ(serial.runs[i].events_executed, parallel.runs[i].events_executed);
    expect_identical_results(serial.runs[i].results, parallel.runs[i].results);
  }
  EXPECT_EQ(serial.combined_digest(), parallel.combined_digest());
}

TEST(Sweep, ResultsArriveInSubmissionOrder) {
  const auto seeds = sixteen_seeds();
  const SweepReport report = run_seed_sweep(seeds, sweep_scenario, 4);
  ASSERT_EQ(report.runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(report.runs[i].index, i);
    EXPECT_EQ(report.runs[i].seed, seeds[i]);
  }
}

TEST(Sweep, DifferentSeedsProduceDifferentDigests) {
  const std::vector<std::uint64_t> seeds = {3, 4};
  const SweepReport report = run_seed_sweep(seeds, sweep_scenario, 1);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_NE(report.runs[0].digest, report.runs[1].digest);
}

TEST(Sweep, RepeatedSweepsAgreeOnCombinedDigest) {
  const std::vector<std::uint64_t> seeds = {11, 13, 17};
  const auto first = run_seed_sweep(seeds, sweep_scenario, 2);
  const auto second = run_seed_sweep(seeds, sweep_scenario, 2);
  EXPECT_EQ(first.combined_digest(), second.combined_digest());
}

TEST(Sweep, ThreadsNeverExceedReplications) {
  const std::vector<std::uint64_t> seeds = {5, 9};
  const SweepReport report = run_seed_sweep(seeds, sweep_scenario, 8);
  EXPECT_LE(report.threads, 2u)
      << "a 2-replication sweep must not claim more than 2 workers";
}

TEST(Sweep, RunOnSharedPoolMatchesOwnedPool) {
  // A sweep on a caller-owned pool must be the same sweep: identical per-run
  // digests and combined digest, with the worker count taken from the pool.
  const std::vector<std::uint64_t> seeds = {7, 21, 35, 49};
  const SweepReport owned = run_seed_sweep(seeds, sweep_scenario, 4);
  sim::ThreadPool pool(4);
  const SweepReport shared =
      SweepRunner(4).run_on(pool, seeds.size(), [&](std::size_t i) {
        return sweep_scenario(seeds[i]);
      });
  EXPECT_EQ(shared.threads, 4u);
  ASSERT_EQ(shared.runs.size(), owned.runs.size());
  for (std::size_t i = 0; i < owned.runs.size(); ++i) {
    EXPECT_EQ(shared.runs[i].seed, owned.runs[i].seed);
    EXPECT_EQ(shared.runs[i].digest, owned.runs[i].digest)
        << "replication " << i << " diverged on the shared pool";
  }
  EXPECT_EQ(shared.combined_digest(), owned.combined_digest());
}

TEST(Sweep, FactoryExceptionPropagates) {
  SweepRunner runner(2);
  EXPECT_THROW(
      runner.run(4,
                 [](std::size_t i) -> ExperimentConfig {
                   if (i == 2) throw std::runtime_error("bad config");
                   return sweep_scenario(i + 1);
                 }),
      std::runtime_error);
}

}  // namespace
}  // namespace spider::core
