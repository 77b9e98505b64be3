#include "model/throughput_opt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <vector>

#include "sim/thread_pool.h"

namespace spider::model {
namespace {

OptimizerParams paper_optimizer(double T = 20.0) {
  OptimizerParams p;
  p.join.beta_max = 10.0;
  p.time_in_range = T;
  return p;
}

TEST(ChannelCap, JoinedBandwidthIsUndiscounted) {
  const OptimizerParams p = paper_optimizer();
  const ChannelOffer joined{.joined_bps = 5.5e6, .available_bps = 0.0};
  EXPECT_DOUBLE_EQ(channel_cap_fraction(p, joined, 0.3), 0.5);
  EXPECT_DOUBLE_EQ(channel_cap_fraction(p, joined, 0.9), 0.5);
}

TEST(ChannelCap, AvailableBandwidthDiscountedByJoinTime) {
  const OptimizerParams p = paper_optimizer();
  const ChannelOffer avail{.joined_bps = 0.0, .available_bps = 5.5e6};
  const double cap = channel_cap_fraction(p, avail, 0.5);
  EXPECT_GT(cap, 0.0);
  EXPECT_LT(cap, 0.5);  // strictly less than the undiscounted share
}

TEST(ChannelCap, MonotoneInFraction) {
  const OptimizerParams p = paper_optimizer();
  const ChannelOffer avail{.joined_bps = 0.0, .available_bps = 8e6};
  double prev = 0.0;
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double cap = channel_cap_fraction(p, avail, f);
    EXPECT_GE(cap, prev - 1e-9);
    prev = cap;
  }
}

TEST(ChannelCap, ClampedToUnit) {
  const OptimizerParams p = paper_optimizer();
  const ChannelOffer huge{.joined_bps = 100e6, .available_bps = 0.0};
  EXPECT_DOUBLE_EQ(channel_cap_fraction(p, huge, 0.5), 1.0);
}

// f - cap(f) is not monotone in f: cap jumps up wherever requests_per_round
// steps (f = 0.014, 0.214, ... at the paper's D, w and c) and sags in
// between, so {f : f <= cap(f)} is a union of intervals, not one.
// max_feasible_fraction's answer therefore depends on the budget it starts
// from, and one cached crossing per solve would change the model's answers.
// Fig. 4 scenario s1 (50 % of Bw pending on channel 2) at T = 10 s, the
// 100 m range crossed at 20 m/s.
TEST(ChannelCap, FeasibleSetIsNotAnInterval) {
  const OptimizerParams p = paper_optimizer(/*T=*/10.0);
  const ChannelOffer pending{.joined_bps = 0.0,
                             .available_bps = 0.5 * p.wireless_bps};
  // The f at which f - cap(f) has the other sign than at f - 0.001: today
  // 0.015, 0.079, 0.215 and 0.252.
  std::vector<double> changes;
  bool infeasible = false;
  for (int i = 1; i <= 1000; ++i) {
    const double f = i * 0.001;
    const bool over = f > channel_cap_fraction(p, pending, f);
    if (i > 1 && over != infeasible) changes.push_back(f);
    infeasible = over;
  }
  EXPECT_GT(changes.size(), 1u)
      << "f - cap(f) changes sign at " << ::testing::PrintToString(changes);
}

// The solver without the join-time memo: every probe of Eq. 9 goes through
// channel_cap_fraction, which evaluates Eq. 7 afresh. The library memoizes
// g_T(f) per call and must return these fractions bit for bit.
namespace unmemoized {

double max_feasible_fraction(const OptimizerParams& params,
                             const ChannelOffer& offer, double budget) {
  budget = std::clamp(budget, 0.0, 1.0);
  if (budget <= 0.0) return 0.0;
  if (budget <= channel_cap_fraction(params, offer, budget)) return budget;
  double lo = 0.0, hi = budget;
  for (int i = 0; i < 40; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (mid <= channel_cap_fraction(params, offer, mid)) lo = mid; else hi = mid;
  }
  return lo;
}

double switch_tax(const OptimizerParams& params, double fraction) {
  return fraction > 0.0 ? params.join.switch_delay / params.join.period : 0.0;
}

std::vector<double> optimize_two_channels(const OptimizerParams& params,
                                          ChannelOffer ch1, ChannelOffer ch2) {
  double best_obj = -1.0;
  double best_f1 = 0.0, best_f2 = 0.0;
  const int steps = static_cast<int>(std::round(1.0 / params.grid_step));
  for (int i = 0; i <= steps; ++i) {
    const double f2_try = static_cast<double>(i) / steps;
    const double f2 = std::min(
        f2_try, max_feasible_fraction(params, ch2, f2_try));
    const double budget1 =
        1.0 - f2 - switch_tax(params, f2) - switch_tax(params, 1.0);
    const double f1 = max_feasible_fraction(params, ch1, budget1);
    const double obj = f1 + f2;
    if (obj > best_obj) {
      best_obj = obj;
      best_f1 = f1;
      best_f2 = f2;
    }
  }
  return {best_f1, best_f2};
}

// optimize_channels for one offer.
double optimize_one_channel(const OptimizerParams& params,
                            const ChannelOffer& offer) {
  const double tax = params.join.switch_delay / params.join.period;
  return max_feasible_fraction(params, offer, 1.0 - tax);
}

}  // namespace unmemoized

// Fig. 4's inputs (25/50/75 % of Bw joined on channel 1, the rest pending on
// channel 2, 100 m and 50 m ranges) at every speed from 0.5 to 60 m/s in
// 0.25 m/s steps, then, at 1 m/s steps, two offer pairs that both have
// bandwidth pending, so a cache that mixed up offers or horizons would show.
TEST(JoinTimeMemo, TwoChannelSolvesAreBitIdentical) {
  const double Bw = paper_optimizer().wireless_bps;
  struct Sweep {
    ChannelOffer ch1, ch2;
    int quarters_per_step;  // speed step in units of 0.25 m/s
  };
  std::vector<Sweep> sweeps;
  for (const double joined : {0.25, 0.50, 0.75}) {
    sweeps.push_back({{joined * Bw, 0}, {0, (1.0 - joined) * Bw}, 1});
  }
  sweeps.push_back({{0.25 * Bw, 0.25 * Bw}, {0, 0.5 * Bw}, 4});
  sweeps.push_back({{0, 0.3 * Bw}, {0.1 * Bw, 0.6 * Bw}, 4});
  std::size_t solves = 0;
  for (const Sweep& sweep : sweeps) {
    for (const double range_m : {100.0, 50.0}) {
      for (int q = 2; q <= 240; q += sweep.quarters_per_step) {
        const double speed = q * 0.25;
        const OptimizerParams p =
            paper_optimizer(time_in_range_for_speed(speed, range_m));
        const auto want =
            unmemoized::optimize_two_channels(p, sweep.ch1, sweep.ch2);
        const auto got = optimize_two_channels(p, sweep.ch1, sweep.ch2);
        ASSERT_EQ(got.fractions.size(), 2u);
        EXPECT_EQ(got.fractions[0], want[0])
            << "ch1 at " << speed << " m/s, range " << range_m;
        EXPECT_EQ(got.fractions[1], want[1])
            << "ch2 at " << speed << " m/s, range " << range_m;
        ++solves;
      }
    }
  }
  EXPECT_EQ(solves, 3u * 2u * 239u + 2u * 2u * 60u);
}

// The one-offer path on the KChannel cases, over a range of horizons.
TEST(JoinTimeMemo, KChannelSolvesAreBitIdentical) {
  const double Bw = paper_optimizer().wireless_bps;
  for (const ChannelOffer offer : {ChannelOffer{Bw, 0}, ChannelOffer{0, 0.8 * Bw}}) {
    for (const double T : {2.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
      const OptimizerParams p = paper_optimizer(T);
      const auto got = optimize_channels(p, {offer});
      ASSERT_EQ(got.fractions.size(), 1u);
      EXPECT_EQ(got.fractions[0], unmemoized::optimize_one_channel(p, offer))
          << "joined " << offer.joined_bps << ", pending "
          << offer.available_bps << ", T " << T;
    }
  }
}

// The memo marks an empty slot with one NaN bit pattern. A fraction with
// those bits can only come from parameters carrying that NaN, which Eq. 7
// rejects; the memo must evaluate it (and throw) rather than read the empty
// slot as a stored g. Channel 1 is the only one with bandwidth pending, so
// every Eq. 7 probe it makes has the NaN budget's bits.
TEST(JoinTimeMemo, NaNFractionIsEvaluatedNotLookedUp) {
  OptimizerParams p = paper_optimizer();
  p.join.switch_delay = std::bit_cast<double>(~std::uint64_t{0});
  const double Bw = p.wireless_bps;
  EXPECT_THROW(optimize_two_channels(p, {0, 0.5 * Bw}, {0.5 * Bw, 0}),
               std::invalid_argument);
}

TEST(TwoChannel, RespectsPeriodBudget) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const auto a = optimize_two_channels(p, {0.5 * Bw, 0}, {0, 0.5 * Bw});
  const double tax = p.join.switch_delay / p.join.period;
  double used = a.fractions[0] + a.fractions[1];
  if (a.fractions[0] > 0) used += tax;
  if (a.fractions[1] > 0) used += tax;
  EXPECT_LE(used, 1.0 + 1e-6);
}

TEST(TwoChannel, FractionsRespectCaps) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const ChannelOffer ch1{0.25 * Bw, 0};
  const ChannelOffer ch2{0, 0.75 * Bw};
  const auto a = optimize_two_channels(p, ch1, ch2);
  EXPECT_LE(a.fractions[0], channel_cap_fraction(p, ch1, a.fractions[0]) + 1e-6);
  EXPECT_LE(a.fractions[1], channel_cap_fraction(p, ch2, a.fractions[1]) + 1e-6);
}

TEST(TwoChannel, JoinedChannelSaturatesItsOffer) {
  const OptimizerParams p = paper_optimizer(80.0);  // slow: plenty of time
  const double Bw = p.wireless_bps;
  const auto a = optimize_two_channels(p, {0.25 * Bw, 0}, {0, 0.75 * Bw});
  EXPECT_NEAR(a.fractions[0], 0.25, 0.01);
  EXPECT_GT(a.fractions[1], 0.5);  // worth joining at crawl speed
}

TEST(TwoChannel, SecondChannelShrinksWithSpeed) {
  const double Bw = paper_optimizer().wireless_bps;
  double prev_f2 = 1.0;
  for (double speed : {2.5, 5.0, 10.0, 20.0, 40.0}) {
    OptimizerParams p = paper_optimizer(time_in_range_for_speed(speed));
    const auto a = optimize_two_channels(p, {0.75 * Bw, 0}, {0, 0.25 * Bw});
    EXPECT_LE(a.fractions[1], prev_f2 + 1e-9) << "speed=" << speed;
    prev_f2 = a.fractions[1];
  }
}

TEST(TwoChannel, ThrowsOnNonPositiveHorizon) {
  OptimizerParams p = paper_optimizer(0.0);
  EXPECT_THROW(optimize_two_channels(p, {}, {}), std::invalid_argument);
}

TEST(TimeInRange, DiameterOverSpeed) {
  EXPECT_DOUBLE_EQ(time_in_range_for_speed(10.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(time_in_range_for_speed(20.0, 50.0), 5.0);
  EXPECT_THROW(time_in_range_for_speed(0.0), std::invalid_argument);
}

TEST(DividingSpeed, ExistsAndIsFiniteForPaperScenarios) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const double v = dividing_speed(p, {0.75 * Bw, 0}, {0, 0.25 * Bw});
  EXPECT_GT(v, 0.5);
  EXPECT_LT(v, 40.0);
}

TEST(DividingSpeed, LowerWhenJoinedShareIsLarger) {
  // The more bandwidth already secured on channel 1, the earlier (in speed)
  // it stops being worth chasing channel 2.
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const double v75 = dividing_speed(p, {0.75 * Bw, 0}, {0, 0.25 * Bw});
  const double v25 = dividing_speed(p, {0.25 * Bw, 0}, {0, 0.75 * Bw});
  EXPECT_LT(v75, v25);
}

TEST(DividingSpeed, ShrinksWithEffectiveRange) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const double v100 =
      dividing_speed(p, {0.5 * Bw, 0}, {0, 0.5 * Bw}, /*range_m=*/100.0);
  const double v50 =
      dividing_speed(p, {0.5 * Bw, 0}, {0, 0.5 * Bw}, /*range_m=*/50.0);
  EXPECT_LT(v50, v100);
}

// Fig. 4's dividing speeds as EXPERIMENTS.md tabulates them (and
// perfbench/reference.json pins them): 25/50/75 % of Bw joined on channel 1,
// the rest pending on channel 2, at the nominal 100 m and the effective
// 50 m range. The bisection lands on dyadic speeds, so these are exact.
TEST(DividingSpeed, MatchesFig4Table) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  struct Row {
    double joined_share;
    double range_m;
    double speed;
  };
  const Row rows[] = {
      {0.25, 100.0, 28.8409423828125}, {0.25, 50.0, 14.4017333984375},
      {0.50, 100.0, 21.5777587890625}, {0.50, 50.0, 10.7701416015625},
      {0.75, 100.0, 13.9368896484375}, {0.75, 50.0, 6.9642333984375},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(dividing_speed(p, {r.joined_share * Bw, 0},
                             {0, (1.0 - r.joined_share) * Bw}, r.range_m,
                             0.5, 60.0, 0.05, 0.05),
              r.speed)
        << "joined " << r.joined_share << " range " << r.range_m;
  }
}

// Sweeps solve concurrently, so each solve's memo must be its own: the six
// Fig. 4 solves on four threads equal the serial ones bit for bit.
TEST(DividingSpeed, ConcurrentSolvesMatchSerial) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const auto solve = [&](int row) {
    const double joined = 0.25 * (1 + row / 2);
    const double range_m = row % 2 == 0 ? 100.0 : 50.0;
    return dividing_speed(p, {joined * Bw, 0}, {0, (1.0 - joined) * Bw},
                          range_m, 0.5, 60.0, 0.05, 0.05);
  };
  std::vector<double> serial;
  for (int row = 0; row < 6; ++row) serial.push_back(solve(row));
  sim::ThreadPool pool(4);
  std::vector<std::future<double>> concurrent;
  for (int row = 0; row < 6; ++row) {
    concurrent.push_back(pool.submit([&solve, row] { return solve(row); }));
  }
  for (int row = 0; row < 6; ++row) {
    EXPECT_EQ(concurrent[static_cast<std::size_t>(row)].get(),
              serial[static_cast<std::size_t>(row)])
        << "row " << row;
  }
}

TEST(KChannel, SingleChannelUsesWholeBudget) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const auto a = optimize_channels(p, {{Bw, 0}});
  ASSERT_EQ(a.fractions.size(), 1u);
  EXPECT_NEAR(a.fractions[0], 1.0 - p.join.switch_delay / p.join.period, 0.01);
}

TEST(KChannel, TwoChannelPathMatchesDedicatedSolver) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const auto a = optimize_channels(p, {{0.25 * Bw, 0}, {0, 0.75 * Bw}});
  const auto b = optimize_two_channels(p, {0.25 * Bw, 0}, {0, 0.75 * Bw});
  EXPECT_NEAR(a.total_bps, b.total_bps, 1e-6);
}

TEST(KChannel, ThreeChannelsAreRejected) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  EXPECT_THROW(optimize_channels(
                   p, {{0.3 * Bw, 0}, {0, 0.4 * Bw}, {0, 0.4 * Bw}}),
               std::invalid_argument);
}

TEST(KChannel, EmptyOffersYieldEmptyAllocation) {
  const auto a = optimize_channels(paper_optimizer(), {});
  EXPECT_TRUE(a.fractions.empty());
  EXPECT_DOUBLE_EQ(a.total_bps, 0.0);
}

TEST(Allocation, ExtractedMatchesFractions) {
  const OptimizerParams p = paper_optimizer();
  const double Bw = p.wireless_bps;
  const auto a = optimize_two_channels(p, {0.5 * Bw, 0}, {0, 0.5 * Bw});
  ASSERT_EQ(a.extracted_bps.size(), 2u);
  EXPECT_DOUBLE_EQ(a.extracted_bps[0], a.fractions[0] * Bw);
  EXPECT_DOUBLE_EQ(a.extracted_bps[1], a.fractions[1] * Bw);
  EXPECT_DOUBLE_EQ(a.total_bps, a.extracted_bps[0] + a.extracted_bps[1]);
}

}  // namespace
}  // namespace spider::model
