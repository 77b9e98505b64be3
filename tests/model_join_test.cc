#include "model/join_model.h"
#include "model/join_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace spider::model {
namespace {

JoinModelParams paper_params(double beta_max = 10.0) {
  JoinModelParams p;  // D=0.5, w=0.007, c=0.1, beta_min=0.5, h=0.1
  p.beta_max = beta_max;
  return p;
}

TEST(RequestsPerRound, CeilingOfWindowOverInterval) {
  const JoinModelParams p = paper_params();
  // (0.5*0.5 - 0.007) / 0.1 = 2.43 -> 3 requests.
  EXPECT_EQ(requests_per_round(p, 0.5), 3);
  // (0.5*1.0 - 0.007) / 0.1 = 4.93 -> 5.
  EXPECT_EQ(requests_per_round(p, 1.0), 5);
  // Tiny fraction still gets one request (the paper's ceiling).
  EXPECT_EQ(requests_per_round(p, 0.1), 1);
  EXPECT_EQ(requests_per_round(p, 0.0), 0);
}

TEST(QSingle, IsAProbability) {
  const JoinModelParams p = paper_params();
  for (int delta = 0; delta < 10; ++delta) {
    for (int k = 1; k <= 5; ++k) {
      const double q = q_single(p, 0.4, delta, k);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(QSingle, ZeroOutsideReachableRounds) {
  const JoinModelParams p = paper_params(2.0);
  // beta_max = 2 s: responses arrive within ~2.1 s => delta <= 4 rounds
  // (D = 0.5 s). Far-future rounds have zero probability.
  EXPECT_EQ(q_single(p, 0.5, 40, 1), 0.0);
}

TEST(QSingle, InvalidInputs) {
  const JoinModelParams p = paper_params();
  EXPECT_EQ(q_single(p, 0.5, -1, 1), 0.0);
  EXPECT_EQ(q_single(p, 0.5, 0, 0), 0.0);
  JoinModelParams bad = p;
  bad.loss = 1.5;
  EXPECT_THROW(q_single(bad, 0.5, 0, 1), std::invalid_argument);
}

TEST(QSingle, DegenerateUniformHandled) {
  JoinModelParams p = paper_params();
  p.beta_min = p.beta_max = 1.0;  // point mass at 1 s
  // The response lands exactly 1 s after the request. For f=1.0 the window
  // covers the whole timeline, so some (delta,k) must have q=1.
  double max_q = 0.0;
  for (int delta = 0; delta < 5; ++delta) {
    for (int k = 1; k <= requests_per_round(p, 1.0); ++k) {
      max_q = std::max(max_q, q_single(p, 1.0, delta, k));
    }
  }
  EXPECT_DOUBLE_EQ(max_q, 1.0);
}

TEST(QRoundFailure, OneWithoutRequests) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(q_round_failure(p, 0.0, 0), 1.0);
}

TEST(QRoundFailure, LossIncreasesFailure) {
  JoinModelParams lossless = paper_params();
  lossless.loss = 0.0;
  JoinModelParams lossy = paper_params();
  lossy.loss = 0.5;
  EXPECT_LT(q_round_failure(lossless, 0.5, 1),
            q_round_failure(lossy, 0.5, 1));
}

TEST(JoinProbability, BoundaryCases) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(join_probability(p, 0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(join_probability(p, 0.5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(join_probability(p, 0.5, 0.3), 0.0);  // < one round
  EXPECT_GT(join_probability(p, 1.0, 60.0), 0.999);
}

TEST(JoinProbability, MatchesPaperQuotedValues) {
  // "the probability of getting a lease during the first t = 4 seconds
  //  falls from 75% to 20% when the percentage of time devoted to the AP
  //  reduces from 30% to 10%" (Section 2.1.2, beta_max = 5 s).
  const JoinModelParams p = paper_params(5.0);
  EXPECT_NEAR(join_probability(p, 0.30, 4.0), 0.75, 0.05);
  EXPECT_NEAR(join_probability(p, 0.10, 4.0), 0.20, 0.05);
}

TEST(JoinProbability, ShorterBetaMaxHelps) {
  EXPECT_GT(join_probability(paper_params(5.0), 0.4, 4.0),
            join_probability(paper_params(10.0), 0.4, 4.0));
}

TEST(JoinProbability, MoreTimeInRangeHelps) {
  const JoinModelParams p = paper_params();
  EXPECT_LT(join_probability(p, 0.4, 2.0), join_probability(p, 0.4, 8.0));
}

// Property sweep: p(f, t) must be a probability and (weakly) monotone in f
// across the whole parameter grid.
class JoinProbabilitySweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(JoinProbabilitySweep, InUnitIntervalAndMonotoneInFraction) {
  const auto [beta_max, loss, t] = GetParam();
  JoinModelParams p = paper_params(beta_max);
  p.loss = loss;
  double prev = 0.0;
  for (double f = 0.0; f <= 1.0001; f += 0.05) {
    const double prob = join_probability(p, f, t);
    EXPECT_GE(prob, 0.0);
    EXPECT_LE(prob, 1.0);
    EXPECT_GE(prob, prev - 1e-9) << "f=" << f;
    prev = prob;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JoinProbabilitySweep,
    ::testing::Combine(::testing::Values(2.0, 5.0, 10.0),
                       ::testing::Values(0.0, 0.1, 0.3),
                       ::testing::Values(2.0, 4.0, 10.0)));

// Property sweep: the closed form must agree with Monte-Carlo within the
// sampling error bars (the paper's Fig. 2 corroboration).
class ModelVsMonteCarlo
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ModelVsMonteCarlo, StatisticallyEquivalent) {
  const auto [fraction, beta_max] = GetParam();
  const JoinModelParams p = paper_params(beta_max);
  const double model = join_probability(p, fraction, 4.0);
  const auto mc =
      monte_carlo_join_probability(p, fraction, 4.0, sim::Rng(77), 50, 200);
  // Allow 4 standard errors plus a small model-independence slack.
  const double tolerance = 4.0 * mc.stddev / std::sqrt(50.0) + 0.04;
  EXPECT_NEAR(model, mc.mean, tolerance)
      << "f=" << fraction << " beta_max=" << beta_max;
}

INSTANTIATE_TEST_SUITE_P(
    Fig2Grid, ModelVsMonteCarlo,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(5.0, 10.0)));

TEST(ExpectedJoinTime, BoundedByHorizon) {
  const JoinModelParams p = paper_params();
  for (double f : {0.1, 0.5, 1.0}) {
    const double g = expected_join_time(p, f, 20.0);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 20.0);
  }
}

TEST(ExpectedJoinTime, HopelessChannelConsumesWholeHorizon) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(expected_join_time(p, 0.0, 10.0), 10.0);
}

TEST(ExpectedJoinTime, MonotoneDecreasingInFraction) {
  const JoinModelParams p = paper_params();
  double prev = 1e18;
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double g = expected_join_time(p, f, 20.0);
    EXPECT_LE(g, prev + 1e-9);
    prev = g;
  }
}

TEST(ExpectedJoinTime, RejectsInvalidParams) {
  JoinModelParams lossy = paper_params();
  lossy.loss = 1.0;
  JoinModelParams no_period = paper_params();
  no_period.period = 0.0;
  JoinModelParams inverted = paper_params();
  inverted.beta_max = inverted.beta_min - 0.1;
  for (const JoinModelParams& bad : {lossy, no_period, inverted}) {
    EXPECT_THROW(join_probability(bad, 0.5, 4.0), std::invalid_argument);
    EXPECT_THROW(expected_join_time(bad, 0.5, 4.0), std::invalid_argument);
    EXPECT_THROW(expected_join_time(bad, 0.5, 0.3), std::invalid_argument);
  }
}

TEST(ExpectedJoinTime, RejectsHorizonWithoutARoundCount) {
  const JoinModelParams p = paper_params();
  // 2e12 rounds of D = 0.5 s do not fit an int; NaN has no count at all.
  for (double t : {1e12, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(join_probability(p, 0.5, t), std::invalid_argument) << t;
    EXPECT_THROW(expected_join_time(p, 0.5, t), std::invalid_argument) << t;
  }
  EXPECT_EQ(join_probability(p, 0.5, 1e9), 1.0);
}

TEST(ExpectedJoinTime, ShorterThanOnePeriodIsAllWaiting) {
  const JoinModelParams p = paper_params();
  for (double t : {0.1, 0.3, 0.49}) {
    EXPECT_DOUBLE_EQ(expected_join_time(p, 0.5, t), t) << "t=" << t;
  }
}

TEST(ExpectedJoinTime, FractionAboveOneActsAsOne) {
  const JoinModelParams p = paper_params();
  for (double t : {4.0, 20.0, 57.1}) {
    EXPECT_EQ(join_probability(p, 1.1, t), join_probability(p, 1.0, t));
    EXPECT_EQ(expected_join_time(p, 1.1, t), expected_join_time(p, 1.0, t));
  }
}

// The pow form of Eq. 7 and g_T as they stood before the one-pass kernel:
// p(t) rebuilds prod_{delta<R} qf(delta)^(R - delta) from scratch and g_T
// calls it once per round. Kept here only as the oracle. Eq. 6 is tabulated
// once per (f, horizon), so the oracle's O(R^2) walk reads qf(delta) rather
// than re-evaluating Eq. 5 k times per term; the arithmetic is unchanged.
class PowForm {
 public:
  PowForm(const JoinModelParams& params, double fraction, double horizon)
      : period_(params.period), fraction_(std::min(fraction, 1.0)) {
    for (int delta = 0; delta < rounds_in(horizon); ++delta) {
      qf_.push_back(q_round_failure(params, fraction_, delta));
    }
  }

  double join_probability(double time_in_range) const {
    if (fraction_ <= 0.0 || time_in_range <= 0.0) return 0.0;
    const int rounds = rounds_in(time_in_range);
    if (rounds < 1) return 0.0;
    double total_failure = 1.0;
    for (int delta = 0; delta < rounds; ++delta) {
      const double qf = qf_.at(static_cast<std::size_t>(delta));
      if (qf >= 1.0) continue;
      total_failure *= std::pow(qf, rounds - delta);
      if (total_failure < 1e-15) return 1.0;
    }
    return 1.0 - total_failure;
  }

  double expected_join_time(double time_in_range) const {
    if (time_in_range <= 0.0) return 0.0;
    const int rounds = rounds_in(time_in_range);
    double expected = 0.0;
    for (int j = 0; j < rounds; ++j) {
      expected += period_ * (1.0 - join_probability(j * period_));
    }
    expected += (time_in_range - rounds * period_) *
                (1.0 - join_probability(rounds * period_));
    return std::min(expected, time_in_range);
  }

  // sum_{j<R} (1 - p(j*D)): what `unjoined_rounds` must hold.
  double unjoined_rounds(double time_in_range) const {
    double unjoined = 0.0;
    for (int j = 0; j < rounds_in(time_in_range); ++j) {
      unjoined += 1.0 - join_probability(j * period_);
    }
    return unjoined;
  }

 private:
  int rounds_in(double t) const {
    return static_cast<int>(std::floor(t / period_));
  }

  double period_;
  double fraction_;
  std::vector<double> qf_;  // Eq. 6 for delta = 0 .. R-1
};

// The one-pass kernel against the pow form over the Fig. 2 fractions (and
// past 1), five beta_max, four loss rates and horizons from none to 400 s.
// p is compared absolutely: near p = 0, 1 - F loses digits to cancellation.
class OnePassVsPowForm
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(OnePassVsPowForm, AgreesToRoundoff) {
  const auto [beta_max, loss] = GetParam();
  JoinModelParams p = paper_params(beta_max);
  p.loss = loss;
  for (double t : {0.0, 0.3, 0.5, 1.0, 4.0, 7.3, 20.0, 57.1, 400.0}) {
    for (int i = 0; i <= 220; ++i) {
      const double f = i * 0.005;
      double unjoined = -1.0;
      const double prob = join_probability(p, f, t, &unjoined);
      const PowForm oracle(p, f, t);
      EXPECT_NEAR(prob, oracle.join_probability(t), 1e-12)
          << "f=" << f << " t=" << t;
      const double want_unjoined = oracle.unjoined_rounds(t);
      EXPECT_NEAR(unjoined, want_unjoined, 1e-12 * std::max(1.0, want_unjoined))
          << "f=" << f << " t=" << t;
      const double want_g = oracle.expected_join_time(t);
      EXPECT_NEAR(expected_join_time(p, f, t), want_g, 1e-12 * want_g)
          << "f=" << f << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig2Grid, OnePassVsPowForm,
    ::testing::Combine(::testing::Values(0.5, 2.0, 5.0, 10.0, 20.0),
                       ::testing::Values(0.0, 0.1, 0.5, 0.9)));

// The per-round loop the kernel replaced: Eq. 6 evaluated through
// q_round_failure in every whole round, multiplied into the same running
// products in the same order. Kept here only as the kernel's oracle: the
// kernel skips Eq. 5 where no response can land and walks the rounds after
// that on G alone, and neither may move a bit of p, the unjoined sum or g_T.
struct RoundByRound {
  double p = 0.0;
  double unjoined = 0.0;
  double g = 0.0;
};

RoundByRound round_by_round(const JoinModelParams& params, double fraction,
                            double t) {
  RoundByRound out;
  if (t <= 0.0) return out;
  const int rounds = static_cast<int>(std::floor(t / params.period));
  out.unjoined = rounds;
  if (fraction > 0.0 && rounds >= 1) {
    fraction = std::min(fraction, 1.0);
    double unjoined = 0.0;
    double failure = 1.0;
    double window_miss = 1.0;
    for (int j = 0; j < rounds; ++j) {
      unjoined += failure;
      window_miss *= q_round_failure(params, fraction, j);
      failure *= window_miss;
      if (failure < 1e-15) {
        failure = 0.0;
        break;
      }
    }
    out.unjoined = unjoined;
    out.p = 1.0 - failure;
  }
  out.g = std::min(params.period * out.unjoined +
                       (t - rounds * params.period) * (1.0 - out.p),
                   t);
  return out;
}

// Each row varies one or two of the paper's inputs. Among them: a point-mass
// response that falls between listening windows (G stays exactly 1 until
// the windows close, then many rounds remain), a response window that closes
// within a few rounds, heavy loss that keeps F above the cut-off to the
// last open round, and short periods with many requests per round.
TEST(RoundByRoundOracle, KernelIsBitIdentical) {
  struct Row {
    double period, switch_delay, request_interval, beta_min, beta_max, loss;
  };
  const Row rows[] = {
      {0.5, 0.007, 0.1, 0.5, 10.0, 0.1},   // Fig. 4
      {0.5, 0.007, 0.1, 0.5, 5.0, 0.1},    // Fig. 2, beta_max = 5 s
      {0.5, 0.007, 0.1, 0.5, 2.0, 0.0},
      {0.5, 0.007, 0.1, 0.5, 10.0, 0.9},
      {0.5, 0.007, 0.1, 1.25, 1.25, 0.1},  // point mass between windows
      {0.5, 0.0, 0.1, 1.0, 1.0, 0.1},      // point mass on window edges
      {0.5, 0.007, 0.1, 0.2, 0.3, 0.1},    // lands only in early windows
      {0.5, 0.0, 0.1, 0.0, 0.5, 0.5},
      {0.3, 0.02, 0.033, 0.5, 10.0, 0.1},  // up to 9 requests per round
      {0.3, 0.05, 0.05, 2.0, 5.0, 0.3},
      {1.0, 0.007, 0.2, 0.5, 20.0, 0.1},
      {0.25, 0.1, 0.1, 0.1, 0.6, 0.0},     // switch eats f < 0.4
  };
  const double horizons[] = {0.0,  0.3,  0.5,   1.0,   4.0,  7.3,
                             10.0, 20.0, 57.1,  133.3, 400.0};
  for (const Row& r : rows) {
    const JoinModelParams p{r.period,   r.switch_delay, r.request_interval,
                            r.beta_min, r.beta_max,     r.loss};
    for (double t : horizons) {
      for (int i = 0; i <= 220; ++i) {
        const double f = i * 0.005;
        const RoundByRound want = round_by_round(p, f, t);
        double unjoined = -1.0;
        const double prob = join_probability(p, f, t, &unjoined);
        const double g = expected_join_time(p, f, t);
        if (prob != want.p || unjoined != want.unjoined || g != want.g) {
          ADD_FAILURE() << std::setprecision(17) << "D=" << r.period
                        << " w=" << r.switch_delay << " c=" << r.request_interval << " beta=["
                        << r.beta_min << "," << r.beta_max << "] h=" << r.loss
                        << " f=" << f << " t=" << t << ": p " << prob << " vs "
                        << want.p << ", unjoined " << unjoined << " vs "
                        << want.unjoined << ", g " << g << " vs " << want.g;
          return;
        }
      }
    }
  }
}

TEST(MonteCarlo, TrialIsDeterministicForSeed) {
  const JoinModelParams p = paper_params();
  sim::Rng a(5), b(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(simulate_join_trial(p, 0.4, 4.0, a),
              simulate_join_trial(p, 0.4, 4.0, b));
  }
}

TEST(MonteCarlo, ErrorBarsShrinkWithMoreRuns) {
  const JoinModelParams p = paper_params();
  const auto few = monte_carlo_join_probability(p, 0.4, 4.0, sim::Rng(5),
                                                20, 20);
  const auto many = monte_carlo_join_probability(p, 0.4, 4.0, sim::Rng(5),
                                                 20, 500);
  EXPECT_LT(many.stddev, few.stddev);
}

}  // namespace
}  // namespace spider::model
