#include "model/throughput_opt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spider::model {

double channel_cap_fraction(const OptimizerParams& params,
                            const ChannelOffer& offer, double fraction) {
  double cap = offer.joined_bps;
  if (offer.available_bps > 0.0) {
    const double g =
        expected_join_time(params.join, fraction, params.time_in_range);
    cap += (1.0 - g / params.time_in_range) * offer.available_bps;
  }
  return std::clamp(cap / params.wireless_bps, 0.0, 1.0);
}

namespace {

// A feasible f <= budget, i.e. f <= cap(f): the budget itself if it is
// feasible, else a crossing of f = cap(f) found by bisecting [0, budget]
// (0 is always feasible). The crossing need not be unique: cap jumps up
// wherever requests_per_round steps and grows more slowly than f in between,
// so f - cap(f) can change sign several times below the budget
// (ChannelCap.FeasibleSetIsNotAnInterval). Which crossing the bisection
// lands on depends on the budget, and it need not be the largest feasible f;
// Fig. 4's dividing speeds are pinned with this rule.
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
  // ceil(f_i) * w / D from Eq. 10.
  return fraction > 0.0 ? params.join.switch_delay / params.join.period : 0.0;
}

Allocation finish(const OptimizerParams& params, std::vector<double> fractions) {
  Allocation a;
  a.extracted_bps.reserve(fractions.size());
  for (double f : fractions) {
    a.extracted_bps.push_back(f * params.wireless_bps);
    a.total_bps += f * params.wireless_bps;
  }
  a.fractions = std::move(fractions);
  return a;
}

}  // namespace

Allocation optimize_two_channels(const OptimizerParams& params,
                                 ChannelOffer ch1, ChannelOffer ch2) {
  if (params.time_in_range <= 0.0)
    throw std::invalid_argument("optimize_two_channels: T <= 0");

  double best_obj = -1.0;
  double best_f1 = 0.0, best_f2 = 0.0;

  const int steps = static_cast<int>(std::round(1.0 / params.grid_step));
  for (int i = 0; i <= steps; ++i) {
    const double f2_try = static_cast<double>(i) / steps;
    // Budget left for channel 2 itself, then clip by its own cap.
    const double f2 = std::min(
        f2_try, max_feasible_fraction(params, ch2, f2_try));
    const double budget1 =
        1.0 - f2 - switch_tax(params, f2) - switch_tax(params, 1.0);
    // (channel 1 is always used in this scenario; if its optimum were zero
    // the fixed tax term vanishes from both candidates equally.)
    const double f1 = max_feasible_fraction(params, ch1, budget1);
    const double obj = f1 + f2;
    if (obj > best_obj) {
      best_obj = obj;
      best_f1 = f1;
      best_f2 = f2;
    }
  }
  return finish(params, {best_f1, best_f2});
}

Allocation optimize_channels(const OptimizerParams& params,
                             const std::vector<ChannelOffer>& offers) {
  if (offers.empty()) return Allocation{};
  if (offers.size() == 1) {
    const double tax = params.join.switch_delay / params.join.period;
    return finish(params, {max_feasible_fraction(params, offers[0], 1.0 - tax)});
  }
  if (offers.size() == 2) {
    return optimize_two_channels(params, offers[0], offers[1]);
  }

  // Coordinate ascent with a handful of deterministic starts.
  const std::size_t k = offers.size();
  std::vector<double> best(k, 0.0);
  double best_obj = -1.0;
  for (std::size_t start = 0; start <= k; ++start) {
    std::vector<double> f(k, 0.0);
    if (start < k) {
      f[start] = 0.5;  // seed biased toward one channel
    } else {
      std::fill(f.begin(), f.end(), 1.0 / static_cast<double>(k));
    }
    for (int sweep = 0; sweep < 8; ++sweep) {
      for (std::size_t i = 0; i < k; ++i) {
        double used = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          if (j == i) continue;
          used += f[j] + switch_tax(params, f[j]);
        }
        const double budget = 1.0 - used - switch_tax(params, 1.0);
        f[i] = max_feasible_fraction(params, offers[i], budget);
      }
    }
    double obj = 0.0;
    for (double v : f) obj += v;
    if (obj > best_obj) {
      best_obj = obj;
      best = f;
    }
  }
  return finish(params, best);
}

double time_in_range_for_speed(double speed_mps, double range_m) {
  if (speed_mps <= 0.0)
    throw std::invalid_argument("time_in_range_for_speed: speed <= 0");
  return 2.0 * range_m / speed_mps;
}

double dividing_speed(OptimizerParams params, ChannelOffer ch1,
                      ChannelOffer ch2, double range_m, double lo, double hi,
                      double tol, double epsilon) {
  const auto f2_at = [&](double speed) {
    params.time_in_range = time_in_range_for_speed(speed, range_m);
    return optimize_two_channels(params, ch1, ch2).fractions[1];
  };
  if (f2_at(lo) < epsilon) return lo;
  if (f2_at(hi) >= epsilon) return hi;
  while (hi - lo > tol) {
    const double mid = (lo + hi) / 2.0;
    if (f2_at(mid) < epsilon) hi = mid; else lo = mid;
  }
  return (lo + hi) / 2.0;
}

}  // namespace spider::model
