#include "model/throughput_opt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace spider::model {
namespace {

bool pending(const ChannelOffer& offer) { return offer.available_bps > 0.0; }

// Right-hand side of Eq. 9 given the join-time curve: `join_time(f)` is
// g_T(f), asked for only when the offer has bandwidth pending.
template <typename JoinTime>
inline double cap_fraction(const OptimizerParams& params,
                           const ChannelOffer& offer, double fraction,
                           JoinTime&& join_time) {
  double cap = offer.joined_bps;
  if (pending(offer)) {
    const double g = join_time(fraction);
    cap += (1.0 - g / params.time_in_range) * offer.available_bps;
  }
  return std::clamp(cap / params.wireless_bps, 0.0, 1.0);
}

}  // namespace

double channel_cap_fraction(const OptimizerParams& params,
                            const ChannelOffer& offer, double fraction) {
  return cap_fraction(params, offer, fraction, [&](double f) {
    return expected_join_time(params.join, f, params.time_in_range);
  });
}

namespace {

// Probes of Eq. 9 in one max_feasible_fraction call: the budget, then one
// per bisection step.
constexpr int kBisectionSteps = 40;
constexpr std::size_t kProbesPerBudget = kBisectionSteps + 1;
// Coordinate-ascent sweeps per start in optimize_channels.
constexpr int kSweeps = 8;

// g_T(f) for one optimizer call, evaluated at most once per distinct f.
// The grid's budgets i/steps and 2i/steps bisect through the same midpoints,
// so about half of a Fig. 4 solve's probes repeat an f. The table is keyed
// on f's bit pattern at the call's one T and stores what expected_join_time
// returned, so a hit is the value recomputing it would give: no answer
// moves. It holds g only, so offers share it; cap(f) is still computed from
// g per offer. Each call owns its memo (solves run concurrently in sweeps),
// and the table is allocated once, sized from the probes the call can make.
// Once it is 3/4 full, new fractions are evaluated without being stored.
class JoinTimeMemo {
 public:
  JoinTimeMemo(const OptimizerParams& params, std::size_t probes)
      : params_(params),
        slots_(std::bit_ceil(std::clamp<std::size_t>(probes, 2, kMaxSlots))),
        shift_(64 - std::countr_zero(slots_.size())),
        room_(slots_.size() / 4 * 3) {}

  const OptimizerParams& params() const { return params_; }

  double operator()(double fraction) {
    const auto key = std::bit_cast<std::uint64_t>(fraction);
    if (key == kEmpty) return evaluate(fraction);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * kFibonacci) >> shift_;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return slot.g;
      if (slot.key != kEmpty) continue;
      const double g = evaluate(fraction);
      if (room_ > 0) {
        --room_;
        slot = Slot{key, g};
      }
      return g;
    }
  }

 private:
  // A NaN no arithmetic produces. Only parameters carrying it can make a
  // fraction with these bits, and Eq. 7 rejects them, so such a fraction is
  // evaluated, never looked up.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 16;

  struct Slot {
    std::uint64_t key = kEmpty;
    double g = 0.0;
  };

  double evaluate(double fraction) const {
    return expected_join_time(params_.join, fraction, params_.time_in_range);
  }

  const OptimizerParams& params_;
  std::vector<Slot> slots_;
  int shift_;
  std::size_t room_;
};

// Probes of Eq. 7 that `budgets` max_feasible_fraction calls on each of
// `offers` pending offers can make (an offer with nothing pending makes
// none).
std::size_t probe_bound(std::size_t offers, std::size_t budgets) {
  return offers * budgets * kProbesPerBudget;
}

// A feasible f <= budget, i.e. f <= cap(f): the budget itself if it is
// feasible, else a crossing of f = cap(f) found by bisecting [0, budget]
// (0 is always feasible). The crossing need not be unique: cap jumps up
// wherever requests_per_round steps and grows more slowly than f in between,
// so f - cap(f) can change sign several times below the budget
// (ChannelCap.FeasibleSetIsNotAnInterval). Which crossing the bisection
// lands on depends on the budget, and it need not be the largest feasible f;
// Fig. 4's dividing speeds are pinned with this rule.
double max_feasible_fraction(JoinTimeMemo& join_time, const ChannelOffer& offer,
                             double budget) {
  const auto cap = [&](double f) {
    return cap_fraction(join_time.params(), offer, f, join_time);
  };
  budget = std::clamp(budget, 0.0, 1.0);
  if (budget <= 0.0) return 0.0;
  if (budget <= cap(budget)) return budget;
  double lo = 0.0, hi = budget;
  for (int i = 0; i < kBisectionSteps; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (mid <= cap(mid)) lo = mid; else hi = mid;
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
  JoinTimeMemo join_time(
      params, probe_bound(pending(ch1) + pending(ch2),
                          static_cast<std::size_t>(std::max(steps, 0)) + 1));
  for (int i = 0; i <= steps; ++i) {
    const double f2_try = static_cast<double>(i) / steps;
    // Budget left for channel 2 itself, then clip by its own cap.
    const double f2 = std::min(
        f2_try, max_feasible_fraction(join_time, ch2, f2_try));
    const double budget1 =
        1.0 - f2 - switch_tax(params, f2) - switch_tax(params, 1.0);
    // (channel 1 is always used in this scenario; if its optimum were zero
    // the fixed tax term vanishes from both candidates equally.)
    const double f1 = max_feasible_fraction(join_time, ch1, budget1);
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
    JoinTimeMemo join_time(params, probe_bound(pending(offers[0]), 1));
    return finish(params,
                  {max_feasible_fraction(join_time, offers[0], 1.0 - tax)});
  }
  if (offers.size() == 2) {
    return optimize_two_channels(params, offers[0], offers[1]);
  }

  // Coordinate ascent with a handful of deterministic starts.
  const std::size_t k = offers.size();
  JoinTimeMemo join_time(
      params, probe_bound(static_cast<std::size_t>(std::count_if(
                              offers.begin(), offers.end(), pending)),
                          (k + 1) * kSweeps));
  std::vector<double> best(k, 0.0);
  double best_obj = -1.0;
  for (std::size_t start = 0; start <= k; ++start) {
    std::vector<double> f(k, 0.0);
    if (start < k) {
      f[start] = 0.5;  // seed biased toward one channel
    } else {
      std::fill(f.begin(), f.end(), 1.0 / static_cast<double>(k));
    }
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t i = 0; i < k; ++i) {
        double used = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          if (j == i) continue;
          used += f[j] + switch_tax(params, f[j]);
        }
        const double budget = 1.0 - used - switch_tax(params, 1.0);
        f[i] = max_feasible_fraction(join_time, offers[i], budget);
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
