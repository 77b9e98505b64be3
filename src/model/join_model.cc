#include "model/join_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spider::model {

int requests_per_round(const JoinModelParams& params, double fraction) {
  // ceil((D*f_i - w) / c), per Eq. 6. The ceiling is what produces the
  // discontinuities Fig. 2 shows at f_i = 0.2, 0.4, 0.6, 0.8 (with the
  // paper's D = 500 ms and c = 100 ms).
  const double window = params.period * fraction - params.switch_delay;
  if (window <= 0.0) return 0;
  return static_cast<int>(std::ceil(window / params.request_interval));
}

namespace {

// Eq. 5's two windows for a request sent in segment k, measured from the
// start of its round: the response lands in [alpha_min, alpha_max], and
// round_delta rounds later the node listens over [delta_min, delta_max].
struct Window {
  double lo;
  double hi;
};

inline Window response_window(const JoinModelParams& params, int segment) {
  return {segment * params.request_interval + params.beta_min,
          segment * params.request_interval + params.beta_max};
}

inline Window listen_window(const JoinModelParams& params, double fraction,
                            int round_delta) {
  return {round_delta * params.period + params.request_interval -
              params.switch_delay,
          (round_delta + fraction) * params.period + params.request_interval -
              params.switch_delay};
}

// Eq. 5: the share of the uniform response window that falls inside the
// listening window.
inline double landing_probability(Window response, Window listen) {
  if (listen.lo > response.hi) return 0.0;
  if (listen.hi < response.lo) return 0.0;
  if (response.hi == response.lo) {
    // Degenerate (beta_max == beta_min): point mass either in or out.
    return (response.lo >= listen.lo && response.lo <= listen.hi) ? 1.0 : 0.0;
  }
  const double overlap = std::min(response.hi, listen.hi) -
                         std::max(response.lo, listen.lo);
  return std::clamp(overlap / (response.hi - response.lo), 0.0, 1.0);
}

// R = floor(t / D), the whole rounds of a stay of t seconds (0 if t <= 0).
// A stay with more rounds than an int holds, or a NaN one, has no round
// count to walk, so it is rejected rather than cast.
int whole_rounds(const JoinModelParams& params, double time_in_range) {
  if (time_in_range <= 0.0) return 0;
  const double rounds = std::floor(time_in_range / params.period);
  if (!(rounds <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument("time_in_range has too many rounds");
  }
  return static_cast<int>(rounds);
}

}  // namespace

double q_single(const JoinModelParams& params, double fraction,
                int round_delta, int segment) {
  if (!params.valid()) throw std::invalid_argument("JoinModelParams invalid");
  if (round_delta < 0 || segment < 1) return 0.0;
  return landing_probability(response_window(params, segment),
                             listen_window(params, fraction, round_delta));
}

double q_round_failure(const JoinModelParams& params, double fraction,
                       int round_delta) {
  const int k_max = requests_per_round(params, fraction);
  const double both_survive = (1.0 - params.loss) * (1.0 - params.loss);
  double failure = 1.0;
  for (int k = 1; k <= k_max; ++k) {
    failure *= 1.0 - q_single(params, fraction, round_delta, k) * both_survive;
  }
  return failure;
}

double join_probability(const JoinModelParams& params, double fraction,
                        double time_in_range, double* unjoined_rounds) {
  if (!params.valid()) throw std::invalid_argument("JoinModelParams invalid");
  const int rounds = whole_rounds(params, time_in_range);
  // Without a request nothing joins: every whole round is spent unjoined.
  if (unjoined_rounds != nullptr) *unjoined_rounds = rounds;
  if (fraction <= 0.0 || rounds < 1) return 0.0;
  fraction = std::min(fraction, 1.0);
  const int k_max = requests_per_round(params, fraction);
  if (k_max <= 0) return 0.0;
  const double both_survive = (1.0 - params.loss) * (1.0 - params.loss);
  // The latest any response of a round can land. Windows only move later
  // with the round, so once round delta's listening window opens after it,
  // Eq. 5 is 0 for every k from then on and qf(delta) is exactly 1.
  const double last_landing = response_window(params, k_max).hi;

  // Eq. 7's double product. q_round_failure depends only on n - m, so
  //   F(j) = prod_{delta<j} qf(delta)^(j - delta)
  // and F(j+1) = F(j) * G(j) with G(j) = prod_{delta<=j} qf(delta): one
  // running product walks every F(j), and their prefix sum comes free.
  double unjoined = 0.0;     // sum of F(j) over the rounds walked so far
  double failure = 1.0;      // F(j): no join within the first j rounds
  double window_miss = 1.0;  // G(j): no response lands in round j's window
  const auto finish = [&](double no_join) {
    if (unjoined_rounds != nullptr) *unjoined_rounds = unjoined;
    return 1.0 - no_join;
  };
  int j = 0;
  for (; j < rounds; ++j) {
    const Window listen = listen_window(params, fraction, j);
    if (listen.lo > last_landing) break;
    double round_failure = 1.0;  // Eq. 6, qf(j)
    for (int k = 1; k <= k_max; ++k) {
      const Window response = response_window(params, k);
      // Later requests answer later still: none of them lands in this window.
      if (listen.hi < response.lo) break;
      round_failure *=
          1.0 - landing_probability(response, listen) * both_survive;
    }
    unjoined += failure;
    window_miss *= round_failure;
    failure *= window_miss;
    if (failure < 1e-15) return finish(0.0);
  }
  // The rest of the rounds multiply by G alone.
  for (; j < rounds; ++j) {
    unjoined += failure;
    failure *= window_miss;
    if (failure < 1e-15) return finish(0.0);
  }
  return finish(failure);
}

double expected_join_time(const JoinModelParams& params, double fraction,
                          double time_in_range) {
  if (time_in_range <= 0.0) return 0.0;
  // E[min(T_join, T)] = integral over [0,T] of P(not yet joined at t) dt,
  // evaluated at round granularity (the model's native resolution): D per
  // whole round still unjoined, plus the partial tail beyond the last one.
  double unjoined = 0.0;
  const double p =
      join_probability(params, fraction, time_in_range, &unjoined);
  const double tail =
      time_in_range - whole_rounds(params, time_in_range) * params.period;
  return std::min(params.period * unjoined + tail * (1.0 - p), time_in_range);
}

}  // namespace spider::model
