// Throughput-maximization framework (Section 2.1.3, Eqs. 8-10).
//
//   max_f  T * sum_i f_i * Bw
//   s.t.   0 <= f_i <= (Bj_i + (1 - g_T(f_i)/T) * Ba_i) / Bw     (Eq. 9)
//          sum_i (f_i * D + ceil(f_i) * w) <= D                  (Eq. 10)
//
// Bj_i: end-to-end bandwidth already joined on channel i; Ba_i: bandwidth
// available from APs the node would still have to join (discounted by the
// expected join time g_T). The key output is the *dividing speed*: the node
// speed above which the optimum puts zero time on the second channel.
#pragma once

#include <vector>

#include "model/join_model.h"

namespace spider::model {

struct ChannelOffer {
  double joined_bps = 0.0;     // Bj_i: already-joined end-to-end bandwidth
  double available_bps = 0.0;  // Ba_i: bandwidth pending a successful join
};

struct OptimizerParams {
  JoinModelParams join;      // supplies D, w, and the join-time curve g_T
  double wireless_bps = 11e6;  // Bw
  double time_in_range = 20.0;  // T (s)
  double grid_step = 0.005;   // search resolution on each f_i
};

struct Allocation {
  std::vector<double> fractions;      // f_i
  std::vector<double> extracted_bps;  // f_i * Bw per channel
  double total_bps = 0.0;             // sum of extracted
  bool feasible = true;
};

// Right-hand side of Eq. 9 for one channel.
double channel_cap_fraction(const OptimizerParams& params,
                            const ChannelOffer& offer, double fraction);

// Exhaustive grid solve for the two-channel case the paper evaluates
// (channel 1 joined, channel 2 pending). Exact to grid_step.
Allocation optimize_two_channels(const OptimizerParams& params,
                                 ChannelOffer ch1, ChannelOffer ch2);

// Solve for k <= 2 channels: none, one (a feasible fraction of what the
// switch tax leaves), or two (optimize_two_channels). The paper solves
// Eqs. 8-10 for at most two channels; throws std::invalid_argument for
// k >= 3.
Allocation optimize_channels(const OptimizerParams& params,
                             const std::vector<ChannelOffer>& offers);

// Time in range of an AP for a vehicle crossing the coverage disc through
// its center: 2 * range / speed.
double time_in_range_for_speed(double speed_mps, double range_m = 100.0);

// The dividing speed for a two-channel scenario: the lowest speed (within
// [lo, hi] m/s, bisected to `tol`) at which the optimal schedule puts less
// than `epsilon` of the period on the to-be-joined channel.
double dividing_speed(OptimizerParams params, ChannelOffer ch1,
                      ChannelOffer ch2, double range_m = 100.0,
                      double lo = 0.5, double hi = 40.0, double tol = 0.05,
                      double epsilon = 0.01);

}  // namespace spider::model
