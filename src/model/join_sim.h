// Monte-Carlo corroboration of the analytical join model (Fig. 2).
//
// Simulates the same simplified process the closed form describes — one
// join request per segment, uniform response time, independent per-message
// loss, success iff the response lands inside a future on-channel window —
// and estimates the join probability empirically. Matching the closed form
// validates the derivation of Eq. 7 (fig2_join_model prints both, and
// ModelVsMonteCarlo in tests/model_join_test.cc gates the agreement). It
// checks nothing beyond the model's own simplifications: neither is yet
// compared against the full-stack simulator, whose MAC+DHCP handshake has
// more phases than the model (ROADMAP item 2, "Model vs. stack").
#pragma once

#include "model/join_model.h"
#include "sim/random.h"

namespace spider::model {

struct MonteCarloResult {
  double mean = 0.0;    // estimated join probability
  double stddev = 0.0;  // std-dev across runs (the paper's error bars)
};

// `runs` independent runs of `trials_per_run` trials each (the paper uses
// 100 x 100); mean/stddev are over the per-run success fractions.
MonteCarloResult monte_carlo_join_probability(const JoinModelParams& params,
                                              double fraction,
                                              double time_in_range,
                                              sim::Rng rng, int runs = 100,
                                              int trials_per_run = 100);

// Single trial (exposed for tests): true if any request joins.
bool simulate_join_trial(const JoinModelParams& params, double fraction,
                         double time_in_range, sim::Rng& rng);

}  // namespace spider::model
