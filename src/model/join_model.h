// The paper's analytical join model (Section 2.1.1, Eqs. 1-7).
//
// A mobile node spends a fraction f_i of every scheduling period D on
// channel i (at the start of the period), paying a switching delay w on each
// hop. While on the channel it fires a join request every c seconds; the
// AP's response arrives after beta ~ U[beta_min, beta_max] and is only
// received if it lands inside one of the node's future on-channel windows.
// Requests and responses are each lost independently with probability h.
//
//   q(m,n,k)   Eq. 5 — probability that the request sent in segment k of
//              round m has its response land in round n's on-channel window
//              (lossless channel).
//   qbar(m,n)  Eq. 6 — probability that NO request of round m joins in
//              round n, with loss h applied to both directions.
//   p(f_i,t)   Eq. 7 — probability of at least one successful join within
//              the first t seconds in range (t ~ s*D rounds).
//
// All quantities are in seconds (pure math; no simulator types).
#pragma once

namespace spider::model {

struct JoinModelParams {
  double period = 0.5;        // D: scheduling period (s)
  double switch_delay = 0.007;  // w: channel-switch cost (s)
  double request_interval = 0.1;  // c: gap between join requests (s)
  double beta_min = 0.5;      // fastest AP response (s)
  double beta_max = 10.0;     // slowest AP response (s)
  double loss = 0.1;          // h: per-message loss probability

  bool valid() const {
    return period > 0 && switch_delay >= 0 && request_interval > 0 &&
           beta_min >= 0 && beta_max >= beta_min && loss >= 0 && loss < 1;
  }
};

// Maximum number of join requests per round (the product limit of Eq. 6):
// ceil((D*f_i - w) / c), clamped at zero.
int requests_per_round(const JoinModelParams& params, double fraction);

// Eq. 5. `round_delta` is (n - m) >= 0; `segment` is k >= 1.
double q_single(const JoinModelParams& params, double fraction,
                int round_delta, int segment);

// Eq. 6: probability that no request from a round joins `round_delta`
// rounds later, including loss on request and response.
double q_round_failure(const JoinModelParams& params, double fraction,
                       int round_delta);

// Eq. 7: probability of obtaining at least one lease within time t.
//
// One pass over the R = floor(t/D) whole rounds: the no-join probability
// obeys F(j+1) = F(j) * G(j) with G(j) = prod_{delta<=j} qbar(delta), so a
// running product yields every F(j), and no pow. Eq. 5 is evaluated only
// while a response can still land (delta*D + c - w <= k*c + beta_max for the
// round's last request); past that round qbar is exactly 1 and each round
// costs one add and one multiply. The result is bit-identical to
// multiplying every round's q_round_failure in.
// Once F falls below 1e-15 the pass stops and returns 1.
//
// If `unjoined_rounds` is given it receives sum_{j<R} F(j) =
// sum_{j<R} (1 - p(f, j*D)): the expected number of the R whole rounds that
// start with no join yet. When the pass stops early it holds the sum up to
// that round; the rounds after it add less than 1e-15 each.
//
// Throws std::invalid_argument for invalid params, and for a t that is NaN
// or has more whole rounds than an int holds.
double join_probability(const JoinModelParams& params, double fraction,
                        double time_in_range,
                        double* unjoined_rounds = nullptr);

// Expected time spent before the join completes, capped at T:
//   g_T(f_i) = D * sum_{j<R} (1 - p(f_i, j*D)) + (T - R*D) * (1 - p(f_i, T))
// This is the g_T(f_i) of the throughput optimization (Section 2.1.3);
// if joining is hopeless it approaches T and the channel contributes
// nothing. It is one join_probability call: its `unjoined_rounds` is the
// sum, so g_T costs the same pass as p.
double expected_join_time(const JoinModelParams& params, double fraction,
                          double time_in_range);

}  // namespace spider::model
