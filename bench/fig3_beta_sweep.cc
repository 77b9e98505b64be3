// Fig. 3 — Probability of join success vs. the AP's maximum response time
// beta_max, for several channel fractions, with and without switching
// overhead. Shows that (a) faster APs are disproportionately easier to join
// and (b) removing the switching delay w barely helps — the schedule and
// the DHCP response time dominate.
#include <cstdio>

#include "bench/common.h"
#include "model/join_model.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::reject_flags(argc, argv);
  bench::print_header("fig3_beta_sweep",
                      "Fig. 3 — join probability vs. beta_max");
  std::printf("params: D=500ms c=100ms beta_min=500ms h=10%% t=4s\n\n");

  struct Series {
    double fraction;
    double switch_delay;
    const char* label;
  };
  const Series series[] = {
      {0.10, 0.000, "f=.10 (w=0 ms)"}, {0.10, 0.007, "f=.10"},
      {0.25, 0.007, "f=.25"},          {0.40, 0.007, "f=.40"},
      {0.50, 0.007, "f=.50"},          {0.50, 0.000, "f=.50 (w=0 ms)"},
  };

  std::printf("  %-10s", "beta_max");
  for (const auto& s : series) std::printf(" %-16s", s.label);
  std::printf("\n");

  for (double beta_max = 0.5; beta_max <= 10.01; beta_max += 0.5) {
    std::printf("  %-10.1f", beta_max);
    for (const auto& s : series) {
      model::JoinModelParams p;
      p.beta_max = beta_max;
      p.switch_delay = s.switch_delay;
      std::printf(" %-16.3f", model::join_probability(p, s.fraction, 4.0));
    }
    std::printf("\n");
  }

  // The paper's two headline observations on this figure:
  model::JoinModelParams p5;
  p5.beta_max = 5.0;
  std::printf("\ncheck: p(f=.30, 4s) = %.2f (paper: ~0.75), "
              "p(f=.10, 4s) = %.2f (paper: ~0.20)\n",
              model::join_probability(p5, 0.30, 4.0),
              model::join_probability(p5, 0.10, 4.0));
  model::JoinModelParams w0 = p5;
  w0.switch_delay = 0.0;
  std::printf("check: removing w changes p(f=.50) by %.3f "
              "(paper: negligible)\n",
              model::join_probability(w0, 0.5, 4.0) -
                  model::join_probability(p5, 0.5, 4.0));
  return 0;
}
