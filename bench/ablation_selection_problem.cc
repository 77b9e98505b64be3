// Ablation — how much utility does Spider's greedy heuristic give up
// against the exact (NP-hard in general) multi-AP selection optimum?
// Random candidate sets drawn from the deployment's statistics; the exact
// branch-and-bound is feasible at scan-result sizes.
#include <cstdio>

#include "bench/common.h"
#include "model/ap_selection_problem.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::reject_flags(argc, argv);
  bench::print_header(
      "ablation_selection_problem",
      "Appendix A — greedy AP selection vs. exact optimum");
  std::printf("(500 random instances per size; candidates drawn from the\n"
              " deployment's join-time/bandwidth/encounter statistics)\n\n");
  std::printf("  %-12s %-22s %-22s\n", "candidates", "spider-greedy/optimal",
              "density-greedy/optimal");

  for (int n : {4, 8, 12, 16, 20}) {
    trace::OnlineStats spider_ratio, density_ratio;
    sim::Rng rng(static_cast<std::uint64_t>(1000 + n));
    for (int trial = 0; trial < 500; ++trial) {
      model::SelectionProblem p;
      for (int i = 0; i < n; ++i) {
        model::ApCandidate c;
        c.join_cost_sec = rng.uniform(0.5, 4.0);
        c.bandwidth_bps = rng.uniform(1e6, 4e6);
        c.residual_sec = rng.uniform(4.0, 25.0);
        c.join_success = rng.bernoulli(0.2) ? 0.05 : rng.uniform(0.6, 1.0);
        p.candidates.push_back(c);
      }
      p.join_budget_sec = rng.uniform(2.0, 8.0);
      p.max_selection = 7;
      const auto exact = model::solve_exact(p);
      if (exact.total_utility <= 0.0) continue;
      spider_ratio.add(model::solve_spider_greedy(p).total_utility /
                       exact.total_utility);
      density_ratio.add(model::solve_density_greedy(p).total_utility /
                        exact.total_utility);
    }
    std::printf("  %-12d %.3f +/- %.3f        %.3f +/- %.3f\n", n,
                spider_ratio.mean(), spider_ratio.stddev(),
                density_ratio.mean(), density_ratio.stddev());
  }
  std::printf(
      "\nexpected shape: the density greedy sits within a few percent of\n"
      "optimal (knapsack folklore); Spider's join-time-only ranking gives\n"
      "up more utility in theory — the gap the paper accepts because\n"
      "offered bandwidth cannot be observed before joining anyway.\n");
  return 0;
}
