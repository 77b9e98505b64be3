// Ablation — dynamic channel selection (Section 4.8 future work).
// Spider's published prototype camps on a statically chosen channel; the
// obvious extension re-camps wherever the (history-weighted) AP supply is
// best, paying brief scan excursions. We compare, over drives where the
// per-channel supply varies by layout:
//   * static channel 1 (may be a poor pick for this layout),
//   * static best channel chosen by an oracle (per-seed upper bound),
//   * dynamic selection starting from channel 1.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

// Per-seed throughput for one Spider configuration across all seeds, run as
// one parallel sweep (seed order preserved).
std::vector<double> run_all(const std::vector<std::uint64_t>& seeds,
                            core::SpiderConfig sc) {
  const auto runs =
      bench::run_seed_replications(seeds, [&sc](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        cfg.spider = sc;
        return cfg;
      });
  std::vector<double> kBps;
  kBps.reserve(runs.size());
  for (const auto& r : runs) kBps.push_back(r.avg_throughput_kBps());
  return kBps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("ablation_dynamic_channel",
                      "DESIGN.md ablation — static vs. dynamic channel");
  std::printf("  %-6s %-12s %-12s %-12s %-14s\n", "seed", "static ch1",
              "oracle best", "dynamic", "dynamic/oracle");

  const std::vector<std::uint64_t> seeds = {7, 17, 27, 37, 47};
  const auto ch1 = run_all(seeds, core::single_channel_multi_ap(1));
  const auto ch6 = run_all(seeds, core::single_channel_multi_ap(6));
  const auto ch11 = run_all(seeds, core::single_channel_multi_ap(11));
  const auto dyn = run_all(seeds, core::dynamic_channel_multi_ap(1));

  trace::OnlineStats ratio;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const double best = std::max({ch1[i], ch6[i], ch11[i]});
    ratio.add(best > 0 ? dyn[i] / best : 1.0);
    std::printf("  %-6llu %-12.1f %-12.1f %-12.1f %-14.2f\n",
                static_cast<unsigned long long>(seeds[i]), ch1[i], best,
                dyn[i], best > 0 ? dyn[i] / best : 1.0);
  }
  std::printf("\n  mean dynamic/oracle ratio: %.2f\n", ratio.mean());
  std::printf(
      "\nexpected shape: dynamic recovers a large share of the per-layout\n"
      "oracle's throughput without knowing the layout, and never does much\n"
      "worse than the naive static pick.\n");
  return bench::finish();
}
