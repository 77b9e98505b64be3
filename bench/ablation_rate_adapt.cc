// Ablation — 802.11b rate adaptation at the cell edge. Fixed-11 Mb/s
// downlinks die at the nominal range; Minstrel-lite adaptation trades
// airtime for reach, extending the serviceable cell and smoothing the
// fade-out a vehicular client sees on every encounter exit.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

double mean_goodput_at(double distance_m, bool auto_rate,
                       const std::vector<std::uint64_t>& seeds) {
  const auto runs = bench::run_seed_replications(
      seeds, [distance_m, auto_rate](std::uint64_t seed) {
        core::ExperimentConfig cfg =
            core::static_lab(seed, 1, 1, 4e6, sim::Time::seconds(60));
        cfg.medium.base_loss = 0.1;
        cfg.medium.edge_degradation = true;  // vehicular-style fringe
        cfg.aps[0].position = {distance_m, 0.0};
        cfg.ap_mac.auto_rate = auto_rate;
        cfg.client_auto_rate = auto_rate;
        cfg.spider = core::single_channel_multi_ap(1);
        return cfg;
      });
  trace::OnlineStats kbps;
  for (const auto& r : runs) kbps.add(r.avg_throughput_kbps());
  return kbps.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("ablation_rate_adapt",
                      "substrate ablation — fixed 11 Mb/s vs. auto-rate");
  std::printf("(static client at increasing distance from one 4 Mbps AP;\n"
              " nominal range 100 m, edge degradation from 75 m)\n\n");
  std::printf("  %-14s %-18s %-18s\n", "distance (m)", "fixed 11 Mb/s",
              "auto-rate (kb/s)");
  const std::vector<std::uint64_t> seeds = {3, 5, 9};
  for (double d : {40.0, 70.0, 85.0, 92.0, 98.0, 104.0}) {
    std::printf("  %-14.0f %-18.0f %-18.0f\n", d,
                mean_goodput_at(d, false, seeds),
                mean_goodput_at(d, true, seeds));
  }
  std::printf(
      "\nexpected shape: identical well inside the cell (adaptation stays\n"
      "at 11 Mb/s); in the fade zone the fixed rate collapses while\n"
      "auto-rate keeps a usable (slower) data link. The association itself\n"
      "is still gated at the nominal rate (our management frames are not\n"
      "rate-scaled — a documented simplification), so the joinable cell\n"
      "does not grow; the win is a graceful data-plane fade-out.\n");
  return 0;
}
