// Ablation — energy cost of concurrency (Section 4.8 future work).
// State-based radio energy model: how much does each driver configuration
// pay per megabyte delivered, and how does the bill split across idle /
// receive / transmit / reset time? Multi-channel schedules pay resets and
// extra overhearing; the single-channel multi-AP configuration amortizes
// the (dominant) idle floor over far more bytes.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("ablation_energy",
                      "DESIGN.md ablation — energy per configuration");
  std::printf("(state-based model: idle 0.74 W, rx 0.90 W, tx 1.34 W,\n"
              " reset 0.74 W; Amherst drive, 3 seeds)\n\n");
  std::printf("  %-30s %-10s %-12s %-12s\n", "configuration", "joules",
              "J/MB", "switches");

  struct Row {
    const char* label;
    core::SpiderConfig sc;
    bool stock = false;
  };
  const Row rows[] = {
      {"Spider ch1 multi-AP", core::single_channel_multi_ap(1)},
      {"Spider ch1 single-AP", core::single_channel_single_ap(1)},
      {"Spider 3ch multi-AP", core::multi_channel_multi_ap()},
      {"Spider dynamic channel", core::dynamic_channel_multi_ap(1)},
      {"stock driver", core::SpiderConfig{}, true},
  };
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  for (const auto& row : rows) {
    const auto runs =
        bench::run_seed_replications(seeds, [&row](std::uint64_t seed) {
          auto cfg = core::amherst_drive(seed);
          if (row.stock) {
            cfg.driver = core::DriverKind::kStock;
          } else {
            cfg.spider = row.sc;
          }
          return cfg;
        });
    trace::OnlineStats joules, jpm;
    std::uint64_t switches = 0;
    for (const auto& r : runs) {
      joules.add(r.client_joules);
      if (r.traffic.total_bytes > 0) jpm.add(r.joules_per_megabyte());
      switches += r.channel_switches;
    }
    std::printf("  %-30s %-10.0f %-12.1f %-12llu\n", row.label, joules.mean(),
                jpm.mean(), static_cast<unsigned long long>(switches / 3));
  }
  std::printf(
      "\nexpected shape: total joules are dominated by the idle floor and\n"
      "so are similar across configurations — but joules PER MEGABYTE vary\n"
      "by the throughput each configuration extracts: single-channel\n"
      "multi-AP is by far the most energy-efficient way to move bytes.\n");
  return bench::finish();
}
