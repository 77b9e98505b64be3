// Fig. 7 — Average TCP throughput vs. the percentage of time the driver
// spends on the primary channel, with the total schedule fixed at
// D = 400 ms (about two typical RTTs). Indoor static setup: the throughput
// should grow roughly proportionally to the primary-channel share.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig7_tcp_fraction",
                      "Fig. 7 — TCP throughput vs. %time on primary channel");
  std::printf("setup: static client, one AP on ch1 (5 Mbps backhaul),\n"
              "       D=400ms, remainder split between ch6 and ch11\n\n");
  std::printf("  %-12s %-18s\n", "% primary", "throughput (kb/s)");

  const std::vector<std::uint64_t> seeds = {3, 5, 7};
  for (double f : {0.125, 0.25, 0.375, 0.50, 0.625, 0.75, 0.875, 1.0}) {
    const auto runs =
        bench::run_seed_replications(seeds, [f](std::uint64_t seed) {
          auto cfg =
              core::static_lab(seed, 1, 1, 5e6, sim::Time::seconds(120));
          core::SpiderConfig sc = core::single_channel_multi_ap(1);
          sc.period = sim::Time::millis(400);
          if (f < 1.0) {
            sc.schedule = {{1, f}, {6, (1 - f) / 2}, {11, (1 - f) / 2}};
          }
          cfg.spider = sc;
          return cfg;
        });
    trace::OnlineStats kbps;
    for (const auto& r : runs) kbps.add(r.avg_throughput_kbps());
    std::printf("  %-12.1f %8.0f  (+/- %.0f)\n", 100 * f, kbps.mean(),
                kbps.stddev());
  }
  std::printf(
      "\nexpected shape: monotone, roughly proportional to the primary\n"
      "share (paper: ~0 -> ~4000 kb/s), because 400 ms away-time stays\n"
      "below the RTO at these RTTs.\n");
  return bench::finish();
}
