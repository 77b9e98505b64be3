// Fig. 8 — Average TCP throughput vs. the *absolute* time spent on each
// channel under an equal three-channel schedule (time x on the primary
// channel means 2x away from it). Unlike Fig. 7, the response is sharply
// non-monotone: beyond ~150-200 ms of absence TCP retransmission timers
// fire, cwnd collapses, and throughput falls off a cliff.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig8_tcp_schedule",
                      "Fig. 8 — TCP throughput vs. per-channel dwell");
  std::printf("setup: static client, one AP on ch1 (5 Mbps backhaul),\n"
              "       equal schedule over ch1/ch6/ch11, dwell x per channel\n\n");
  std::printf("  %-14s %-18s\n", "x (ms/chan)", "throughput (kb/s)");

  const std::vector<std::uint64_t> seeds = {3, 5, 7};
  for (int x_ms : {33, 67, 100, 133, 167, 200, 267, 333, 400}) {
    const auto runs =
        bench::run_seed_replications(seeds, [x_ms](std::uint64_t seed) {
          auto cfg =
              core::static_lab(seed, 1, 1, 5e6, sim::Time::seconds(120));
          cfg.spider = core::multi_channel_multi_ap(
              sim::Time::millis(3 * x_ms), {1, 6, 11});
          return cfg;
        });
    trace::OnlineStats kbps;
    for (const auto& r : runs) kbps.add(r.avg_throughput_kbps());
    std::printf("  %-14d %8.0f  (+/- %.0f)\n", x_ms, kbps.mean(),
                kbps.stddev());
  }
  std::printf(
      "\nexpected shape: rises to a peak around x~100-150 ms, then collapses\n"
      "once 2x of absence exceeds the RTO (paper: peak ~3500 kb/s then\n"
      "~500 kb/s beyond 200 ms) — TCP timeouts plus slow start.\n");
  return bench::finish();
}
