// Ablation — contention as adoption grows (Section 4.8 future work).
// N Spider clients follow the same downtown loop, staggered in traffic.
// They contend for per-channel airtime, AP backhauls, and DHCP pools.
// Reports aggregate and per-client throughput plus Jain's fairness as the
// fleet grows.
#include <cstdio>

#include "bench/common.h"
#include "core/fleet.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("ablation_contention",
                      "DESIGN.md ablation — N concurrent Spider clients");
  std::printf("  %-8s %-16s %-16s %-10s\n", "clients", "aggregate KB/s",
              "per-client KB/s", "fairness");

  for (int n : {1, 2, 4, 8}) {
    trace::OnlineStats agg, per, fair;
    for (std::uint64_t seed : {7ULL, 17ULL}) {
      core::FleetConfig cfg = core::contention_fleet(seed, n);
      bench::attach_stream(cfg);
      core::FleetExperiment fleet(std::move(cfg));
      const auto r = fleet.run();
      agg.add(r.aggregate_throughput_kBps());
      per.add(r.mean_client_throughput_kBps());
      fair.add(r.fairness());
    }
    std::printf("  %-8d %-16.1f %-16.1f %-10.2f\n", n, agg.mean(), per.mean(),
                fair.mean());
  }
  std::printf(
      "\nexpected shape: aggregate grows sub-linearly (clients in the same\n"
      "cell split backhaul and airtime) and per-client throughput falls as\n"
      "the fleet grows; fairness stays moderate because staggered vehicles\n"
      "often occupy different cells.\n");
  return bench::finish();
}
