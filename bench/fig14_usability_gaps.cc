// Fig. 14 — Compares users' inter-connection gaps (how long they naturally
// go between connections) with Spider's disruption lengths. If Spider's
// disruptions are no longer than the gaps users already tolerate, open
// Wi-Fi can plausibly complement cellular for these users.
#include <cstdio>

#include "bench/common.h"
#include "trace/mesh_users.h"

using namespace spider;

namespace {

trace::EmpiricalCdf spider_disruptions(core::SpiderConfig sc) {
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  const auto runs =
      bench::run_seed_replications(seeds, [&sc](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        cfg.spider = sc;
        return cfg;
      });
  trace::EmpiricalCdf cdf;
  for (const auto& r : runs) {
    for (double d : r.traffic.disruption_durations_sec.samples()) cdf.add(d);
  }
  return cdf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig14_usability_gaps",
                      "Fig. 14 — user inter-connection gaps vs. disruptions");

  const auto demand = trace::generate_mesh_demand(sim::Rng(161));
  bench::print_cdf("users' inter-connection gaps (mesh trace stand-in)",
                   demand.inter_connection_sec, 300.0, 11);
  bench::print_cdf("multiple APs (ch1)",
                   spider_disruptions(core::single_channel_multi_ap(1)), 300.0,
                   11);
  bench::print_cdf("multiple APs (multi-channel)",
                   spider_disruptions(core::multi_channel_multi_ap()), 300.0,
                   11);
  std::printf(
      "\nexpected shape: the multi-channel multi-AP configuration's\n"
      "disruption CDF is comparable to the users' natural inter-connection\n"
      "gaps; the single-channel configuration shows longer outages (areas\n"
      "with no co-channel AP).\n");
  return bench::finish();
}
