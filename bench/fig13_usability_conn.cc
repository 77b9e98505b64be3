// Fig. 13 — Can open Wi-Fi serve real users' connection-length needs?
// Compares the CDF of TCP connection durations demanded by the (synthetic
// stand-in for the) downtown-mesh user population against the connection
// durations Spider sustains in its single-channel and multi-channel
// multi-AP configurations.
#include <cstdio>

#include "bench/common.h"
#include "trace/mesh_users.h"

using namespace spider;

namespace {

trace::EmpiricalCdf spider_connections(core::SpiderConfig sc) {
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  const auto runs =
      bench::run_seed_replications(seeds, [&sc](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        cfg.spider = sc;
        return cfg;
      });
  trace::EmpiricalCdf cdf;
  for (const auto& r : runs) {
    for (double d : r.traffic.connection_durations_sec.samples()) cdf.add(d);
  }
  return cdf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig13_usability_conn",
                      "Fig. 13 — user connection durations vs. Spider's");

  const auto demand = trace::generate_mesh_demand(sim::Rng(161));
  bench::print_cdf("users' connection durations (mesh trace stand-in)",
                   demand.connection_durations_sec, 100.0, 11);
  bench::print_cdf("multiple APs (ch1)",
                   spider_connections(core::single_channel_multi_ap(1)), 100.0,
                   11);
  bench::print_cdf("multiple APs (multi-channel)",
                   spider_connections(core::multi_channel_multi_ap()), 100.0,
                   11);
  std::printf(
      "\nexpected shape: Spider's connection-length CDFs sit at or to the\n"
      "right of the users' demand curve over the bulk of the distribution —\n"
      "it can host the TCP flows users actually run.\n");
  return bench::finish();
}
