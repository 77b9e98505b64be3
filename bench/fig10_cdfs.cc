// Fig. 10 — CDFs of (a) connection duration, (b) disruption duration, and
// (c) instantaneous bandwidth while connected, for the four Spider
// configurations on the Amherst-style drive.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

struct Curves {
  trace::EmpiricalCdf connections;
  trace::EmpiricalCdf disruptions;
  trace::EmpiricalCdf bandwidth_kBps;
};

Curves collect(core::SpiderConfig sc) {
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  const auto runs =
      bench::run_seed_replications(seeds, [&sc](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        cfg.spider = sc;
        return cfg;
      });
  Curves c;
  for (const auto& r : runs) {
    for (double d : r.traffic.connection_durations_sec.samples())
      c.connections.add(d);
    for (double d : r.traffic.disruption_durations_sec.samples())
      c.disruptions.add(d);
    for (double b : r.traffic.instantaneous_bytes_per_sec.samples())
      c.bandwidth_kBps.add(b / 1e3);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig10_cdfs",
                      "Fig. 10a/b/c — connection, disruption, bandwidth CDFs");

  struct Config {
    const char* label;
    core::SpiderConfig sc;
  };
  const Config configs[] = {
      {"single AP (ch1)", core::single_channel_single_ap(1)},
      {"multiple APs (ch1)", core::single_channel_multi_ap(1)},
      {"single AP (multi-channel)", core::multi_channel_single_ap()},
      {"multiple APs (multi-channel)", core::multi_channel_multi_ap()},
  };

  std::vector<Curves> all;
  for (const auto& c : configs) all.push_back(collect(c.sc));

  std::printf("\n(a) connection durations (s)\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    bench::print_cdf_summary(configs[i].label, all[i].connections);
  }
  std::printf("\n(b) disruption durations (s)\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    bench::print_cdf_summary(configs[i].label, all[i].disruptions);
  }
  std::printf("\n(c) instantaneous bandwidth while connected (KB/s)\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    bench::print_cdf_summary(configs[i].label, all[i].bandwidth_kBps);
  }

  std::printf("\nfull curves:\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("\n[%s]\n", configs[i].label);
    bench::print_cdf("connection duration (s)", all[i].connections, 120.0, 13);
    bench::print_cdf("disruption duration (s)", all[i].disruptions, 120.0, 13);
    bench::print_cdf("bandwidth (KB/s)", all[i].bandwidth_kBps, 1200.0, 13);
  }

  std::printf(
      "\nexpected shape: single-channel multi-AP has the longest connections\n"
      "and the best instantaneous bandwidth (paper: 60th pct ~300 KB/s, 90th\n"
      "~1000 KB/s) but also the longest disruptions; multi-channel multi-AP\n"
      "has the shortest connections AND the shortest disruptions.\n");
  return bench::finish();
}
