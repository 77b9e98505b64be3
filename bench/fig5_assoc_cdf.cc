// Fig. 5 — CDF of link-layer association time on channel 6 as a function of
// the fraction of the 400 ms schedule spent on that channel (the remainder
// split evenly between channels 1 and 11). Vehicular drives, link-layer
// timeout reduced to 100 ms. Association is fairly robust to switching:
// full dwell completes within ~400 ms, and lower fractions degrade the
// median without collapsing the success rate.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig5_assoc_cdf",
                      "Fig. 5 — association-time CDF vs. channel fraction");
  std::printf("setup: D=400ms, f6=x, f1=f11=(1-x)/2, link timeout 100ms,\n"
              "       vehicular drives over the Amherst-style deployment\n\n");

  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  for (double x : {0.25, 0.50, 0.75, 1.00}) {
    const auto runs =
        bench::run_seed_replications(seeds, [x](std::uint64_t seed) {
          auto cfg = core::amherst_drive(seed);
          core::SpiderConfig sc = core::single_channel_multi_ap(6);
          sc.period = sim::Time::millis(400);
          if (x < 1.0) {
            sc.schedule = {{6, x}, {1, (1 - x) / 2}, {11, (1 - x) / 2}};
          }
          cfg.spider = sc;
          return cfg;
        });
    trace::EmpiricalCdf assoc;
    for (const auto& r : runs) {
      for (double d : r.joins.association_delay_sec.samples()) assoc.add(d);
    }
    char label[64];
    std::snprintf(label, sizeof(label), "f6 = %.0f%%", 100 * x);
    bench::print_cdf(label, assoc, 2.0, 11);
  }
  std::printf(
      "expected shape: f6=100%% completes fastest (paper: median 200 ms,\n"
      "all within 400 ms); smaller fractions shift the CDF right but stay\n"
      "usable — association tolerates switching better than DHCP does.\n");
  return bench::finish();
}
