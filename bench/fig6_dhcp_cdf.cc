// Fig. 6 — CDF of the full join (association + DHCP lease) on channel 6 as
// a function of the channel fraction and the DHCP timeout. Reducing the
// stock timers (1 s message / 3 s attempt / 60 s idle) to 100 ms speeds up
// the median join dramatically at full dwell, but fractional schedules make
// DHCP fragile: the lease exchange cannot be parked with PSM.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

trace::EmpiricalCdf run_config(double f6, dhcpd::DhcpClientConfig timers) {
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  const auto runs = bench::run_seed_replications(
      seeds,
      [f6, &timers](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        core::SpiderConfig sc = core::single_channel_multi_ap(6);
        sc.period = sim::Time::millis(400);
        if (f6 < 1.0) {
          sc.schedule = {{6, f6}, {1, (1 - f6) / 2}, {11, (1 - f6) / 2}};
        }
        sc.dhcp = timers;
        sc.join_give_up = sim::Time::seconds(15);
        cfg.spider = sc;
        return cfg;
      });
  trace::EmpiricalCdf join;
  for (const auto& r : runs) {
    for (double d : r.joins.join_delay_sec.samples()) join.add(d);
  }
  return join;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig6_dhcp_cdf",
                      "Fig. 6 — join (assoc+DHCP) CDF vs. fraction & timers");

  const auto reduced = dhcpd::reduced_dhcp_timers(sim::Time::millis(100));
  struct Row {
    double f6;
    dhcpd::DhcpClientConfig timers;
    const char* label;
  };
  const Row rows[] = {
      {0.25, reduced, "25% - 100ms"},
      {0.50, reduced, "50% - 100ms"},
      {1.00, reduced, "100% - 100ms"},
      {1.00, dhcpd::default_dhcp_timers(), "100% - default"},
  };
  for (const auto& row : rows) {
    bench::print_cdf(row.label, run_config(row.f6, row.timers), 15.0, 16);
  }
  std::printf(
      "expected shape: 100%%+reduced joins fastest (paper: median 1.3 s vs\n"
      "2.5 s with default timers); at 25%% the accumulated failures drag the\n"
      "CDF far right — DHCP is not robust to small schedule fractions.\n");
  return bench::finish();
}
