// Fig. 11 — CDF of the time to join (association + DHCP) as a function of
// the DHCP timeout, on one channel and across three channels. Reduced
// timeouts cut the median join despite raising the failure count; the
// multi-channel schedules pay a ~2x median penalty.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

trace::EmpiricalCdf run_config(bool three_channels,
                               dhcpd::DhcpClientConfig timers) {
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  const auto runs = bench::run_seed_replications(
      seeds, [three_channels, &timers](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        core::SpiderConfig sc = three_channels
                                    ? core::multi_channel_multi_ap()
                                    : core::single_channel_multi_ap(1);
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
  bench::print_header("fig11_join_timeouts",
                      "Fig. 11 — join-time CDF vs. DHCP timeout");

  struct Row {
    const char* label;
    bool three_channels;
    dhcpd::DhcpClientConfig timers;
  };
  const Row rows[] = {
      {"200ms, channel 1", false,
       dhcpd::reduced_dhcp_timers(sim::Time::millis(200))},
      {"400ms, channel 1", false,
       dhcpd::reduced_dhcp_timers(sim::Time::millis(400))},
      {"600ms, channel 1", false,
       dhcpd::reduced_dhcp_timers(sim::Time::millis(600))},
      {"default, channel 1", false, dhcpd::default_dhcp_timers()},
      {"default, 3 channels", true, dhcpd::default_dhcp_timers()},
      {"200ms, 3 channels", true,
       dhcpd::reduced_dhcp_timers(sim::Time::millis(200))},
  };
  for (const auto& row : rows) {
    const auto cdf = run_config(row.three_channels, row.timers);
    bench::print_cdf(row.label, cdf, 15.0, 16);
  }
  std::printf(
      "\nexpected shape: reduced timeouts improve the median time to join,\n"
      "but the absolute median stays in the seconds range (the paper's 2-3 s\n"
      "~ 10-15 TCP timeouts) and roughly doubles on three channels — hence\n"
      "stay on one channel for throughput.\n");
  return bench::finish();
}
