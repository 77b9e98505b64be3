// Fig. 12 — CDF of the join delay (association + DHCP) for six scheduling /
// timeout / interface-count policies. Single channel with reduced timeouts
// joins fastest; cutting the interface budget to one or spreading the
// schedule over channels pushes the CDF right.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

trace::EmpiricalCdf run_policy(core::SpiderConfig sc) {
  sc.join_give_up = sim::Time::seconds(15);
  const std::vector<std::uint64_t> seeds = {7, 17, 27};
  const auto runs =
      bench::run_seed_replications(seeds, [&sc](std::uint64_t seed) {
        auto cfg = spider::core::amherst_drive(seed);
        cfg.spider = sc;
        return cfg;
      });
  trace::EmpiricalCdf join;
  for (const auto& r : runs) {
    for (double d : r.joins.join_delay_sec.samples()) join.add(d);
  }
  return join;
}

core::SpiderConfig with_ifaces(core::SpiderConfig sc, int n) {
  sc.max_interfaces = n;
  sc.multi_ap = n > 1;
  return sc;
}

core::SpiderConfig with_timers(core::SpiderConfig sc,
                               dhcpd::DhcpClientConfig dhcp,
                               sim::Time link_timeout) {
  sc.dhcp = dhcp;
  sc.session.link_timeout = link_timeout;
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig12_join_policies",
                      "Fig. 12 — join-delay CDF per scheduling policy");

  const auto def = dhcpd::default_dhcp_timers();
  const auto fast = dhcpd::reduced_dhcp_timers(sim::Time::millis(200));
  const auto ll_def = sim::Time::millis(1000);
  const auto ll_fast = sim::Time::millis(100);

  struct Row {
    const char* label;
    core::SpiderConfig sc;
  };
  const Row rows[] = {
      {"1 iface, ch1 (100%), default TO",
       with_ifaces(with_timers(core::single_channel_multi_ap(1), def, ll_def),
                   1)},
      {"7 ifaces, ch1 (100%), default TO",
       with_timers(core::single_channel_multi_ap(1), def, ll_def)},
      {"7 ifaces, ch1 (100%), dhcp=200ms ll=100ms",
       with_timers(core::single_channel_multi_ap(1), fast, ll_fast)},
      {"7 ifaces, ch1(50%) ch6(50%), default TO",
       with_timers(core::multi_channel_multi_ap(sim::Time::millis(400), {1, 6}),
                   def, ll_def)},
      {"7 ifaces, 3 chans eq., default TO",
       with_timers(core::multi_channel_multi_ap(), def, ll_def)},
      {"7 ifaces, 3 chans eq., dhcp=200ms ll=100ms",
       with_timers(core::multi_channel_multi_ap(), fast, ll_fast)},
  };
  for (const auto& row : rows) {
    bench::print_cdf(row.label, run_policy(row.sc), 15.0, 16);
  }
  std::printf(
      "\nexpected shape: the single-channel reduced-timeout policy joins\n"
      "fastest; default timers and multi-channel schedules push the curves\n"
      "right (paper: multi-channel medians ~4-5 s).\n");
  return bench::finish();
}
