// Table 1 — Channel-switching latency (ms) of the Spider driver as a
// function of the number of connected interfaces. The latency is the PSM
// null-data to each associated AP on the old channel, the hardware reset,
// and a PS-Poll to each associated AP on the new channel. With no
// interfaces it is just the hardware reset (~4.94 ms on the paper's
// Atheros part); each additional AP adds the airtime of its PSM frames.
#include <cstdio>

#include "bench/common.h"
#include "core/client_device.h"
#include "core/spider_driver.h"
#include "phy/medium.h"
#include "tcp/tcp.h"
#include "trace/stats.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("table1_switch_latency",
                      "Table 1 — channel-switch latency vs. connected ifaces");

  std::printf("  %-24s %-10s %-10s\n", "connected interfaces", "mean (ms)",
              "stddev");
  for (int n_aps = 0; n_aps <= 4; ++n_aps) {
    trace::OnlineStats latency_ms;
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      auto cfg = core::static_lab(seed, n_aps, 1, 2e6,
                                   sim::Time::seconds(30));
      // Split the schedule between the populated channel and an empty one so
      // the driver keeps switching; every other switch parks/wakes all
      // connected APs.
      cfg.spider = core::single_channel_multi_ap(1);
      cfg.spider.schedule = {{1, 0.5}, {11, 0.5}};
      cfg.spider.period = sim::Time::millis(400);
      bench::attach_stream(cfg);
      core::Experiment exp(std::move(cfg));
      auto& sim = exp.simulator();
      // Sample the modeled switch latency once per period, after the world
      // has settled and the APs are connected.
      std::function<void()> sample = [&] {
        if (exp.spider()->connected_count() ==
            static_cast<std::size_t>(n_aps)) {
          latency_ms.add(exp.spider()->last_switch_latency().ms());
        }
        sim.schedule_after(sim::Time::millis(400), sample);
      };
      sim.schedule_after(sim::Time::seconds(10), sample);
      exp.run();
    }
    std::printf("  %-24d %-10.3f %-10.3f\n", n_aps, latency_ms.mean(),
                latency_ms.stddev());
  }
  std::printf(
      "\nexpected shape: ~4.94 ms base (hardware reset only), growing by\n"
      "the per-AP PSM/PS-Poll airtime to ~5.9 ms at four interfaces\n"
      "(paper: 4.942 / 4.952 / 5.266 / 5.546 / 5.945 ms).\n");
  return bench::finish();
}
