// Fig. 9 — Throughput micro-benchmark: aggregate HTTP-download throughput
// vs. per-AP backhaul bandwidth for
//   * one stock card (one AP),
//   * two stock cards (two radios, one AP each),
//   * Spider on a single channel connected to two APs (100,0,0),
//   * Spider across channels 1 and 11, 50 ms on each (50,0,50),
//   * Spider across channels 1 and 11, 100 ms on each (100,0,100).
// Spider on one channel must match the two-physical-cards host; the
// multi-channel schedules trade connectivity opportunities for throughput.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

namespace {

double spider_run(int n_aps_ch1, int n_aps_ch11, double backhaul,
                  std::vector<core::ChannelSlice> schedule, sim::Time period,
                  std::uint64_t seed) {
  core::ExperimentConfig cfg =
      core::static_lab(seed, n_aps_ch1, 1, backhaul, sim::Time::seconds(60));
  for (int i = 0; i < n_aps_ch11; ++i) {
    mobility::ApDescriptor d = cfg.aps.front();
    d.ssid = "lab11-" + std::to_string(i);
    d.mac = net::MacAddress::from_index(0xB0 + static_cast<std::uint32_t>(i));
    d.subnet = net::Ipv4Address{(10u << 24) |
                                (static_cast<std::uint32_t>(0xB0 + i) << 8)};
    d.position = {12.0 + 2.0 * i, 5.0};
    d.channel = 11;
    cfg.aps.push_back(d);
  }
  cfg.spider = core::single_channel_multi_ap(1);
  cfg.spider.schedule = std::move(schedule);
  cfg.spider.period = period;
  bench::attach_stream(cfg);
  const auto r = core::Experiment(std::move(cfg)).run();
  return r.traffic.avg_throughput_bytes_per_sec / 1e3;  // KB/s
}

double stock_run(std::uint64_t seed, double backhaul) {
  auto cfg = core::static_lab(seed, 1, 1, backhaul, sim::Time::seconds(60));
  cfg.driver = core::DriverKind::kStock;
  cfg.stock.scan_channels = {1};
  bench::attach_stream(cfg);
  const auto r = core::Experiment(std::move(cfg)).run();
  return r.traffic.avg_throughput_bytes_per_sec / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("fig9_microbench",
                      "Fig. 9 — throughput vs. per-AP backhaul bandwidth");
  std::printf("  %-10s %-12s %-12s %-14s %-14s %-14s\n", "backhaul",
              "one stock", "two stock*", "Spider 1ch/2AP", "Spider 50/50",
              "Spider 100/100");
  std::printf("  %-10s %-12s %-12s %-14s %-14s %-14s\n", "(Mbps)", "(KB/s)",
              "(KB/s)", "(KB/s)", "(KB/s)", "(KB/s)");

  for (double mbps : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) {
    const double bps = mbps * 1e6;
    // "Two stock cards" = two independent single-AP paths; with our
    // per-host accounting that equals 2x the one-card result by
    // construction, so it is derived rather than separately simulated.
    const double one = stock_run(17, bps);
    const double two = 2.0 * one;
    const double spider_1ch =
        spider_run(2, 0, bps, {{1, 1.0}}, sim::Time::millis(400), 17);
    const double spider_50 =
        spider_run(1, 1, bps, {{1, 0.5}, {11, 0.5}}, sim::Time::millis(100),
                   17);
    const double spider_100 =
        spider_run(1, 1, bps, {{1, 0.5}, {11, 0.5}}, sim::Time::millis(200),
                   17);
    std::printf("  %-10.1f %-12.0f %-12.0f %-14.0f %-14.0f %-14.0f\n", mbps,
                one, two, spider_1ch, spider_50, spider_100);
  }
  std::printf(
      "\nexpected shape: Spider-1ch/2AP tracks the two-card host (2x the\n"
      "single card) across backhauls; the cross-channel schedules lag, with\n"
      "the faster 50 ms switch beating 100 ms at high backhaul (less RTO\n"
      "risk), as in the paper.\n");
  return bench::finish();
}
