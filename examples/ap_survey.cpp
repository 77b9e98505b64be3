// AP survey — a war-driving style measurement pass built on the library's
// substrate: drive a route with a passive scanner (no joining), inventory
// the APs heard per channel, estimate encounter durations, and recommend
// the channel a Spider deployment should camp on.
//
//   $ ./ap_survey [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/client_device.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "mobility/deployment.h"

using namespace spider;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  core::ExperimentConfig cfg = core::amherst_drive(seed);
  const auto& aps = cfg.aps;
  const mobility::Route& route = cfg.vehicle.route();
  const double speed = cfg.vehicle.speed();
  const sim::Time horizon = cfg.duration;

  // Passive part: pure geometry — encounters per AP from the route.
  std::map<net::ChannelId, int> ap_count;
  std::map<net::ChannelId, double> coverage_sec;
  trace::EmpiricalCdf encounter_durations;
  for (const auto& ap : aps) {
    ++ap_count[ap.channel];
    for (const auto& e :
         mobility::encounters(route, speed, ap.position, 100.0, horizon)) {
      encounter_durations.add(e.duration().sec());
      coverage_sec[ap.channel] += e.duration().sec();
    }
  }

  std::printf("survey of %zu APs (seed %llu), 600 s loop at %.0f m/s\n\n",
              aps.size(), static_cast<unsigned long long>(seed), speed);
  std::printf("  %-8s %-6s %-22s\n", "channel", "APs", "coverage (AP-seconds)");
  net::ChannelId best = 1;
  for (const auto& [ch, n] : ap_count) {
    std::printf("  %-8d %-6d %-22.0f\n", ch, n, coverage_sec[ch]);
    if (coverage_sec[ch] > coverage_sec[best]) best = ch;
  }
  if (!encounter_durations.empty()) {
    std::printf("\nencounter durations: median %.1f s, p90 %.1f s "
                "(paper's town: median ~8 s)\n",
                encounter_durations.median(),
                encounter_durations.quantile(0.9));
  }
  std::printf("recommended camp channel: %d\n\n", best);

  // Active validation: run Spider on the recommended channel.
  cfg.spider = core::single_channel_multi_ap(best);
  const auto r = core::Experiment(std::move(cfg)).run();
  std::printf("validation drive on channel %d: %.1f KB/s, %.1f%% connected\n",
              best, r.avg_throughput_kBps(), r.connectivity_percent());
  return 0;
}
