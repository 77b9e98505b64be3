// Commute comparison — the scenario from the paper's introduction: a user
// wants streaming-grade connectivity while riding through town. We drive
// the same 20-minute downtown loop four times — stock Wi-Fi, Spider
// single-AP, Spider multi-AP single-channel, Spider multi-channel — and
// report what each delivers against an audio-streaming budget.
//
//   $ ./commute_comparison [seed]
#include <cstdio>
#include <cstdlib>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/scenarios.h"

using namespace spider;

namespace {

void report(const char* name, const core::ExperimentResults& r) {
  // A 128 kb/s stream needs 16 KB/s *sustained*; with buffering, the
  // average throughput and the disruption tail decide listenability.
  const double avg = r.avg_throughput_kBps();
  const bool stream_ok =
      avg >= 16.0 && !r.traffic.disruption_durations_sec.empty() &&
      r.traffic.disruption_durations_sec.quantile(0.9) <= 120.0;
  std::printf("  %-32s %7.1f KB/s  %5.1f%% connected", name, avg,
              r.connectivity_percent());
  if (!r.traffic.disruption_durations_sec.empty()) {
    std::printf("  p90 outage %5.0f s",
                r.traffic.disruption_durations_sec.quantile(0.9));
  }
  std::printf("  128kbps stream (buffered): %s\n", stream_ok ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  std::printf("20-minute downtown loop at 10 m/s, seed %llu\n\n",
              static_cast<unsigned long long>(seed));

  {
    auto cfg = core::amherst_drive(seed, sim::Time::seconds(1200));
    cfg.driver = core::DriverKind::kStock;
    report("stock Wi-Fi", core::Experiment(std::move(cfg)).run());
  }
  {
    auto cfg = core::amherst_drive(seed, sim::Time::seconds(1200));
    cfg.spider = core::single_channel_single_ap(1);
    report("Spider: ch1, single AP", core::Experiment(std::move(cfg)).run());
  }
  {
    auto cfg = core::amherst_drive(seed, sim::Time::seconds(1200));
    cfg.spider = core::single_channel_multi_ap(1);
    report("Spider: ch1, multi-AP", core::Experiment(std::move(cfg)).run());
  }
  {
    auto cfg = core::amherst_drive(seed, sim::Time::seconds(1200));
    cfg.spider = core::multi_channel_multi_ap();
    report("Spider: 3 channels, multi-AP",
           core::Experiment(std::move(cfg)).run());
  }

  std::printf(
      "\nreading: multi-AP on one channel maximizes throughput; the\n"
      "three-channel schedule trades throughput for shorter outages.\n");
  return 0;
}
