// Fig. 4 — Maximum aggregated bandwidth per channel vs. node speed for the
// paper's three two-channel scenarios (offered splits 25/75, 50/50, 75/25 of
// Bw = 11 Mbps), solved with the Eq. 8-10 optimizer. For every scenario
// there is a dividing speed above which the optimal schedule abandons the
// to-be-joined channel.
//
// Calibration note (documented in EXPERIMENTS.md): with the paper's nominal
// 100 m range the dividing speeds land at ~15-29 m/s; using the *effective*
// range implied by the paper's own measured encounter durations (median 8 s
// at town speeds -> ~50 m) brings them into the <=10-15 m/s band the paper
// reports. Both are printed.
#include <cstdio>

#include "bench/common.h"
#include "model/throughput_opt.h"

using namespace spider;

int main(int argc, char** argv) {
  bench::reject_flags(argc, argv);
  bench::print_header("fig4_dividing_speed",
                      "Fig. 4 — optimal per-channel bandwidth vs. speed");

  model::OptimizerParams op;
  op.join.beta_max = 10.0;  // paper's Fig. 4 parameters
  const double Bw = op.wireless_bps;

  struct Scenario {
    double joined_share;     // channel 1, already joined
    double available_share;  // channel 2, pending join
  };
  const Scenario scenarios[] = {{0.25, 0.75}, {0.50, 0.50}, {0.75, 0.25}};
  const double speeds[] = {2.5, 3.3, 5.0, 6.6, 10.0, 20.0};

  for (double range : {100.0, 50.0}) {
    std::printf("\n--- effective Wi-Fi range %.0f m ---\n", range);
    for (const auto& s : scenarios) {
      const model::ChannelOffer ch1{s.joined_share * Bw, 0.0};
      const model::ChannelOffer ch2{0.0, s.available_share * Bw};
      std::printf("scenario: ch1 joined %.0f%%Bw, ch2 available %.0f%%Bw\n",
                  100 * s.joined_share, 100 * s.available_share);
      std::printf("  %-10s %-8s %-12s %-12s\n", "speed m/s", "T (s)",
                  "ch1 (kbps)", "ch2 (kbps)");
      for (double v : speeds) {
        op.time_in_range = model::time_in_range_for_speed(v, range);
        const auto a = model::optimize_two_channels(op, ch1, ch2);
        std::printf("  %-10.1f %-8.1f %-12.0f %-12.0f\n", v, op.time_in_range,
                    a.extracted_bps[0] / 1e3, a.extracted_bps[1] / 1e3);
      }
      const double dividing =
          model::dividing_speed(op, ch1, ch2, range, 0.5, 60.0, 0.05, 0.05);
      std::printf("  dividing speed (f2 < 5%%): %.1f m/s\n\n", dividing);
    }
  }
  std::printf(
      "expected shape: ch2's extraction shrinks with speed and vanishes\n"
      "above the dividing speed; the dividing speed drops as the already-\n"
      "joined share grows (paper: below ~10 m/s for most scenarios).\n");
  return 0;
}
