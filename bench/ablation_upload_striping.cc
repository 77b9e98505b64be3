// Ablation — upload striping policy (Section 4.8: "a simple optimization
// where Spider assigns traffic to APs proportional to the available
// end-to-end bandwidth"). A static client connected to two APs with
// asymmetric backhauls uploads a large file striped across both; we
// compare equal striping against proportional striping driven by the
// client's own download-goodput estimates.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/common.h"

using namespace spider;

namespace {

enum class Policy { kEqual, kEstimate, kOracle };

// Returns completion time (s) of a 4 MB upload, or 0 if it did not finish.
double run_upload(Policy policy, std::uint64_t seed) {
  auto cfg = core::static_lab(seed, 1, 1, 4e6, sim::Time::seconds(180));
  // Second AP: same channel, much thinner backhaul.
  mobility::ApDescriptor d = cfg.aps.front();
  d.ssid = "thin";
  d.mac = net::MacAddress::from_index(0xB0);
  d.subnet = net::Ipv4Address{(10u << 24) | (0xB0u << 8)};
  d.position = {12.0, 3.0};
  d.backhaul_bps = 1e6;
  cfg.aps.push_back(d);
  cfg.spider = core::single_channel_multi_ap(1);
  bench::attach_stream(cfg);

  core::Experiment exp(std::move(cfg));
  auto& sim = exp.simulator();
  double done_at = 0.0;

  // Let downloads run for 20 s to warm the rate estimates, then upload.
  sim.schedule_after(sim::Time::seconds(20), [&, policy] {
    const auto fat = net::MacAddress::from_index(0xA0);
    const auto thin = net::MacAddress::from_index(0xB0);
    std::vector<core::FlowManager::UploadShare> shares;
    switch (policy) {
      case Policy::kEqual:
        shares = {{fat, 1, 1.0}, {thin, 1, 1.0}};
        break;
      case Policy::kEstimate:
        shares = {{fat, 1, exp.flows().download_rate_bps(fat)},
                  {thin, 1, exp.flows().download_rate_bps(thin)}};
        break;
      case Policy::kOracle:
        shares = {{fat, 1, 4.0}, {thin, 1, 1.0}};
        break;
    }
    // The bulk downloads served their purpose (warming the estimates);
    // stop them so the upload has the medium and backhauls to itself.
    exp.flows().close_flow(fat);
    exp.flows().close_flow(thin);
    exp.flows().start_striped_upload(shares, 4'000'000);
    // Poll for completion (self-owning closure; a by-reference capture of
    // a stack-local std::function would dangle).
    auto poll = std::make_shared<std::function<void()>>();
    *poll = [&exp, &sim, &done_at, poll] {
      if (exp.flows().uploads_finished() && done_at == 0.0) {
        done_at = sim.now().sec() - 20.0;
        return;
      }
      sim.schedule_after(sim::Time::millis(250), *poll);
    };
    sim.schedule_after(sim::Time::millis(250), *poll);
  });
  exp.run();
  return done_at;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  bench::print_header(
      "ablation_upload_striping",
      "DESIGN.md ablation — equal vs. proportional upload striping");
  std::printf("(4 MB upload over two APs: 4 Mbps and 1 Mbps backhauls;\n"
              " proportional weights come from the client's own download\n"
              " goodput estimates — no oracle)\n\n");
  std::printf("  %-6s %-14s %-18s %-16s\n", "seed", "equal (s)",
              "estimate-prop (s)", "oracle-prop (s)");
  trace::OnlineStats est_speedup, oracle_speedup;
  for (std::uint64_t seed : {3ULL, 5ULL, 9ULL}) {
    const double equal = run_upload(Policy::kEqual, seed);
    const double est = run_upload(Policy::kEstimate, seed);
    const double oracle = run_upload(Policy::kOracle, seed);
    std::printf("  %-6llu %-14.1f %-18.1f %-16.1f\n",
                static_cast<unsigned long long>(seed), equal, est, oracle);
    if (equal > 0 && est > 0) est_speedup.add(equal / est);
    if (equal > 0 && oracle > 0) oracle_speedup.add(equal / oracle);
  }
  std::printf("\n  mean speedup: estimate-proportional %.2fx, "
              "oracle-proportional %.2fx\n",
              est_speedup.mean(), oracle_speedup.mean());
  std::printf(
      "\nexpected shape: equal striping finishes when the THIN pipe drains\n"
      "its half; proportional striping finishes both shares together and\n"
      "completes meaningfully sooner.\n");
  return bench::finish();
}
