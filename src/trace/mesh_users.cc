#include "trace/mesh_users.h"

namespace spider::trace {
namespace {

// Connection durations: lognormal. exp(mu) is the median in seconds.
constexpr double kDurationMu = 2.0;  // median ~7.4 s
constexpr double kDurationSigma = 1.3;
// Inter-connection gaps: lognormal, heavier tail.
constexpr double kGapMu = 2.7;  // median ~15 s
constexpr double kGapSigma = 1.5;

}  // namespace

MeshUserDemand generate_mesh_demand(sim::Rng rng, MeshUserConfig config) {
  MeshUserDemand demand;
  for (int u = 0; u < config.users; ++u) {
    auto user_rng = rng.fork(static_cast<std::uint64_t>(u));
    for (int f = 0; f < config.flows_per_user; ++f) {
      demand.connection_durations_sec.add(
          user_rng.lognormal(kDurationMu, kDurationSigma));
      demand.inter_connection_sec.add(
          user_rng.lognormal(kGapMu, kGapSigma));
    }
  }
  return demand;
}

}  // namespace spider::trace
