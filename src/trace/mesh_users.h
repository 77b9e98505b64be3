// Synthetic stand-in for the paper's downtown-mesh user dataset.
//
// Section 4.7 compares Spider's supply against demand measured from 161
// wireless users on a 25-node mesh (128,587 TCP connections over one day).
// That trace is not public, so we generate a synthetic population with the
// same qualitative shape: heavy-tailed TCP connection durations (most flows
// are short HTTP transfers, a tail of long sessions) and heavy-tailed
// inter-connection gaps. Parameters are chosen so that the generated CDFs
// match the coordinates readable from Figs. 13/14: roughly 80% of user
// connections complete within 30 s, and roughly 75% of inter-connection
// gaps are under 60 s.
#pragma once

#include <cstdint>

#include "sim/random.h"
#include "trace/stats.h"

namespace spider::trace {

struct MeshUserConfig {
  int users = 161;
  int flows_per_user = 800;  // ~129k flows total, matching the dataset scale
};

struct MeshUserDemand {
  EmpiricalCdf connection_durations_sec;  // Fig. 13's "users" curve
  EmpiricalCdf inter_connection_sec;      // Fig. 14's "user inter-connection"
};

MeshUserDemand generate_mesh_demand(sim::Rng rng, MeshUserConfig config = {});

}  // namespace spider::trace
