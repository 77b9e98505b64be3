// The paper's worlds, defined once: the Amherst-style downtown drive and the
// denser Boston-style one (Tables 2-4, Figs. 5, 6, 10-14), the Table 2 rows
// on them, the static lab (Figs. 7-9, Table 1) and the Section 4.8
// contention fleet. Each is a pure function of its arguments; the benches,
// examples and tests that run a paper world call these instead of spelling
// the town out, and tests/scenarios_test.cc pins every one by digest.
#pragma once

#include <cstdint>

#include "core/experiment.h"

namespace spider::core {

// Downtown-core drive: ~0.35 km^2 area, 30 building sites (roughly doubled
// by clustering), rectangular loop at 10 m/s (the paper's town speeds).
ExperimentConfig amherst_drive(std::uint64_t seed,
                               sim::Time duration = sim::Time::seconds(600));

// Boston-style: denser sites, bigger clusters, slightly faster drive.
ExperimentConfig boston_drive(std::uint64_t seed,
                              sim::Time duration = sim::Time::seconds(600));

// Static-lab world with `n_aps` APs near the client (micro-benchmarks).
ExperimentConfig static_lab(std::uint64_t seed, int n_aps,
                            net::ChannelId channel, double backhaul_bps,
                            sim::Time duration = sim::Time::seconds(120));

// Table 2's rows, in the table's order: the four Spider configs on the
// Amherst drive, then the channel-6 single-AP and stock rows on Boston.
constexpr int kTable2Rows = 6;
const char* table2_label(int row);
ExperimentConfig table2_row(int row, std::uint64_t seed,
                            sim::Time duration = sim::Time::seconds(600));

// Section 4.8's contention ablation: `clients` vehicles on the Amherst town
// deployed from `seed`, every one running channel-1 multi-AP Spider. With one
// client it is Table 2's row (1).
ExperimentConfig contention_fleet(std::uint64_t seed, int clients,
                             sim::Time duration = sim::Time::seconds(600));

}  // namespace spider::core
