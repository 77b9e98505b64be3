// The paper worlds of core/scenarios.h, pinned. Every bench, example and
// test that runs a paper world builds it from the catalogue, so an edit that
// moves one of them fails here instead of silently shifting every figure.
// A deliberate physics change re-pins these digests in the same change.
#include "core/scenarios.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace spider::core {
namespace {

constexpr sim::Time kPinSpan = sim::Time::seconds(60);

std::uint64_t digest_of(const ExperimentConfig& cfg) {
  Experiment exp(cfg);
  exp.run();
  return exp.simulator().digest();
}

TEST(Scenarios, PaperWorldsArePinned) {
  // 60 s tells every world apart; at 20 s rows (1)/(2) and (3)/(4) still
  // share digests.
  constexpr std::uint64_t kRowDigests[kTable2Rows] = {
      0x847f9212e92fac50ull, 0x8b7571c33a42dbffull, 0x3f0095fcc710e47cull,
      0xa4794fc671f3796bull, 0x4983ecd9d25a4fadull, 0x677378c39c62722cull};
  for (int row = 0; row < kTable2Rows; ++row) {
    const ExperimentConfig cfg = table2_row(row, 1, kPinSpan);
    EXPECT_EQ(cfg.aps.size(), row < 4 ? 71u : 108u) << table2_label(row);
    EXPECT_EQ(digest_of(cfg), kRowDigests[row]) << table2_label(row);
  }

  const ExperimentConfig lab = static_lab(1, 2, 1, 5e6, kPinSpan);
  EXPECT_EQ(lab.aps.size(), 2u);
  EXPECT_EQ(digest_of(lab), 0x604f40b1cd48c921ull) << "static lab";

  const ExperimentConfig fleet = contention_fleet(1, 4, kPinSpan);
  EXPECT_EQ(fleet.aps.size(), 71u);
  EXPECT_EQ(digest_of(fleet), 0x23ea6aa924965a24ull) << "contention fleet";
}

TEST(Scenarios, OneClientContentionFleetIsTable2RowOne) {
  // A fleet of one is exactly the single-client drive it generalizes.
  const sim::Time span = sim::Time::seconds(120);
  Experiment drive(table2_row(0, 7, span));
  const ExperimentResults d = drive.run();
  Experiment fleet(contention_fleet(7, 1, span));
  const ExperimentResults f = fleet.run();
  ASSERT_EQ(f.clients.size(), 1u);
  EXPECT_EQ(fleet.simulator().digest(), drive.simulator().digest());
  EXPECT_EQ(f.clients[0].traffic.total_bytes, d.traffic.total_bytes);
  EXPECT_EQ(f.clients[0].joins.joins, d.joins.joins);
  EXPECT_EQ(f.clients[0].joins.join_attempts, d.joins.join_attempts);
  EXPECT_GT(d.joins.joins, 0u);
}

}  // namespace
}  // namespace spider::core
