// The four paper configurations (Section 4.1) as produced by the factories,
// plus cross-checks that their knobs match the paper's description.
#include "core/configs.h"

#include <gtest/gtest.h>

namespace spider::core {
namespace {

TEST(Configs, SingleChannelMultiApIsSpiderProper) {
  const SpiderConfig c = single_channel_multi_ap(6);
  ASSERT_EQ(c.schedule.size(), 1u);
  EXPECT_EQ(c.schedule[0].channel, 6);
  EXPECT_TRUE(c.multi_ap);
  EXPECT_EQ(c.max_interfaces, 7);  // the evaluation's interface budget
  EXPECT_EQ(c.policy, ApSelectionPolicy::kJoinHistory);
  EXPECT_EQ(c.session.link_timeout, sim::Time::millis(100));
  EXPECT_EQ(c.dhcp.message_timeout, sim::Time::millis(200));
  EXPECT_FALSE(c.dynamic_channel);
  EXPECT_FALSE(c.camp_while_connected);
}

TEST(Configs, SingleChannelSingleApMimicsStock) {
  const SpiderConfig c = single_channel_single_ap(1);
  EXPECT_FALSE(c.multi_ap);
  EXPECT_EQ(c.max_interfaces, 1);
  EXPECT_EQ(c.policy, ApSelectionPolicy::kBestRssi);
  EXPECT_EQ(c.session.link_timeout, sim::Time::millis(1000));
  EXPECT_EQ(c.dhcp.message_timeout, sim::Time::seconds(1));
  EXPECT_EQ(c.dhcp.idle_after_failure, sim::Time::seconds(60));
}

TEST(Configs, MultiChannelSchedulesAreEqualSlices) {
  const SpiderConfig c = multi_channel_multi_ap(sim::Time::millis(600));
  ASSERT_EQ(c.schedule.size(), 3u);
  for (const auto& slice : c.schedule) {
    EXPECT_NEAR(slice.fraction, 1.0 / 3.0, 1e-12);
  }
  EXPECT_EQ(c.schedule[0].channel, 1);
  EXPECT_EQ(c.schedule[1].channel, 6);
  EXPECT_EQ(c.schedule[2].channel, 11);
  EXPECT_EQ(c.period, sim::Time::millis(600));
}

TEST(Configs, MultiChannelScalesJoinBudget) {
  const SpiderConfig one = single_channel_multi_ap(1);
  const SpiderConfig three = multi_channel_multi_ap();
  EXPECT_EQ(three.join_give_up, one.join_give_up * 3);
}

TEST(Configs, MultiChannelSingleApCamps) {
  const SpiderConfig c = multi_channel_single_ap();
  EXPECT_TRUE(c.camp_while_connected);
  EXPECT_FALSE(c.multi_ap);
  EXPECT_EQ(c.max_interfaces, 1);
  EXPECT_EQ(c.schedule.size(), 3u);
}

TEST(Configs, TwoChannelVariantSupported) {
  const SpiderConfig c = multi_channel_multi_ap(sim::Time::millis(400), {1, 6});
  ASSERT_EQ(c.schedule.size(), 2u);
  EXPECT_NEAR(c.schedule[0].fraction, 0.5, 1e-12);
}

TEST(Configs, DynamicChannelVariant) {
  const SpiderConfig c = dynamic_channel_multi_ap(11);
  EXPECT_TRUE(c.dynamic_channel);
  ASSERT_EQ(c.schedule.size(), 1u);
  EXPECT_EQ(c.schedule[0].channel, 11);
  EXPECT_TRUE(c.multi_ap);
}

TEST(Configs, StockDefaultsSweepAllChannels) {
  const StockDriverConfig c{};
  EXPECT_EQ(c.scan_channels.size(), 11u);
  EXPECT_EQ(kStockDhcp.idle_after_failure, sim::Time::seconds(60));
  EXPECT_EQ(kStockSession.link_timeout, sim::Time::millis(1000));
  EXPECT_EQ(kStockLinkLossTimeout, sim::Time::seconds(3));
}

}  // namespace
}  // namespace spider::core
