// Full-stack integration tests through the Experiment harness: deployment,
// mobility, driver, DHCP, TCP, and metrics all wired together.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/configs.h"
#include "core/scenarios.h"

namespace spider::core {
namespace {

mobility::ApDescriptor lab_ap(std::uint32_t index, phy::Vec2 pos,
                              net::ChannelId channel, double backhaul_bps,
                              bool dud = false) {
  mobility::ApDescriptor d;
  d.ssid = "lab-" + std::to_string(index);
  d.mac = net::MacAddress::from_index(index);
  d.subnet = net::Ipv4Address{(10u << 24) | (index << 8)};
  d.position = pos;
  d.channel = channel;
  d.backhaul_bps = backhaul_bps;
  d.dhcp_offer_min = sim::Time::millis(20);
  d.dhcp_offer_max = sim::Time::millis(100);
  d.dud = dud;
  return d;
}

ExperimentConfig static_lab() {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.duration = sim::Time::seconds(60);
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  cfg.spider = single_channel_multi_ap(1);
  return cfg;
}

TEST(Integration, StaticClientDownloadsThroughSpider) {
  ExperimentConfig cfg = static_lab();
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 3e6)};
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_EQ(r.joins.joins, 1u);
  EXPECT_EQ(r.flows_opened, 1u);
  // 3 Mbps backhaul: the 60 s average should use a healthy share of it.
  EXPECT_GT(r.avg_throughput_kbps(), 1000.0);
  EXPECT_GT(r.connectivity_percent(), 90.0);
}

TEST(Integration, TwoApsOnOneChannelRoughlyDoubleThroughput) {
  ExperimentConfig one = static_lab();
  one.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6)};
  const auto r1 = Experiment(one).run();

  ExperimentConfig two = static_lab();
  two.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6), lab_ap(0xA1, {12, 0}, 1, 2e6)};
  const auto r2 = Experiment(two).run();

  EXPECT_GT(r2.avg_throughput_kbps(), 1.6 * r1.avg_throughput_kbps());
}

TEST(Integration, AggregationNeedsMultiApMode) {
  ExperimentConfig cfg = static_lab();
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6), lab_ap(0xA1, {12, 0}, 1, 2e6)};
  cfg.spider.multi_ap = false;
  const auto single = Experiment(cfg).run();
  cfg.spider.multi_ap = true;
  const auto multi = Experiment(ExperimentConfig(cfg)).run();
  EXPECT_GT(multi.avg_throughput_kbps(), 1.5 * single.avg_throughput_kbps());
  EXPECT_EQ(single.flows_opened, 1u);
  EXPECT_EQ(multi.flows_opened, 2u);
}

TEST(Integration, DudApsDoNotProduceFlows) {
  ExperimentConfig cfg = static_lab();
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6, /*dud=*/true)};
  const auto r = Experiment(cfg).run();
  EXPECT_EQ(r.flows_opened, 0u);
  EXPECT_GT(r.joins.dhcp_attempt_failures, 0u);
  EXPECT_DOUBLE_EQ(r.avg_throughput_kbps(), 0.0);
}

TEST(Integration, MultiChannelScheduleStillJoinsAcrossChannels) {
  ExperimentConfig cfg = static_lab();
  cfg.duration = sim::Time::seconds(120);
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6), lab_ap(0xA6, {12, 0}, 6, 2e6),
             lab_ap(0xAB, {14, 0}, 11, 2e6)};
  cfg.spider = multi_channel_multi_ap(sim::Time::millis(600));
  const auto r = Experiment(cfg).run();
  EXPECT_EQ(r.flows_opened, 3u);
  EXPECT_GT(r.channel_switches, 100u);
  EXPECT_GT(r.avg_throughput_kbps(), 100.0);
}

TEST(Integration, PsmParkingPreservesFlowAcrossSwitches) {
  // One AP on channel 1, schedule splits time with channel 6 (empty):
  // the flow must survive the repeated absences thanks to PSM buffering.
  ExperimentConfig cfg = static_lab();
  cfg.duration = sim::Time::seconds(120);
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6)};
  cfg.spider = multi_channel_multi_ap(sim::Time::millis(400), {1, 6});
  const auto r = Experiment(cfg).run();
  EXPECT_EQ(r.flows_opened, 1u);  // never lost and reopened
  EXPECT_GT(r.avg_throughput_kbps(), 200.0);
}

TEST(Integration, StockDriverWorksEndToEnd) {
  ExperimentConfig cfg = static_lab();
  cfg.driver = DriverKind::kStock;
  cfg.aps = {lab_ap(0xA6, {10, 0}, 6, 2e6)};
  const auto r = Experiment(cfg).run();
  EXPECT_EQ(r.joins.joins, 1u);
  EXPECT_GT(r.avg_throughput_kbps(), 500.0);
}

TEST(Integration, SameSeedSameResult) {
  ExperimentConfig cfg = static_lab();
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6)};
  const auto a = Experiment(ExperimentConfig(cfg)).run();
  const auto b = Experiment(ExperimentConfig(cfg)).run();
  EXPECT_EQ(a.traffic.total_bytes, b.traffic.total_bytes);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.joins.joins, b.joins.joins);
}

TEST(Integration, DifferentSeedsDiffer) {
  ExperimentConfig cfg = static_lab();
  cfg.medium.base_loss = 0.1;
  cfg.aps = {lab_ap(0xA0, {10, 0}, 1, 2e6)};
  const auto a = Experiment(ExperimentConfig(cfg)).run();
  cfg.seed = 43;
  const auto b = Experiment(ExperimentConfig(cfg)).run();
  // Total bytes can tie when both runs saturate the same backhaul, but the
  // loss draws cannot coincide across seeds.
  EXPECT_NE(a.frames_lost, b.frames_lost);
}

TEST(Integration, RunTwiceThrows) {
  ExperimentConfig cfg = static_lab();
  cfg.duration = sim::Time::seconds(1);
  Experiment exp(cfg);
  exp.run();
  EXPECT_THROW(exp.run(), std::logic_error);
}

TEST(Integration, VehicleDrivePastSingleApHasBoundedConnectivity) {
  ExperimentConfig cfg = static_lab();
  cfg.duration = sim::Time::seconds(100);
  // 1 km road, AP at 500 m; 10 m/s -> in range [40 s, 60 s].
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1000.0), 10.0);
  cfg.aps = {lab_ap(0xA0, {500, 10}, 1, 3e6)};
  const auto r = Experiment(cfg).run();
  EXPECT_EQ(r.flows_opened, 1u);
  // Connected for at most the ~20 s encounter minus the join.
  EXPECT_GT(r.connectivity_percent(), 5.0);
  EXPECT_LT(r.connectivity_percent(), 25.0);
  // Disruptions recorded before and after the encounter.
  EXPECT_GE(r.traffic.disruption_durations_sec.count(), 1u);
}

TEST(Integration, MobileMultiApBeatsMobileSingleApOverDeployment) {
  // The paper's headline: on a drive through a clustered deployment, the
  // single-channel multi-AP configuration beats the stock-mimicking
  // single-AP configuration in average throughput.
  const auto rm = Experiment(table2_row(0, 21)).run();
  const auto rs = Experiment(table2_row(1, 21)).run();

  EXPECT_GT(rm.avg_throughput_kBps(), 1.5 * rs.avg_throughput_kBps());
  EXPECT_GT(rm.connectivity_percent(), rs.connectivity_percent());
}

TEST(Integration, JoinMetricsAccumulateOnDrive) {
  // The Amherst drive with the lab's medium.
  ExperimentConfig cfg = amherst_drive(5, sim::Time::seconds(300));
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.spider = single_channel_multi_ap(1);
  const auto r = Experiment(cfg).run();
  EXPECT_GT(r.joins.join_attempts, 3u);
  EXPECT_GT(r.joins.associations, 0u);
  EXPECT_GE(r.joins.join_attempts, r.joins.joins);
  if (r.joins.joins > 0) {
    EXPECT_GT(r.joins.join_delay_sec.median(), 0.0);
    EXPECT_GE(r.joins.join_delay_sec.median(),
              r.joins.association_delay_sec.median());
  }
}

}  // namespace
}  // namespace spider::core
