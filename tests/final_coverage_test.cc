// Last-mile coverage: the offered-bandwidth selection path, multi-channel
// fleets, and a handful of remaining contracts.
#include <gtest/gtest.h>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "phy/medium.h"

namespace spider::core {
namespace {

TEST(OfferedBandwidthPolicy, StillJoinsAndTransfers) {
  ExperimentConfig cfg;
  cfg.seed = 8;
  cfg.duration = sim::Time::seconds(60);
  cfg.medium.base_loss = 0.02;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  mobility::ApDescriptor ap;
  ap.ssid = "lab";
  ap.mac = net::MacAddress::from_index(0xA0);
  ap.subnet = net::Ipv4Address(10, 1, 1, 0);
  ap.position = {10, 0};
  ap.channel = 1;
  ap.backhaul_bps = 2e6;
  ap.dhcp_offer_min = sim::Time::millis(20);
  ap.dhcp_offer_max = sim::Time::millis(60);
  cfg.aps = {ap};
  cfg.spider = single_channel_multi_ap(1);
  cfg.spider.policy = ApSelectionPolicy::kOfferedBandwidth;
  const auto r = Experiment(std::move(cfg)).run();
  EXPECT_EQ(r.joins.joins, 1u);
  EXPECT_GT(r.avg_throughput_kbps(), 500.0);
}

TEST(FleetMultiChannel, RunsWithRotatingSchedules) {
  FleetConfig cfg;
  cfg.seed = 5;
  cfg.clients = 2;
  cfg.duration = sim::Time::seconds(120);
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  for (net::ChannelId ch : {1, 6}) {
    mobility::ApDescriptor ap;
    ap.ssid = "fleet-" + std::to_string(ch);
    ap.mac = net::MacAddress::from_index(0xA0 + static_cast<std::uint32_t>(ch));
    ap.subnet = net::Ipv4Address{
        (10u << 24) | (static_cast<std::uint32_t>(0xA0 + ch) << 8)};
    ap.position = {10.0 + ch, 0.0};
    ap.channel = ch;
    ap.backhaul_bps = 2e6;
    ap.dhcp_offer_min = sim::Time::millis(20);
    ap.dhcp_offer_max = sim::Time::millis(60);
    cfg.aps.push_back(ap);
  }
  cfg.spider = multi_channel_multi_ap(sim::Time::millis(400), {1, 6});
  FleetExperiment fleet(std::move(cfg));
  const auto r = fleet.run();
  ASSERT_EQ(r.clients.size(), 2u);
  for (const auto& c : r.clients) {
    EXPECT_GT(c.joins.joins, 0u);
    EXPECT_GT(c.traffic.total_bytes, 0);
  }
}

TEST(DynamicChannelRecamp, DropsStaleJoiningInterfaces) {
  // APs only on ch11, plus a dud on ch1 keeping a joining interface busy:
  // the re-camp to ch11 must clear the ch1 interface.
  ExperimentConfig cfg;
  cfg.seed = 12;
  cfg.duration = sim::Time::seconds(60);
  cfg.medium.base_loss = 0.02;
  cfg.medium.edge_degradation = false;
  cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
  auto mk = [](net::ChannelId ch, std::uint32_t idx, bool dud) {
    mobility::ApDescriptor d;
    d.ssid = "d-" + std::to_string(idx);
    d.mac = net::MacAddress::from_index(idx);
    d.subnet = net::Ipv4Address{(10u << 24) | (idx << 8)};
    d.position = {12, 0};
    d.channel = ch;
    d.backhaul_bps = 2e6;
    d.dhcp_offer_min = sim::Time::millis(20);
    d.dhcp_offer_max = sim::Time::millis(60);
    d.dud = dud;
    return d;
  };
  cfg.aps = {mk(1, 0xD0, true), mk(11, 0xB0, false), mk(11, 0xB1, false)};
  cfg.spider = dynamic_channel_multi_ap(1);
  Experiment exp(std::move(cfg));
  const auto r = exp.run();
  EXPECT_EQ(exp.spider()->home_channel(), 11);
  // Only ch11 interfaces remain, and they are connected.
  EXPECT_EQ(exp.spider()->connected_count(), 2u);
  EXPECT_GT(r.avg_throughput_kbps(), 100.0);
}

TEST(ExperimentConfigDefaults, MatchPaperEnvironment) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.backhaul_latency, sim::Time::millis(100));  // RTT ~200 ms
  EXPECT_EQ(cfg.duration, sim::Time::seconds(1800));        // 30-min drives
  phy::MediumConfig m;
  EXPECT_DOUBLE_EQ(m.range_m, 100.0);
  EXPECT_DOUBLE_EQ(m.base_loss, 0.10);
  EXPECT_DOUBLE_EQ(m.bitrate_bps, 11e6);
  EXPECT_TRUE(m.edge_degradation);
}

}  // namespace
}  // namespace spider::core
