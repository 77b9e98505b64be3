// Tests for the Section-4.8 extensions: energy accounting, dynamic channel
// selection, multi-client fleets, and striped uploads.
#include <gtest/gtest.h>

#include <string_view>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "phy/energy.h"
#include "stream_capture.h"
#include "telemetry/stream_exporter.h"

namespace spider::core {
namespace {

// --- energy meter -------------------------------------------------------------

TEST(EnergyMeter, IdleBaseline) {
  sim::Simulator sim;
  phy::EnergyMeter meter(sim);
  sim.run_until(sim::Time::seconds(10));
  // 10 s idle at 0.740 W.
  EXPECT_NEAR(meter.total_joules(), 7.40, 0.01);
  EXPECT_EQ(meter.time_in(phy::RadioState::kIdle), sim::Time::seconds(10));
}

TEST(EnergyMeter, StateTransitionsSplitTheIntegral) {
  sim::Simulator sim;
  phy::EnergyMeter meter(sim);
  sim.run_until(sim::Time::seconds(4));
  meter.set_state(phy::RadioState::kSleep);
  sim.run_until(sim::Time::seconds(10));
  EXPECT_NEAR(meter.joules_in(phy::RadioState::kIdle), 4 * 0.740, 1e-6);
  EXPECT_NEAR(meter.joules_in(phy::RadioState::kSleep), 6 * 0.010, 1e-6);
  EXPECT_NEAR(meter.total_joules(), 4 * 0.740 + 6 * 0.010, 1e-6);
}

TEST(EnergyMeter, BurstChargesAtBurstPower) {
  sim::Simulator sim;
  phy::EnergyMeter meter(sim);
  meter.charge_burst(phy::RadioState::kTransmit, sim::Time::millis(100));
  EXPECT_NEAR(meter.joules_in(phy::RadioState::kTransmit), 0.1 * 1.340, 1e-9);
  EXPECT_EQ(meter.state(), phy::RadioState::kIdle);  // steady state unchanged
}

TEST(EnergyMeter, CustomModelRespected) {
  sim::Simulator sim;
  phy::EnergyModel model;
  model.idle_w = 0.1;
  phy::EnergyMeter meter(sim, model);
  sim.run_until(sim::Time::seconds(5));
  EXPECT_NEAR(meter.total_joules(), 0.5, 1e-9);
}

TEST(Energy, ExperimentReportsClientEnergy) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.duration = sim::Time::seconds(30);
  cfg.medium.base_loss = 0.0;
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
  ap.dhcp_offer_max = sim::Time::millis(50);
  cfg.aps = {ap};
  cfg.spider = single_channel_multi_ap(1);
  const auto r = Experiment(std::move(cfg)).run();
  // At least the idle floor; at most a radio pinned at full tx power.
  EXPECT_GT(r.client_joules, 30 * 0.7);
  EXPECT_LT(r.client_joules, 30 * 1.5);
  EXPECT_GT(r.joules_per_megabyte(), 0.0);
}

TEST(Energy, MultiChannelSwitchingCostsMoreThanCamping) {
  auto world = [](SpiderConfig sc) {
    ExperimentConfig cfg;
    cfg.seed = 9;
    cfg.duration = sim::Time::seconds(60);
    cfg.medium.base_loss = 0.0;
    cfg.medium.edge_degradation = false;
    cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
    cfg.spider = sc;  // no APs: pure scheduling cost
    return Experiment(std::move(cfg)).run();
  };
  const auto camped = world(single_channel_multi_ap(1));
  const auto rotating = world(multi_channel_multi_ap(sim::Time::millis(300)));
  // Reset time replaces idle time at equal power in our default model, so
  // energy is close; the rotating radio must not be *cheaper*, and it must
  // have spent real time in resets.
  EXPECT_GE(rotating.client_joules, camped.client_joules * 0.99);
  EXPECT_GT(rotating.channel_switches, 100u);
}

// --- dynamic channel selection --------------------------------------------------

class DynamicChannelTest : public ::testing::Test {
 protected:
  ExperimentConfig base_world() {
    ExperimentConfig cfg;
    cfg.seed = 5;
    cfg.duration = sim::Time::seconds(60);
    cfg.medium.base_loss = 0.05;
    cfg.medium.edge_degradation = false;
    cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
    return cfg;
  }

  static mobility::ApDescriptor ap_on(net::ChannelId ch, std::uint32_t index) {
    mobility::ApDescriptor d;
    d.ssid = "ap-" + std::to_string(index);
    d.mac = net::MacAddress::from_index(index);
    d.subnet = net::Ipv4Address{(10u << 24) | (index << 8)};
    d.position = {12.0 + index % 7, 0.0};
    d.channel = ch;
    d.backhaul_bps = 2e6;
    d.dhcp_offer_min = sim::Time::millis(20);
    d.dhcp_offer_max = sim::Time::millis(60);
    return d;
  }
};

TEST_F(DynamicChannelTest, RequiresSingleSliceSchedule) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1));
  ClientDevice device(medium, net::MacAddress::from_index(0xC0));
  SpiderConfig sc = multi_channel_multi_ap();
  sc.dynamic_channel = true;
  EXPECT_THROW(SpiderDriver(sim, device, sc), std::invalid_argument);
}

TEST_F(DynamicChannelTest, RecampsToPopulatedChannel) {
  // All the supply is on channel 11; the driver starts on channel 1.
  auto cfg = base_world();
  cfg.aps = {ap_on(11, 0xA0), ap_on(11, 0xA1)};
  cfg.spider = dynamic_channel_multi_ap(1);
  Experiment exp(std::move(cfg));
  const auto r = exp.run();
  EXPECT_EQ(exp.spider()->home_channel(), 11);
  EXPECT_GE(exp.spider()->recamps(), 1u);
  EXPECT_GT(r.joins.joins, 0u);
  EXPECT_GT(r.avg_throughput_kbps(), 100.0);
}

TEST_F(DynamicChannelTest, StaysPutWhenHomeIsBest) {
  auto cfg = base_world();
  cfg.aps = {ap_on(1, 0xA0), ap_on(1, 0xA1), ap_on(11, 0xB0)};
  cfg.spider = dynamic_channel_multi_ap(1);
  Experiment exp(std::move(cfg));
  exp.run();
  EXPECT_EQ(exp.spider()->home_channel(), 1);
  EXPECT_EQ(exp.spider()->recamps(), 0u);
}

TEST_F(DynamicChannelTest, DoesNotAbandonLiveConnections) {
  // Home has one AP (connected); channel 11 has three. Hysteresis would
  // allow the move, but live connections pin the radio.
  auto cfg = base_world();
  cfg.aps = {ap_on(1, 0xA0), ap_on(11, 0xB0), ap_on(11, 0xB1),
             ap_on(11, 0xB2)};
  cfg.spider = dynamic_channel_multi_ap(1);
  Experiment exp(std::move(cfg));
  const auto r = exp.run();
  EXPECT_EQ(exp.spider()->home_channel(), 1);
  EXPECT_GT(r.avg_throughput_kbps(), 0.0);
}

TEST_F(DynamicChannelTest, UtilityCountsFreshApsOnly) {
  auto cfg = base_world();
  cfg.aps = {ap_on(6, 0xA0)};
  cfg.spider = dynamic_channel_multi_ap(6);
  Experiment exp(std::move(cfg));
  exp.run();
  EXPECT_GT(exp.spider()->channel_utility(6), 0.0);
  EXPECT_DOUBLE_EQ(exp.spider()->channel_utility(11), 0.0);
}

// --- fleets ---------------------------------------------------------------------

FleetConfig small_fleet(int clients) {
  FleetConfig cfg;
  cfg.seed = 31;
  cfg.clients = clients;
  cfg.duration = sim::Time::seconds(120);
  cfg.medium.base_loss = 0.05;
  cfg.medium.edge_degradation = false;
  cfg.vehicle =
      mobility::Vehicle(mobility::Route::straight(1.0), 0.0);  // static lab
  mobility::ApDescriptor ap;
  ap.ssid = "shared";
  ap.mac = net::MacAddress::from_index(0xA0);
  ap.subnet = net::Ipv4Address(10, 1, 1, 0);
  ap.position = {10, 0};
  ap.channel = 1;
  ap.backhaul_bps = 2e6;
  ap.dhcp_offer_min = sim::Time::millis(20);
  ap.dhcp_offer_max = sim::Time::millis(60);
  cfg.aps = {ap};
  cfg.spider = single_channel_multi_ap(1);
  return cfg;
}

TEST(Fleet, RejectsEmptyFleet) {
  auto cfg = small_fleet(1);
  cfg.clients = 0;
  EXPECT_THROW(FleetExperiment{std::move(cfg)}, std::invalid_argument);
}

TEST(Fleet, EveryClientConnectsAndTransfers) {
  FleetExperiment fleet(small_fleet(3));
  const auto r = fleet.run();
  ASSERT_EQ(r.clients.size(), 3u);
  for (const auto& c : r.clients) {
    EXPECT_GT(c.joins.joins, 0u);
    EXPECT_GT(c.traffic.total_bytes, 0);
  }
}

TEST(Fleet, SharedBackhaulIsSplitRoughlyFairly) {
  FleetExperiment fleet(small_fleet(3));
  const auto r = fleet.run();
  // One 2 Mbps backhaul across three clients: aggregate bounded by it and
  // reasonably fair.
  EXPECT_LT(r.aggregate_throughput_kBps(), 2e6 / 8 / 1000 * 1.1);
  EXPECT_GT(r.fairness(), 0.6);
}

TEST(Fleet, AggregateDoesNotScaleBeyondTheBottleneck) {
  const auto one = FleetExperiment(small_fleet(1)).run();
  const auto four = FleetExperiment(small_fleet(4)).run();
  // Adding clients cannot multiply a single AP's backhaul.
  EXPECT_LT(four.aggregate_throughput_kBps(),
            1.3 * one.aggregate_throughput_kBps());
  EXPECT_LT(four.mean_client_throughput_kBps(),
            0.6 * one.mean_client_throughput_kBps());
}

TEST(Fleet, TraceEnabledRecordsJoinSpans) {
  telemetry::StreamExporter exporter;
  auto sink = std::make_shared<testutil::CaptureSink>();
  exporter.set_sink(sink);
  auto cfg = small_fleet(2);
  cfg.trace_enabled = true;
  cfg.stream = &exporter;
  FleetExperiment fleet(std::move(cfg));
  fleet.run();
  std::size_t joins = 0;
  for (const telemetry::JsonValue& span :
       testutil::parse_lines(sink->text(), "span")) {
    if (span.string_or("name", "") == "join") ++joins;
  }
  // Both clients join the shared AP at least once, so at least two spans.
  EXPECT_GE(joins, 2u);
}

// --- uploads --------------------------------------------------------------------

class UploadTest : public ::testing::Test {
 protected:
  static ExperimentConfig two_ap_lab(double bps_a, double bps_b) {
    ExperimentConfig cfg;
    cfg.seed = 13;
    cfg.duration = sim::Time::seconds(60);
    cfg.medium.base_loss = 0.02;
    cfg.medium.edge_degradation = false;
    cfg.vehicle = mobility::Vehicle(mobility::Route::straight(1.0), 0.0);
    for (int i = 0; i < 2; ++i) {
      mobility::ApDescriptor d;
      d.ssid = "up-" + std::to_string(i);
      d.mac = net::MacAddress::from_index(0xA0 + static_cast<std::uint32_t>(i));
      d.subnet = net::Ipv4Address{
          (10u << 24) | (static_cast<std::uint32_t>(0xA0 + i) << 8)};
      d.position = {10.0 + 2 * i, 0.0};
      d.channel = 1;
      d.backhaul_bps = i == 0 ? bps_a : bps_b;
      d.dhcp_offer_min = sim::Time::millis(20);
      d.dhcp_offer_max = sim::Time::millis(60);
      cfg.aps.push_back(d);
    }
    cfg.spider = single_channel_multi_ap(1);
    return cfg;
  }
};

TEST_F(UploadTest, StripedUploadCompletes) {
  Experiment exp(two_ap_lab(2e6, 2e6));
  auto& sim = exp.simulator();
  // Wait for both connections, then stripe 2 MB across them.
  sim.schedule_after(sim::Time::seconds(10), [&] {
    std::vector<FlowManager::UploadShare> shares;
    ASSERT_EQ(exp.spider()->connected_count(), 2u);
    shares.push_back({net::MacAddress::from_index(0xA0), 1, 1.0});
    shares.push_back({net::MacAddress::from_index(0xA1), 1, 1.0});
    const auto ids = exp.flows().start_striped_upload(shares, 2'000'000);
    EXPECT_EQ(ids.size(), 2u);
  });
  exp.run();
  EXPECT_TRUE(exp.flows().uploads_finished());
  EXPECT_EQ(exp.flows().upload_bytes_acked(), 2'000'000);
  EXPECT_EQ(exp.server().active_uploads(), 2u);
}

TEST_F(UploadTest, ServerAccountsUploadBytes) {
  Experiment exp(two_ap_lab(2e6, 2e6));
  auto& sim = exp.simulator();
  std::vector<std::uint64_t> ids;
  sim.schedule_after(sim::Time::seconds(10), [&] {
    ids = exp.flows().start_striped_upload(
        {{net::MacAddress::from_index(0xA0), 1, 1.0}}, 500'000);
  });
  exp.run();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(exp.server().upload_bytes(ids[0]), 500'000);
}

TEST_F(UploadTest, WeightsSplitTheBytes) {
  Experiment exp(two_ap_lab(4e6, 4e6));
  auto& sim = exp.simulator();
  std::vector<std::uint64_t> ids;
  sim.schedule_after(sim::Time::seconds(10), [&] {
    ids = exp.flows().start_striped_upload(
        {{net::MacAddress::from_index(0xA0), 1, 3.0},
         {net::MacAddress::from_index(0xA1), 1, 1.0}},
        1'000'000);
  });
  exp.run();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NEAR(static_cast<double>(exp.server().upload_bytes(ids[0])), 750'000,
              1500);
  EXPECT_NEAR(static_cast<double>(exp.server().upload_bytes(ids[1])), 250'000,
              1500);
}

TEST_F(UploadTest, DownloadRateEstimatesReflectBackhaulAsymmetry) {
  Experiment exp(two_ap_lab(4e6, 1e6));
  auto& sim = exp.simulator();
  double fast_rate = 0.0, slow_rate = 0.0;
  sim.schedule_after(sim::Time::seconds(50), [&] {
    fast_rate =
        exp.flows().download_rate_bps(net::MacAddress::from_index(0xA0));
    slow_rate =
        exp.flows().download_rate_bps(net::MacAddress::from_index(0xA1));
  });
  exp.run();
  // Concurrent flows through one radio interact (shared airtime, ack
  // clocking, bufferbloat), so the 4:1 backhaul ratio compresses; what the
  // striping policy needs is the ordering, with real margin.
  EXPECT_GT(fast_rate, 1.3 * slow_rate);
}

TEST_F(UploadTest, ZeroOrNegativeInputsYieldNoFlows) {
  Experiment exp(two_ap_lab(2e6, 2e6));
  EXPECT_TRUE(exp.flows()
                  .start_striped_upload(
                      {{net::MacAddress::from_index(0xA0), 1, 0.0}}, 1000)
                  .empty());
  EXPECT_TRUE(exp.flows()
                  .start_striped_upload(
                      {{net::MacAddress::from_index(0xA0), 1, 1.0}}, 0)
                  .empty());
}

}  // namespace
}  // namespace spider::core
