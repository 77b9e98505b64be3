// Focused coverage for corners the main suites don't hit: medium idle
// accounting, frame-log taps through the experiment, fleet staggering,
// metric arithmetic, and assorted small contracts.
#include <gtest/gtest.h>

#include "core/configs.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "trace/frame_log.h"

namespace spider {
namespace {

TEST(MediumIdle, NeverInThePast) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1));
  EXPECT_EQ(medium.channel_idle_at(6), sim::Time::zero());
  sim.run_until(sim::Time::seconds(3));
  EXPECT_EQ(medium.channel_idle_at(6), sim::Time::seconds(3));
}

TEST(MediumIdle, TracksSerializationQueue) {
  sim::Simulator sim;
  phy::MediumConfig cfg;
  cfg.preamble = sim::Time::micros(0);
  cfg.bitrate_bps = 8e6;  // 1 byte = 1 us
  phy::Medium medium(sim, sim::Rng(1), cfg);
  phy::Radio tx(medium, net::MacAddress::from_index(1),
                {.initial_channel = 6});
  tx.send(net::make_probe_request(tx.address()));  // 52 us airtime
  EXPECT_EQ(medium.channel_idle_at(6), sim::Time::micros(52));
  EXPECT_EQ(medium.channel_idle_at(11), sim::Time::zero());
}

TEST(MediumSniffer, SeesEveryTransmission) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1));
  int sniffed = 0;
  medium.set_sniffer([&](const net::Frame& f, net::ChannelId ch, sim::Time) {
    EXPECT_EQ(ch, 6);
    EXPECT_EQ(f.kind, net::FrameKind::kProbeRequest);
    ++sniffed;
  });
  phy::Radio tx(medium, net::MacAddress::from_index(1),
                {.initial_channel = 6});
  tx.send(net::make_probe_request(tx.address()));
  tx.send(net::make_probe_request(tx.address()));
  EXPECT_EQ(sniffed, 2);
}

TEST(ExperimentFrameLog, CapturesJoinHandshake) {
  core::ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.duration = sim::Time::seconds(20);
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
  cfg.spider = core::single_channel_multi_ap(1);

  trace::FrameLog log(100000);
  core::Experiment exp(std::move(cfg));
  exp.attach_frame_log(log);
  exp.run();

  EXPECT_GT(log.total_frames(), 100u);
  // The handshake kinds all appear on the air.
  int auth = 0, assoc = 0;
  for (const auto& r : log.entries()) {
    auth += r.kind == net::FrameKind::kAuthRequest;
    assoc += r.kind == net::FrameKind::kAssocResponse;
  }
  EXPECT_GE(auth, 1);
  EXPECT_GE(assoc, 1);
  // Bulk TCP dominates the bytes once connected.
  EXPECT_LT(log.management_byte_fraction(), 0.5);
}

TEST(FleetStaggering, ClientsStartAtDistinctPositions) {
  core::ExperimentConfig cfg;
  cfg.seed = 3;
  cfg.clients = 3;
  cfg.duration = sim::Time::seconds(1);
  cfg.vehicle = mobility::Vehicle(mobility::Route::rectangle(600, 400), 10.0);
  // Client i rides i headways ahead: phases 0 s / 20 s / 40 s are 200 m
  // apart along the loop.
  const auto p0 = cfg.vehicle.position(sim::Time::zero());
  const auto p1 = cfg.vehicle.position(core::kClientHeadway);
  const auto p2 = cfg.vehicle.position(core::kClientHeadway * 2);
  EXPECT_GT(distance(p0, p1), 100.0);
  EXPECT_GT(distance(p1, p2), 100.0);
  core::Experiment fleet(std::move(cfg));
  EXPECT_EQ(fleet.client_device(0).radio().position(), p0);
  EXPECT_EQ(fleet.client_device(1).radio().position(), p1);
  EXPECT_EQ(fleet.client_device(2).radio().position(), p2);
  const auto r = fleet.run();
  EXPECT_EQ(r.clients.size(), 3u);
}

TEST(FleetResults, FairnessFormula) {
  core::ExperimentResults r;
  r.clients.resize(2);
  r.clients[0].traffic.avg_throughput_bytes_per_sec = 100.0;
  r.clients[1].traffic.avg_throughput_bytes_per_sec = 100.0;
  EXPECT_DOUBLE_EQ(r.fairness(), 1.0);
  r.clients[1].traffic.avg_throughput_bytes_per_sec = 0.0;
  EXPECT_DOUBLE_EQ(r.fairness(), 0.5);  // Jain: all-to-one of n=2
  core::ExperimentResults empty;
  EXPECT_DOUBLE_EQ(empty.fairness(), 1.0);
}

TEST(JoinMetrics, FailureRateArithmetic) {
  core::JoinMetrics m;
  EXPECT_DOUBLE_EQ(m.dhcp_join_failure_rate(), 0.0);
  m.joins = 3;
  m.dhcp_failed_joins = 1;
  EXPECT_DOUBLE_EQ(m.dhcp_join_failure_rate(), 0.25);
  m.dhcp_attempts = 8;
  m.dhcp_attempt_failures = 2;
  EXPECT_DOUBLE_EQ(m.dhcp_failure_rate(), 0.25);
}

TEST(ExperimentResults, UnitHelpers) {
  core::ExperimentResults r;
  r.traffic.avg_throughput_bytes_per_sec = 125000.0;
  EXPECT_DOUBLE_EQ(r.avg_throughput_kbps(), 1000.0);
  EXPECT_DOUBLE_EQ(r.avg_throughput_kBps(), 125.0);
  r.traffic.connectivity_fraction = 0.42;
  EXPECT_DOUBLE_EQ(r.connectivity_percent(), 42.0);
  r.client_joules = 50.0;
  r.traffic.total_bytes = 10'000'000;
  EXPECT_DOUBLE_EQ(r.joules_per_megabyte(), 5.0);
  r.traffic.total_bytes = 0;
  EXPECT_DOUBLE_EQ(r.joules_per_megabyte(), 0.0);
}

TEST(Encounters, HorizonBoundsExits) {
  const auto r = mobility::Route::straight(1000.0);
  // Horizon ends while still inside the disc: exit clamps to horizon.
  const auto enc =
      mobility::encounters(r, 10.0, {500, 0}, 100.0, sim::Time::seconds(50));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(enc[0].exit, sim::Time::seconds(50));
}

TEST(Route, ExposesWaypoints) {
  const auto r = mobility::Route::rectangle(10, 20);
  EXPECT_EQ(r.waypoints().size(), 5u);
  EXPECT_EQ(r.wrap(), mobility::RouteWrap::kLoop);
}

TEST(Time, NegativeToString) {
  EXPECT_EQ(sim::Time::millis(-250).to_string(), "-250ms");
  EXPECT_EQ(sim::Time::seconds(-2).to_string(), "-2s");
}

TEST(ClientDeviceConfig, ProbeIntervalRespected) {
  sim::Simulator sim;
  phy::MediumConfig mcfg;
  mcfg.base_loss = 0.0;
  phy::Medium medium(sim, sim::Rng(1), mcfg);
  core::ClientDeviceConfig cfg;
  cfg.probe_interval = sim::Time::millis(100);
  core::ClientDevice device(medium, net::MacAddress::from_index(0xC0), cfg);
  sim.run_until(sim::Time::seconds(1));
  // ~10 periodic probes (plus none from switches).
  EXPECT_GE(device.radio().frames_tx(), 9u);
  EXPECT_LE(device.radio().frames_tx(), 11u);
}

TEST(StockConnection, ReportsChannelAndBssid) {
  // Compile-time/API contract: Connection aggregates both fields the flow
  // manager needs.
  core::StockDriver::Connection c{net::MacAddress::from_index(7), 11};
  EXPECT_EQ(c.bssid, net::MacAddress::from_index(7));
  EXPECT_EQ(c.channel, 11);
}

}  // namespace
}  // namespace spider
