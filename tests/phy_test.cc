#include "phy/channel.h"
#include "phy/energy.h"
#include "phy/geom.h"
#include "phy/medium.h"
#include "phy/radio.h"

#include <gtest/gtest.h>

#include <vector>

namespace spider::phy {
namespace {

// --- channel plan -------------------------------------------------------------

TEST(Channel, Validity) {
  EXPECT_TRUE(valid_channel(1));
  EXPECT_TRUE(valid_channel(11));
  EXPECT_FALSE(valid_channel(0));
  EXPECT_FALSE(valid_channel(12));
}

TEST(Channel, Orthogonality) {
  EXPECT_TRUE(orthogonal(1, 6));
  EXPECT_TRUE(orthogonal(6, 11));
  EXPECT_TRUE(orthogonal(1, 11));
  EXPECT_FALSE(orthogonal(1, 2));
  EXPECT_FALSE(orthogonal(6, 9));
  EXPECT_FALSE(orthogonal(3, 3));
}

TEST(Channel, CenterFrequencies) {
  EXPECT_DOUBLE_EQ(center_frequency_mhz(1), 2412.0);
  EXPECT_DOUBLE_EQ(center_frequency_mhz(6), 2437.0);
  EXPECT_DOUBLE_EQ(center_frequency_mhz(11), 2462.0);
}

TEST(Geom, DistanceAndNorm) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{1, 1} + Vec2{2, 3}).x, 3.0);
  EXPECT_DOUBLE_EQ((Vec2{2, 2} * 1.5).y, 3.0);
}

// --- medium/radio fixtures ----------------------------------------------------

class PhyTest : public ::testing::Test {
 protected:
  MediumConfig lossless() {
    MediumConfig cfg;
    cfg.base_loss = 0.0;
    cfg.edge_degradation = false;
    return cfg;
  }

  sim::Simulator sim_;
};

TEST_F(PhyTest, DeliveryWithinRange) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 6});
  rx.set_position({50, 0});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo& info) {
    ++received;
    EXPECT_DOUBLE_EQ(info.distance_m, 50.0);
    EXPECT_EQ(info.channel, 6);
    EXPECT_LT(info.rssi_dbm(), -40.0);
  });
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_EQ(received, 1);
}

TEST_F(PhyTest, NoDeliveryBeyondRange) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1));
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({150, 0});  // beyond the 100 m default range
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_EQ(received, 0);
}

TEST_F(PhyTest, NoDeliveryAcrossChannels) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 1});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 11});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_EQ(received, 0);
}

TEST_F(PhyTest, SwitchingRadioIsDeaf) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 6});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  rx.tune(6);  // even same-channel retune causes a reset window
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_EQ(received, 0);
}

TEST_F(PhyTest, TuneDelayMatchesConfig) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio r(medium, net::MacAddress::from_index(1),
          {.initial_channel = 1, .hardware_reset = sim::Time::millis(5)});
  sim::Time tuned_at;
  r.tune(11, [&] { tuned_at = sim_.now(); });
  EXPECT_TRUE(r.switching());
  EXPECT_EQ(r.channel(), 1);  // channel changes only after the reset
  sim_.run_all();
  EXPECT_EQ(tuned_at, sim::Time::millis(5));
  EXPECT_EQ(r.channel(), 11);
  EXPECT_FALSE(r.switching());
}

TEST_F(PhyTest, SendDuringSwitchIsDropped) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio r(medium, net::MacAddress::from_index(1));
  r.tune(6);
  EXPECT_FALSE(r.send(net::make_probe_request(r.address())));
  EXPECT_EQ(r.tx_dropped_switching(), 1u);
  sim_.run_all();
  EXPECT_TRUE(r.send(net::make_probe_request(r.address())));
}

TEST_F(PhyTest, RetuneSupersedesInFlightRetune) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio r(medium, net::MacAddress::from_index(1), {.initial_channel = 1});
  bool first_done = false;
  r.tune(6, [&] { first_done = true; });
  r.tune(11);
  sim_.run_all();
  EXPECT_FALSE(first_done);
  EXPECT_EQ(r.channel(), 11);
}

TEST_F(PhyTest, UniformLossRateApplied) {
  MediumConfig cfg;
  cfg.base_loss = 0.4;
  cfg.edge_degradation = false;
  Medium medium(sim_, sim::Rng(7), cfg);
  Radio tx(medium, net::MacAddress::from_index(1));
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({30, 0});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  // Management frames are single-shot: measured delivery should be ~60%.
  const int n = 4000;
  for (int i = 0; i < n; ++i) tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_NEAR(received / static_cast<double>(n), 0.6, 0.03);
}

TEST_F(PhyTest, ArqMakesUnicastDataNearLossless) {
  MediumConfig cfg;
  cfg.base_loss = 0.3;
  cfg.edge_degradation = false;
  cfg.data_retry_limit = 4;
  Medium medium(sim_, sim::Rng(7), cfg);
  Radio tx(medium, net::MacAddress::from_index(1));
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({30, 0});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    net::TcpSegment seg;
    seg.payload_bytes = 100;
    tx.send(net::make_tcp_frame(tx.address(), rx.address(), net::Bssid{}, seg));
  }
  sim_.run_all();
  // 0.3^5 residual loss ~ 0.24%.
  EXPECT_GT(received, 980);
}

TEST_F(PhyTest, TxFailureReportedWhenAddresseeAbsent) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 11});
  int failures = 0;
  tx.set_tx_failure_handler([&](const net::Frame& f) {
    ++failures;
    EXPECT_EQ(f.dst, rx.address());
  });
  net::TcpSegment seg;
  seg.payload_bytes = 10;
  tx.send(net::make_tcp_frame(tx.address(), rx.address(), net::Bssid{}, seg));
  sim_.run_all();
  EXPECT_EQ(failures, 1);
}

TEST_F(PhyTest, NoTxFailureForManagementFrames) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 11});
  int failures = 0;
  tx.set_tx_failure_handler([&](const net::Frame&) { ++failures; });
  tx.send(net::make_auth_request(tx.address(), rx.address()));
  sim_.run_all();
  EXPECT_EQ(failures, 0);
}

TEST_F(PhyTest, ChannelBusySerializesTransmissions) {
  // Two back-to-back frames: second delivery is one airtime later.
  MediumConfig cfg = lossless();
  cfg.preamble = sim::Time::micros(0);
  cfg.bitrate_bps = 8e6;  // 1 byte = 1 us
  Medium medium(sim_, sim::Rng(1), cfg);
  Radio tx(medium, net::MacAddress::from_index(1));
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({10, 0});
  std::vector<sim::Time> deliveries;
  rx.set_receive_handler(
      [&](const net::Frame&, const RxInfo&) { deliveries.push_back(sim_.now()); });
  tx.send(net::make_probe_request(tx.address()));  // 52 bytes -> 52 us
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], sim::Time::micros(52));
  EXPECT_EQ(deliveries[1], sim::Time::micros(104));
}

TEST_F(PhyTest, LossProbabilityCurve) {
  MediumConfig cfg;
  cfg.base_loss = 0.1;
  cfg.edge_degradation = true;
  cfg.edge_start = 0.75;
  Medium medium(sim_, sim::Rng(1), cfg);
  EXPECT_DOUBLE_EQ(medium.loss_probability(10.0), 0.1);
  EXPECT_DOUBLE_EQ(medium.loss_probability(75.0), 0.1);
  EXPECT_GT(medium.loss_probability(90.0), 0.1);
  EXPECT_LT(medium.loss_probability(90.0), 1.0);
  EXPECT_DOUBLE_EQ(medium.loss_probability(101.0), 1.0);
  // Monotone toward the edge.
  EXPECT_LT(medium.loss_probability(85.0), medium.loss_probability(95.0));
}

TEST_F(PhyTest, DetachedRadioGetsNothing) {
  Medium medium(sim_, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1));
  int received = 0;
  {
    Radio rx(medium, net::MacAddress::from_index(2));
    rx.set_position({10, 0});
    rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
    tx.send(net::make_probe_request(tx.address()));
    sim_.run_all();
    EXPECT_EQ(received, 1);
  }  // rx destroyed -> detached
  tx.send(net::make_probe_request(tx.address()));
  sim_.run_all();
  EXPECT_EQ(received, 1);
}

// A metered receiver charges each reception the airtime the medium computed
// for the transmission: its receive time is the sum of the delivered frames'
// airtimes, and its joules sum receive power times each airtime in delivery
// order, exactly as when the radio recomputed the airtime from the frame.
TEST_F(PhyTest, MeteredReceptionChargesTheTransmissionsAirtime) {
  MediumConfig cfg;
  cfg.base_loss = 0.3;
  cfg.edge_degradation = false;
  Medium medium(sim_, sim::Rng(3), cfg);
  Radio tx(medium, net::MacAddress::from_index(1));
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({20, 0});
  EnergyMeter meter(sim_);
  rx.attach_energy_meter(&meter);
  const double receive_w = EnergyModel{}.receive_w;
  int received = 0;
  sim::Time airtime_sum = sim::Time::zero();
  double joules = 0.0;
  rx.set_receive_handler([&](const net::Frame& frame, const RxInfo& info) {
    const sim::Time airtime =
        cfg.preamble + sim::transmission_time(frame.size_bytes, cfg.bitrate_bps);
    EXPECT_EQ(info.airtime, airtime);
    ++received;
    airtime_sum += airtime;
    joules += receive_w * airtime.sec();
  });
  for (int i = 0; i < 200; ++i) {
    net::Frame frame = net::make_probe_request(tx.address());
    frame.size_bytes = 40 + 37 * (i % 41);
    tx.send(std::move(frame));
  }
  sim_.run_all();
  EXPECT_GT(received, 100);
  EXPECT_LT(received, 200);
  EXPECT_EQ(meter.time_in(RadioState::kReceive), airtime_sum);
  EXPECT_EQ(meter.joules_in(RadioState::kReceive), joules);
}

}  // namespace
}  // namespace spider::phy
