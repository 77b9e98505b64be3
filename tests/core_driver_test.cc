#include "core/spider_driver.h"
#include "core/stock_driver.h"

#include <gtest/gtest.h>

#include <memory>

#include "backhaul/ap_host.h"
#include "core/configs.h"
#include "phy/medium.h"
#include "tcp/tcp.h"

namespace spider::core {
namespace {

// A static lab world: client at the origin, APs nearby, no mobility.
class DriverTest : public ::testing::Test {
 protected:
  DriverTest() {
    phy::MediumConfig mcfg;
    mcfg.base_loss = 0.0;
    mcfg.edge_degradation = false;
    medium_ = std::make_unique<phy::Medium>(sim_, sim::Rng(1), mcfg);
    server_ = std::make_unique<tcp::ContentServer>(sim_);
    device_ = std::make_unique<ClientDevice>(
        *medium_, net::MacAddress::from_index(0xC0),
        ClientDeviceConfig{.radio = {.initial_channel = 1}});
  }

  backhaul::ApHost& add_ap(net::ChannelId channel, std::uint32_t index,
                           bool dud = false) {
    backhaul::ApHostConfig cfg;
    cfg.ap.channel = channel;
    cfg.ap.ssid = "lab-" + std::to_string(index);
    cfg.ap.response_delay_min = sim::Time::millis(1);
    cfg.ap.response_delay_max = sim::Time::millis(3);
    cfg.dhcp.offer_delay_min = sim::Time::millis(10);
    cfg.dhcp.offer_delay_max = sim::Time::millis(30);
    cfg.dhcp.responsive = !dud;
    cfg.backhaul.rate_bps = 2e6;
    auto host = std::make_unique<backhaul::ApHost>(
        *medium_, *server_, net::MacAddress::from_index(index),
        phy::Vec2{15, 0},
        net::Ipv4Address{(10u << 24) | (index << 8)}, sim::Rng(index), cfg);
    host->start();
    hosts_.push_back(std::move(host));
    return *hosts_.back();
  }

  SpiderDriver& make_driver(SpiderConfig cfg) {
    driver_ = std::make_unique<SpiderDriver>(sim_, *device_, cfg);
    return *driver_;
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<tcp::ContentServer> server_;
  std::unique_ptr<ClientDevice> device_;
  std::vector<std::unique_ptr<backhaul::ApHost>> hosts_;
  std::unique_ptr<SpiderDriver> driver_;
};

TEST_F(DriverTest, RejectsEmptyOrInvalidSchedule) {
  SpiderConfig cfg;
  cfg.schedule = {};
  EXPECT_THROW(SpiderDriver(sim_, *device_, cfg), std::invalid_argument);
  cfg.schedule = {{1, 0.0}};
  EXPECT_THROW(SpiderDriver(sim_, *device_, cfg), std::invalid_argument);
}

TEST_F(DriverTest, NormalizesScheduleFractions) {
  SpiderConfig cfg;
  cfg.schedule = {{1, 2.0}, {6, 2.0}};
  auto& driver = make_driver(cfg);
  EXPECT_DOUBLE_EQ(driver.config().schedule[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(driver.config().schedule[1].fraction, 0.5);
}

TEST_F(DriverTest, JoinsApAndReportsConnection) {
  add_ap(1, 0xA0);
  auto& driver = make_driver(single_channel_multi_ap(1));
  int connections = 0;
  driver.set_connection_handler([&](net::Bssid bssid, net::ChannelId channel) {
    EXPECT_EQ(channel, 1);
    const VirtualInterface* vif = driver.find_interface(bssid);
    ASSERT_NE(vif, nullptr);
    EXPECT_EQ(vif->state(), VirtualInterface::State::kConnected);
    ++connections;
  });
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_EQ(connections, 1);
  EXPECT_EQ(driver.connected_count(), 1u);
  EXPECT_EQ(driver.metrics().joins, 1u);
  EXPECT_EQ(driver.metrics().associations, 1u);
  EXPECT_GT(driver.metrics().join_delay_sec.quantile(0.5), 0.0);
}

TEST_F(DriverTest, MultiApJoinsEverythingOnChannel) {
  add_ap(1, 0xA0);
  add_ap(1, 0xA1);
  add_ap(1, 0xA2);
  auto& driver = make_driver(single_channel_multi_ap(1));
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_EQ(driver.connected_count(), 3u);
}

TEST_F(DriverTest, SingleApModeHoldsOneInterface) {
  add_ap(1, 0xA0);
  add_ap(1, 0xA1);
  SpiderConfig cfg = single_channel_multi_ap(1);
  cfg.multi_ap = false;
  auto& driver = make_driver(cfg);
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_EQ(driver.interface_count(), 1u);
}

TEST_F(DriverTest, MaxInterfacesRespected) {
  for (std::uint32_t i = 0; i < 5; ++i) add_ap(1, 0xA0 + i);
  SpiderConfig cfg = single_channel_multi_ap(1);
  cfg.max_interfaces = 2;
  auto& driver = make_driver(cfg);
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_LE(driver.interface_count(), 2u);
}

TEST_F(DriverTest, IgnoresApsOnUnscheduledChannels) {
  add_ap(6, 0xA6);
  auto& driver = make_driver(single_channel_multi_ap(1));
  driver.start();
  sim_.run_for(sim::Time::seconds(3));
  EXPECT_EQ(driver.interface_count(), 0u);
}

TEST_F(DriverTest, MultiChannelScheduleVisitsAllChannels) {
  auto& driver = make_driver(multi_channel_multi_ap(sim::Time::millis(600)));
  driver.start();
  sim_.run_for(sim::Time::seconds(6));
  // Equal thirds: each channel should have accrued ~2 s (minus resets).
  for (net::ChannelId ch : {1, 6, 11}) {
    EXPECT_NEAR(driver.channel_airtime(ch).sec(), 2.0, 0.3) << "ch " << ch;
  }
  EXPECT_GT(device_->switches(), 25u);
}

TEST_F(DriverTest, SingleChannelNeverRotates) {
  add_ap(1, 0xA0);
  auto& driver = make_driver(single_channel_multi_ap(1));
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  // At most the initial tune (zero if the radio already sat on channel 1).
  EXPECT_LE(device_->switches(), 1u);
  EXPECT_NEAR(driver.channel_airtime(1).sec(), 5.0, 0.1);
}

TEST_F(DriverTest, DudApGetsAbandonedAndPenalized) {
  auto& dud = add_ap(1, 0xA0, /*dud=*/true);
  SpiderConfig cfg = single_channel_multi_ap(1);
  cfg.join_give_up = sim::Time::seconds(2);
  auto& driver = make_driver(cfg);
  driver.start();
  sim_.run_for(sim::Time::seconds(10));
  EXPECT_EQ(driver.connected_count(), 0u);
  EXPECT_GT(driver.metrics().dhcp_attempt_failures, 0u);
  const ApRecord* rec = driver.history().find(dud.ap().address());
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->join_attempts, 1u);  // re-tried after give-up
  EXPECT_EQ(rec->join_successes, 0u);
}

TEST_F(DriverTest, HistoryPolicyPrefersProvenAp) {
  add_ap(1, 0xA0, /*dud=*/true);
  add_ap(1, 0xA1);
  SpiderConfig cfg = single_channel_multi_ap(1);
  cfg.multi_ap = false;  // forced to choose
  cfg.join_give_up = sim::Time::seconds(2);
  auto& driver = make_driver(cfg);
  driver.start();
  sim_.run_for(sim::Time::seconds(30));
  // After enough churn the single interface should settle on the good AP.
  EXPECT_EQ(driver.connected_count(), 1u);
  const VirtualInterface* vif =
      driver.find_interface(net::MacAddress::from_index(0xA1));
  ASSERT_NE(vif, nullptr);
  EXPECT_EQ(vif->state(), VirtualInterface::State::kConnected);
}

TEST_F(DriverTest, LinkLossReapsDeadAp) {
  add_ap(1, 0xA0);
  auto& driver = make_driver(single_channel_multi_ap(1));
  net::Bssid disconnected;
  driver.set_disconnection_handler([&](net::Bssid b) { disconnected = b; });
  driver.start();
  sim_.run_for(sim::Time::seconds(5));
  ASSERT_EQ(driver.connected_count(), 1u);
  // The AP vanishes (car drove away / AP powered off).
  const net::Bssid bssid = hosts_[0]->ap().address();
  hosts_.clear();
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_EQ(driver.connected_count(), 0u);
  EXPECT_EQ(disconnected, bssid);
}

TEST_F(DriverTest, CampModeStopsRotatingWhileConnected) {
  add_ap(1, 0xA0);
  auto& driver = make_driver(multi_channel_single_ap(sim::Time::millis(600)));
  driver.start();
  sim_.run_for(sim::Time::seconds(20));
  ASSERT_EQ(driver.connected_count(), 1u);
  const auto switches_when_connected = device_->switches();
  sim_.run_for(sim::Time::seconds(10));
  // Camping: no further channel switches while the connection lives.
  EXPECT_EQ(device_->switches(), switches_when_connected);
  EXPECT_EQ(device_->channel(), 1);
}

TEST_F(DriverTest, CampModeResumesRotationAfterLoss) {
  add_ap(1, 0xA0);
  auto& driver = make_driver(multi_channel_single_ap(sim::Time::millis(600)));
  driver.start();
  sim_.run_for(sim::Time::seconds(20));
  ASSERT_EQ(driver.connected_count(), 1u);
  hosts_.clear();  // AP gone
  const auto before = device_->switches();
  sim_.run_for(sim::Time::seconds(10));
  EXPECT_GT(device_->switches(), before + 5);  // rotating again
}

TEST_F(DriverTest, SwitchLatencyReportedInTableOneRange) {
  auto& driver = make_driver(multi_channel_multi_ap(sim::Time::millis(600)));
  driver.start();
  sim_.run_for(sim::Time::seconds(2));
  const sim::Time latency = driver.last_switch_latency();
  EXPECT_GE(latency, sim::Time::micros(4900));
  EXPECT_LE(latency, sim::Time::millis(8));
}

TEST_F(DriverTest, StockDriverScansJoinsAndCamps) {
  add_ap(6, 0xA6);
  StockDriver stock(sim_, *device_, StockDriverConfig{});
  int connections = 0;
  stock.set_connection_handler([&](net::Bssid bssid, net::ChannelId channel) {
    EXPECT_EQ(bssid, net::MacAddress::from_index(0xA6));
    EXPECT_EQ(channel, 6);
    ++connections;
  });
  stock.start();
  sim_.run_for(sim::Time::seconds(15));
  EXPECT_EQ(connections, 1);
  EXPECT_TRUE(stock.connected());
  EXPECT_EQ(device_->channel(), 6);
  EXPECT_EQ(stock.metrics().joins, 1u);
}

TEST_F(DriverTest, StockDriverRescansAfterLoss) {
  add_ap(6, 0xA6);
  StockDriver stock(sim_, *device_, StockDriverConfig{});
  int disconnections = 0;
  stock.set_disconnection_handler([&](net::Bssid) { ++disconnections; });
  stock.start();
  sim_.run_for(sim::Time::seconds(15));
  ASSERT_TRUE(stock.connected());
  hosts_.clear();
  sim_.run_for(sim::Time::seconds(15));
  EXPECT_FALSE(stock.connected());
  EXPECT_EQ(disconnections, 1);
}

TEST_F(DriverTest, StockDriverPrefersStrongerSignal) {
  auto& far = add_ap(6, 0xA6);
  (void)far;
  // A second AP, much closer.
  backhaul::ApHostConfig cfg;
  cfg.ap.channel = 11;
  cfg.ap.response_delay_min = sim::Time::millis(1);
  cfg.ap.response_delay_max = sim::Time::millis(3);
  cfg.dhcp.offer_delay_min = sim::Time::millis(10);
  cfg.dhcp.offer_delay_max = sim::Time::millis(30);
  auto near = std::make_unique<backhaul::ApHost>(
      *medium_, *server_, net::MacAddress::from_index(0xB0), phy::Vec2{2, 0},
      net::Ipv4Address{(10u << 24) | (0xB0u << 8)}, sim::Rng(0xB0), cfg);
  near->start();
  StockDriver stock(sim_, *device_, StockDriverConfig{});
  stock.start();
  sim_.run_for(sim::Time::seconds(15));
  ASSERT_TRUE(stock.connected());
  EXPECT_EQ(stock.current_ap(), near->ap().address());
}

}  // namespace
}  // namespace spider::core
