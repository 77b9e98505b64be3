#include "core/client_device.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/access_point.h"
#include "phy/medium.h"
#include "phy/radio.h"

namespace spider::core {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() {
    phy::MediumConfig cfg;
    cfg.base_loss = 0.0;
    cfg.edge_degradation = false;
    medium_ = std::make_unique<phy::Medium>(sim_, sim::Rng(1), cfg);
    device_ = std::make_unique<ClientDevice>(
        *medium_, net::MacAddress::from_index(0xC0),
        ClientDeviceConfig{.radio = {.initial_channel = 1}});
  }

  std::unique_ptr<mac::AccessPoint> make_ap(net::ChannelId channel,
                                            std::uint32_t index = 0xA0) {
    mac::AccessPointConfig cfg;
    cfg.channel = channel;
    cfg.ssid = "ap-" + std::to_string(index);
    cfg.response_delay_min = sim::Time::millis(1);
    cfg.response_delay_max = sim::Time::millis(2);
    auto ap = std::make_unique<mac::AccessPoint>(
        *medium_, net::MacAddress::from_index(index), phy::Vec2{10, 0},
        sim::Rng(index), cfg);
    ap->start();
    return ap;
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Medium> medium_;
  std::unique_ptr<ClientDevice> device_;
};

TEST_F(DeviceTest, ScanTableFillsFromBeacons) {
  auto ap = make_ap(1);
  sim_.run_for(sim::Time::millis(300));
  const auto results = device_->scan_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].bssid, ap->address());
  EXPECT_EQ(results[0].channel, 1);
  EXPECT_LT(results[0].rssi_dbm, 0.0);

  // Fill the rest of the table out of bssid order: a higher bssid first,
  // then a lower one. Results still come back in bssid order.
  auto high = make_ap(1, 0xA9);
  sim_.run_for(sim::Time::millis(300));
  auto low = make_ap(1, 0x90);
  sim_.run_for(sim::Time::millis(300));
  const auto ordered = device_->scan_results();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].bssid, low->address());
  EXPECT_EQ(ordered[1].bssid, ap->address());
  EXPECT_EQ(ordered[2].bssid, high->address());
}

TEST_F(DeviceTest, ScanResultsFilterByChannel) {
  auto ap1 = make_ap(1, 0xA0);
  auto ap2 = make_ap(1, 0xA1);
  sim_.run_for(sim::Time::millis(300));
  EXPECT_EQ(device_->scan_results(1).size(), 2u);
  EXPECT_EQ(device_->scan_results(6).size(), 0u);
}

TEST_F(DeviceTest, StaleScanEntriesExpire) {
  {
    auto ap = make_ap(1);
    sim_.run_for(sim::Time::millis(300));
    EXPECT_EQ(device_->scan_results().size(), 1u);
  }  // AP destroyed: no more beacons
  sim_.run_for(sim::Time::seconds(5));
  EXPECT_EQ(device_->scan_results().size(), 0u);
}

TEST_F(DeviceTest, ForgetScanRemovesEntry) {
  auto ap = make_ap(1);
  sim_.run_for(sim::Time::millis(300));
  device_->forget_scan(ap->address());
  EXPECT_EQ(device_->scan_results().size(), 0u);
}

TEST_F(DeviceTest, ClosedApsAreNotScanCandidates) {
  mac::AccessPointConfig cfg;
  cfg.channel = 1;
  cfg.open = false;
  mac::AccessPoint ap(*medium_, net::MacAddress::from_index(0xB0),
                      phy::Vec2{10, 0}, sim::Rng(7), cfg);
  ap.start();
  sim_.run_for(sim::Time::millis(500));
  EXPECT_EQ(device_->scan_results().size(), 0u);
}

TEST_F(DeviceTest, EnqueueOnCurrentChannelSendsImmediately) {
  net::TcpSegment seg;
  seg.payload_bytes = 10;
  EXPECT_TRUE(device_->enqueue(
      1, net::make_tcp_frame(device_->address(),
                             net::MacAddress::from_index(0xA0), net::Bssid{},
                             seg)));
  EXPECT_EQ(device_->frames_enqueued(), 1u);
}

TEST_F(DeviceTest, EnqueueOnOtherChannelDefersUntilSwitch) {
  auto ap = make_ap(6, 0xA6);
  int ap_rx_before = 0;
  ap->set_data_sink([&](const net::Frame&) { ++ap_rx_before; });

  net::TcpSegment seg;
  seg.payload_bytes = 10;
  EXPECT_FALSE(device_->enqueue(
      6, net::make_tcp_frame(device_->address(), ap->address(), ap->address(),
                             seg)));
  sim_.run_for(sim::Time::millis(200));
  EXPECT_EQ(ap_rx_before, 0);  // still parked on channel 1

  device_->switch_channel(6);
  sim_.run_for(sim::Time::millis(200));
  // Frame flushed on arrival (the AP drops it as unassociated, but it was
  // transmitted: tx counter moved).
  EXPECT_GE(device_->radio().frames_tx(), 1u);
}

TEST_F(DeviceTest, QueueCapDrops) {
  ClientDeviceConfig cfg;
  cfg.radio.initial_channel = 1;
  cfg.max_queue_frames = 2;
  ClientDevice d(*medium_, net::MacAddress::from_index(0xC1), cfg);
  net::TcpSegment seg;
  seg.payload_bytes = 10;
  const auto frame = net::make_tcp_frame(
      d.address(), net::MacAddress::from_index(0xA0), net::Bssid{}, seg);
  EXPECT_FALSE(d.enqueue(6, frame));
  EXPECT_FALSE(d.enqueue(6, frame));
  EXPECT_FALSE(d.enqueue(6, frame));  // dropped
  EXPECT_EQ(d.queue_drops(), 1u);
}

TEST_F(DeviceTest, SwitchLatencyGrowsWithConnectedAps) {
  device_->set_connected_lookup([](net::ChannelId ch) {
    std::vector<net::Bssid> v;
    if (ch == 1) {
      v = {net::MacAddress::from_index(1), net::MacAddress::from_index(2)};
    }
    return v;
  });
  const sim::Time with_aps = device_->switch_channel(6);
  sim_.run_for(sim::Time::millis(100));
  device_->set_connected_lookup(
      [](net::ChannelId) { return std::vector<net::Bssid>{}; });
  const sim::Time without = device_->switch_channel(1);
  EXPECT_GT(with_aps, without);
  // Base cost is the hardware reset (~4.94 ms).
  EXPECT_GE(without, phy::kHardwareResetTime);
  EXPECT_LT(without, sim::Time::micros(5200));
}

TEST_F(DeviceTest, SwitchSendsPsmAnnouncementsAndPolls) {
  // One AP on the old channel, one on the new; both "connected".
  auto ap_old = make_ap(1, 0xA0);
  auto ap_new = make_ap(6, 0xA6);
  device_->set_connected_lookup([&](net::ChannelId ch) {
    std::vector<net::Bssid> v;
    if (ch == 1) v.push_back(ap_old->address());
    if (ch == 6) v.push_back(ap_new->address());
    return v;
  });

  // Sniffer radios capture what is sent on each channel.
  phy::Radio sniffer1(*medium_, net::MacAddress::from_index(0xF1),
                      {.initial_channel = 1});
  sniffer1.set_position({1, 0});
  phy::Radio sniffer6(*medium_, net::MacAddress::from_index(0xF6),
                      {.initial_channel = 6});
  sniffer6.set_position({1, 0});
  int pm_frames = 0, polls = 0;
  sniffer1.set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kNullData && f.power_mgmt &&
        f.src == device_->address()) {
      ++pm_frames;
    }
  });
  sniffer6.set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kPsPoll && f.src == device_->address()) {
      ++polls;
    }
  });

  device_->switch_channel(6);
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(pm_frames, 1);
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(device_->channel(), 6);
  EXPECT_EQ(device_->switches(), 1u);
}

TEST_F(DeviceTest, BssidHandlerReceivesOnlyItsFrames) {
  auto ap1 = make_ap(1, 0xA0);
  auto ap2 = make_ap(1, 0xA1);
  int from_ap1 = 0;
  device_->register_bssid(ap1->address(),
                          [&](const net::Frame& f, const phy::RxInfo&) {
                            EXPECT_EQ(f.src, ap1->address());
                            ++from_ap1;
                          });
  sim_.run_for(sim::Time::millis(500));
  EXPECT_GT(from_ap1, 0);
  device_->unregister_bssid(ap1->address());
  const int before = from_ap1;
  sim_.run_for(sim::Time::millis(500));
  EXPECT_EQ(from_ap1, before);
}

TEST_F(DeviceTest, DefaultHandlerSeesEverything) {
  auto ap1 = make_ap(1, 0xA0);
  int frames = 0;
  device_->set_default_handler(
      [&](const net::Frame&, const phy::RxInfo&) { ++frames; });
  sim_.run_for(sim::Time::millis(500));
  EXPECT_GT(frames, 0);
}

TEST_F(DeviceTest, PeriodicProbingTriggersProbeResponses) {
  auto ap = make_ap(1);
  // Kill beacons' contribution by checking probe responses specifically.
  int probe_responses = 0;
  device_->set_default_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kProbeResponse) ++probe_responses;
  });
  sim_.run_for(sim::Time::seconds(3));
  EXPECT_GE(probe_responses, 4);  // every ~500 ms
}

}  // namespace
}  // namespace spider::core
