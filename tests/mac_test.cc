#include "mac/access_point.h"
#include "mac/client_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "phy/medium.h"
#include "phy/radio.h"

namespace spider::mac {
namespace {

class MacTest : public ::testing::Test {
 protected:
  MacTest() {
    phy::MediumConfig cfg;
    cfg.base_loss = 0.0;
    cfg.edge_degradation = false;
    medium_ = std::make_unique<phy::Medium>(sim_, sim::Rng(1), cfg);
  }

  AccessPointConfig quick_ap(net::ChannelId channel = 6) {
    AccessPointConfig cfg;
    cfg.channel = channel;
    cfg.response_delay_min = sim::Time::millis(1);
    cfg.response_delay_max = sim::Time::millis(2);
    return cfg;
  }

  std::unique_ptr<AccessPoint> make_ap(net::ChannelId channel = 6) {
    return std::make_unique<AccessPoint>(
        *medium_, net::MacAddress::from_index(0xA0), phy::Vec2{0, 0},
        sim::Rng(2), quick_ap(channel));
  }

  std::unique_ptr<phy::Radio> make_client(net::ChannelId channel = 6) {
    auto r = std::make_unique<phy::Radio>(
        *medium_, net::MacAddress::from_index(0xC0),
        phy::RadioConfig{.initial_channel = channel});
    r->set_position({20, 0});
    return r;
  }

  // Drives a full join and returns the session once associated.
  std::unique_ptr<ClientSession> associate(AccessPoint& ap, phy::Radio& client) {
    auto session = std::make_unique<ClientSession>(
        sim_, client.address(), ap.address(), ap.channel(),
        [&client](const net::Frame& f) { return client.send(f); },
        ClientSessionConfig{.link_timeout = sim::Time::millis(100)});
    client.set_receive_handler(
        [raw = session.get()](const net::Frame& f, const phy::RxInfo&) {
          raw->handle_frame(f);
        });
    session->start_join();
    sim_.run_for(sim::Time::millis(500));
    return session;
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Medium> medium_;
};

TEST_F(MacTest, ApBeaconsPeriodically) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  int beacons = 0;
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kBeacon) ++beacons;
  });
  sim_.run_until(sim::Time::seconds(1));
  EXPECT_GE(beacons, 9);
  EXPECT_LE(beacons, 11);
}

TEST_F(MacTest, ApAnswersProbe) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  int probe_responses = 0;
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kProbeResponse && f.dst == client->address()) {
      const auto& info = std::get<net::BeaconInfo>(f.payload.get());
      EXPECT_EQ(info.channel, 6);
      ++probe_responses;
    }
  });
  client->send(net::make_probe_request(client->address()));
  sim_.run_until(sim::Time::millis(100));
  EXPECT_EQ(probe_responses, 1);
}

TEST_F(MacTest, FullAssociationHandshake) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);

  EXPECT_TRUE(session->associated());
  EXPECT_TRUE(ap->is_associated(client->address()));
  EXPECT_GT(session->association_delay(), sim::Time::zero());
  EXPECT_LT(session->association_delay(), sim::Time::millis(50));
  EXPECT_EQ(ap->assoc_grants(), 1u);
}

TEST_F(MacTest, ApIgnoresAssocBeforeAuth) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  int responses = 0;
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kAssocResponse) ++responses;
  });
  client->send(net::make_assoc_request(client->address(), ap->address()));
  sim_.run_until(sim::Time::millis(200));
  EXPECT_EQ(responses, 0);
  EXPECT_FALSE(ap->is_associated(client->address()));
}

TEST_F(MacTest, SessionRetriesUntilTxPossible) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  bool gate_open = false;  // radio "parked on another channel"
  ClientSession session(
      sim_, client->address(), ap->address(), 6,
      [&](const net::Frame& f) { return gate_open && client->send(f); },
      ClientSessionConfig{.link_timeout = sim::Time::millis(100)});
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    session.handle_frame(f);
  });
  session.start_join();
  sim_.schedule_at(sim::Time::millis(450), [&] { gate_open = true; });
  sim_.run_until(sim::Time::millis(400));
  EXPECT_FALSE(session.associated());
  sim_.run_until(sim::Time::seconds(1));
  EXPECT_TRUE(session.associated());
  EXPECT_GT(session.attempts(), 4);
}

TEST_F(MacTest, RadioOnChannelTriggersImmediateRetry) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  bool gate_open = false;
  ClientSession session(
      sim_, client->address(), ap->address(), 6,
      [&](const net::Frame& f) { return gate_open && client->send(f); },
      ClientSessionConfig{.link_timeout = sim::Time::seconds(10)});
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    session.handle_frame(f);
  });
  session.start_join();  // swallowed by the gate; huge retry timer
  sim_.schedule_at(sim::Time::millis(50), [&] {
    gate_open = true;
    session.radio_on_channel();
  });
  sim_.run_until(sim::Time::millis(500));
  EXPECT_TRUE(session.associated());
}

TEST_F(MacTest, AbandonStopsRetries) {
  auto client = make_client();
  ClientSession session(
      sim_, client->address(), net::MacAddress::from_index(0xEE), 6,
      [&](const net::Frame& f) { return client->send(f); },
      ClientSessionConfig{.link_timeout = sim::Time::millis(50)});
  session.start_join();
  session.abandon();
  EXPECT_EQ(session.state(), SessionState::kIdle);
  const int attempts = session.attempts();
  sim_.run_until(sim::Time::seconds(1));
  EXPECT_EQ(session.attempts(), attempts);
}

TEST_F(MacTest, DisassocResetsSession) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);
  ASSERT_TRUE(session->associated());
  session->handle_frame(
      net::make_disassoc(ap->address(), client->address(), ap->address()));
  EXPECT_EQ(session->state(), SessionState::kIdle);
}

TEST_F(MacTest, PsmBuffersWhileParkedAndPsPollReleases) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);
  ASSERT_TRUE(session->associated());

  client->send(net::make_null_data(client->address(), ap->address(), true));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_TRUE(ap->in_power_save(client->address()));

  net::TcpSegment seg;
  seg.payload_bytes = 500;
  EXPECT_TRUE(ap->send_to_client(
      client->address(), net::make_tcp_frame(ap->address(), client->address(),
                                             ap->address(), seg)));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(ap->buffered_frames(client->address()), 1u);

  int data_frames = 0;
  client->set_receive_handler([&](const net::Frame& f, const phy::RxInfo&) {
    if (f.kind == net::FrameKind::kData) ++data_frames;
  });
  client->send(net::make_ps_poll(client->address(), ap->address()));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(data_frames, 1);
  EXPECT_EQ(ap->buffered_frames(client->address()), 0u);
  EXPECT_FALSE(ap->in_power_save(client->address()));
}

TEST_F(MacTest, WakeFlushesBufferOnPmZero) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);
  ASSERT_TRUE(session->associated());

  client->send(net::make_null_data(client->address(), ap->address(), true));
  sim_.run_for(sim::Time::millis(100));
  net::TcpSegment seg;
  seg.payload_bytes = 10;
  ap->send_to_client(client->address(),
                     net::make_tcp_frame(ap->address(), client->address(),
                                         ap->address(), seg));
  EXPECT_EQ(ap->buffered_frames(client->address()), 1u);
  client->send(net::make_null_data(client->address(), ap->address(), false));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(ap->buffered_frames(client->address()), 0u);
  EXPECT_FALSE(ap->in_power_save(client->address()));
}

TEST_F(MacTest, SendToUnassociatedClientFails) {
  auto ap = make_ap();
  ap->start();
  net::TcpSegment seg;
  seg.payload_bytes = 10;
  EXPECT_FALSE(ap->send_to_client(
      net::MacAddress::from_index(0xDD),
      net::make_tcp_frame(ap->address(), net::MacAddress::from_index(0xDD),
                          ap->address(), seg)));
}

TEST_F(MacTest, BufferCapDropsExcess) {
  AccessPointConfig cfg = quick_ap();
  cfg.max_buffered_frames = 3;
  AccessPoint ap(*medium_, net::MacAddress::from_index(0xA0), {0, 0},
                 sim::Rng(2), cfg);
  ap.start();
  auto client = make_client();
  auto session = associate(ap, *client);
  ASSERT_TRUE(session->associated());
  client->send(net::make_null_data(client->address(), ap.address(), true));
  sim_.run_for(sim::Time::millis(100));

  net::TcpSegment seg;
  seg.payload_bytes = 10;
  for (int i = 0; i < 5; ++i) {
    ap.send_to_client(client->address(),
                      net::make_tcp_frame(ap.address(), client->address(),
                                          ap.address(), seg));
  }
  EXPECT_EQ(ap.buffered_frames(client->address()), 3u);
  EXPECT_EQ(ap.buffer_drops(), 2u);
}

TEST_F(MacTest, UplinkDataReachesSink) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);
  ASSERT_TRUE(session->associated());

  int sunk = 0;
  ap->set_data_sink([&](const net::Frame& f) {
    EXPECT_EQ(f.src, client->address());
    ++sunk;
  });
  net::TcpSegment seg;
  seg.payload_bytes = 64;
  client->send(net::make_tcp_frame(client->address(), ap->address(),
                                   ap->address(), seg));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(sunk, 1);
}

TEST_F(MacTest, UplinkFromUnassociatedClientIgnored) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  int sunk = 0;
  ap->set_data_sink([&](const net::Frame&) { ++sunk; });
  net::TcpSegment seg;
  seg.payload_bytes = 64;
  client->send(net::make_tcp_frame(client->address(), ap->address(),
                                   ap->address(), seg));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_EQ(sunk, 0);
}

TEST_F(MacTest, DisassocFrameClearsApState) {
  auto ap = make_ap();
  ap->start();
  auto client = make_client();
  auto session = associate(*ap, *client);
  ASSERT_TRUE(ap->is_associated(client->address()));
  client->send(net::make_disassoc(client->address(), ap->address(),
                                  ap->address()));
  sim_.run_for(sim::Time::millis(100));
  EXPECT_FALSE(ap->is_associated(client->address()));
}

TEST_F(MacTest, SessionStateNames) {
  EXPECT_STREQ(to_string(SessionState::kIdle), "Idle");
  EXPECT_STREQ(to_string(SessionState::kAssociated), "Associated");
}

}  // namespace
}  // namespace spider::mac
