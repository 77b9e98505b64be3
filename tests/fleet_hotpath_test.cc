// Fleet-scale hot path: per-tick mobility + interned beacon payloads.
//
// Medium::move_radios applies a tick's moves one radio at a time through
// set_position, and these tests guard that it stays equivalent to N scalar
// set_position calls (same receive sets, same RNG streams, bit-identical
// digests). Every beacon, probe response and auth/assoc grant must carry the
// AP's one interned capability payload, and the position-update timer chain
// must stop at the experiment horizon.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "mac/access_point.h"
#include "mobility/deployment.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace spider::core {
namespace {

phy::MediumConfig lossless() {
  phy::MediumConfig cfg;
  cfg.base_loss = 0.0;
  cfg.edge_degradation = false;
  // The batched-moves test asserts deliveries_grid() directly; pin the
  // auto-select threshold off so this small world still uses the grid.
  cfg.indexed_scan_threshold = 0;
  return cfg;
}

// --- batched moves vs. brute force over random trajectories ------------------

TEST(FleetHotPath, BatchedMovesMatchBruteForceReceiveSets) {
  // Random walk applied through Medium::move_radios (one batch per round,
  // crossing cell boundaries and negative coordinates), verified against the
  // brute-force receive set computed from raw positions. Parked radios stay
  // in every batch so the no-move early-out is exercised too.
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1), lossless());
  sim::Rng walk(0xBA7C);

  constexpr int kRadios = 40;
  constexpr int kRounds = 30;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<int> received(kRadios, 0);
  std::vector<int> expected(kRadios, 0);
  for (int i = 0; i < kRadios; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(i + 1),
        phy::RadioConfig{.initial_channel = i % 2 == 0 ? 6 : 11}));
    radios.back()->set_position(
        {walk.uniform(-500.0, 500.0), walk.uniform(-500.0, 500.0)});
    const int idx = i;
    radios.back()->set_receive_handler(
        [&received, idx](const net::Frame&, const phy::RxInfo&) {
          ++received[idx];
        });
  }

  std::vector<phy::RadioMove> moves;
  for (int round = 0; round < kRounds; ++round) {
    moves.clear();
    for (int i = 0; i < kRadios; ++i) {
      phy::Radio& r = *radios[static_cast<std::size_t>(i)];
      // Every fourth radio parks this round (identical position in the
      // batch); everyone else steps far enough to re-bucket most rounds.
      const phy::Vec2 next =
          (i + round) % 4 == 0
              ? r.position()
              : r.position() + phy::Vec2{walk.uniform(-200.0, 200.0),
                                         walk.uniform(-200.0, 200.0)};
      moves.push_back(phy::RadioMove{&r, next});
    }
    medium.move_radios(moves);
    // Occasionally flip a radio's channel so batches land in a freshly
    // repartitioned grid.
    if (round % 3 == 0) {
      phy::Radio& flip = *radios[static_cast<std::size_t>(
          walk.uniform_int(0, kRadios - 1))];
      flip.tune(flip.channel() == 6 ? 11 : 6);
      sim.run_all();
    }

    phy::Radio& sender = *radios[static_cast<std::size_t>(round % kRadios)];
    for (int i = 0; i < kRadios; ++i) {
      const phy::Radio& rx = *radios[static_cast<std::size_t>(i)];
      if (&rx == &sender || rx.channel() != sender.channel()) continue;
      if (phy::distance(sender.position(), rx.position()) >
          medium.config().range_m) {
        continue;
      }
      ++expected[static_cast<std::size_t>(i)];
    }
    sender.send(net::make_probe_request(sender.address()));
    sim.run_all();
    ASSERT_EQ(received, expected) << "round " << round << " diverged";
  }
  EXPECT_GT(medium.deliveries_grid(), 0u);
}

// --- batch vs. scalar: identical RNG streams over a lossy run ----------------

struct MobilityOutcome {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
};

MobilityOutcome run_lossy_mobility(bool batched) {
  sim::Simulator sim;
  phy::MediumConfig cfg;
  cfg.base_loss = 0.3;  // every in-range receiver consumes Bernoulli draws
  phy::Medium medium(sim, sim::Rng(42), cfg);
  sim::Rng walk(0x5EED);

  constexpr int kRadios = 50;
  constexpr int kRounds = 20;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < kRadios; ++i) {
    const net::ChannelId ch = i % 3 == 0 ? 1 : (i % 3 == 1 ? 6 : 11);
    radios.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(i + 1),
        phy::RadioConfig{.initial_channel = ch}));
    radios.back()->set_position(
        {walk.uniform(-400.0, 400.0), walk.uniform(-400.0, 400.0)});
  }

  std::vector<phy::RadioMove> moves;
  for (int round = 0; round < kRounds; ++round) {
    moves.clear();
    for (auto& r : radios) {
      moves.push_back(phy::RadioMove{
          r.get(), r->position() + phy::Vec2{walk.uniform(-180.0, 180.0),
                                             walk.uniform(-180.0, 180.0)}});
    }
    if (batched) {
      medium.move_radios(moves);
    } else {
      for (const phy::RadioMove& m : moves) m.radio->set_position(m.position);
    }
    for (int i = 0; i < kRadios; i += 5) {
      phy::Radio& tx = *radios[static_cast<std::size_t>(i)];
      tx.send(net::make_probe_request(tx.address()));
    }
    sim.run_all();
  }
  return {sim.digest(), medium.frames_delivered(), medium.frames_lost()};
}

TEST(FleetHotPath, BatchAndScalarMobilityConsumeIdenticalRngStreams) {
  const MobilityOutcome batch = run_lossy_mobility(true);
  const MobilityOutcome scalar = run_lossy_mobility(false);
  EXPECT_EQ(batch.digest, scalar.digest)
      << "move_radios diverged from per-radio set_position";
  EXPECT_EQ(batch.delivered, scalar.delivered);
  EXPECT_EQ(batch.lost, scalar.lost);
}

// --- horizon: the position-update chain must not outlive the run -------------

TEST(FleetHotPath, PositionUpdatesStopAtTheHorizon) {
  FleetConfig cfg;
  cfg.seed = 7;
  cfg.clients = 4;
  cfg.duration = sim::Time::seconds(2);
  sim::Rng rng(cfg.seed);
  auto deploy_rng = rng.fork("deploy");
  cfg.aps = mobility::area_deployment(700, 500, 10, deploy_rng);
  FleetExperiment fleet(std::move(cfg));
  fleet.run();

  // The last tick fires at 1.9 s (the chain stops once now + interval would
  // reach the horizon); nothing may move the fleet after the run.
  std::vector<phy::Vec2> at_horizon;
  for (std::size_t i = 0; i < fleet.client_count(); ++i) {
    at_horizon.push_back(fleet.client_device(i).radio().position());
  }
  fleet.simulator().run_for(sim::Time::seconds(5));
  for (std::size_t i = 0; i < fleet.client_count(); ++i) {
    EXPECT_EQ(fleet.client_device(i).radio().position(), at_horizon[i])
        << "client " << i << " moved after the experiment horizon";
  }
}

// --- beacon interning: payload pointer reuse ---------------------------------

// Collects the payload storage pointers of every beacon/probe-response an AP
// emits over a second of simulated time, checking each payload's contents
// against the AP's config. Each observed payload is kept alive for the whole
// run, so a payload minted per frame could never reuse a freed address and
// pass for an interned one.
std::set<const net::FramePayload*> observed_payloads() {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1), lossless());
  mac::AccessPointConfig ap_cfg;
  ap_cfg.ssid = "interned-ap";
  ap_cfg.response_delay_min = sim::Time::millis(1);
  ap_cfg.response_delay_max = sim::Time::millis(2);
  mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA0),
                      phy::Vec2{0, 0}, sim::Rng(2), ap_cfg);
  phy::Radio client(medium, net::MacAddress::from_index(0xC0),
                    phy::RadioConfig{.initial_channel = ap_cfg.channel});
  client.set_position({20, 0});

  std::set<const net::FramePayload*> payloads;
  std::vector<net::SharedPayload> keepalive;
  client.set_receive_handler(
      [&payloads, &keepalive, &ap_cfg](const net::Frame& f,
                                       const phy::RxInfo&) {
        if (f.kind == net::FrameKind::kBeacon ||
            f.kind == net::FrameKind::kProbeResponse) {
          const auto* info = f.payload.get_if<net::BeaconInfo>();
          EXPECT_NE(info, nullptr);
          if (info != nullptr) {
            EXPECT_EQ(info->ssid, ap_cfg.ssid);
            EXPECT_EQ(info->channel, ap_cfg.channel);
            EXPECT_EQ(info->open, ap_cfg.open);
          }
          payloads.insert(f.payload.storage());
          keepalive.push_back(f.payload);
        }
      });
  ap.start();
  client.send(net::make_probe_request(client.address()));
  sim.run_until(sim::Time::seconds(1));
  return payloads;
}

TEST(FleetHotPath, InternedApReusesOnePayloadAcrossBeaconsAndProbes) {
  const auto interned = observed_payloads();
  // ~10 beacons + 1 probe response, all aliasing one allocation.
  ASSERT_EQ(interned.size(), 1u);
  EXPECT_NE(*interned.begin(), nullptr);
}

// --- management-response interning: auth/assoc alias the beacon payload ------

// Runs several clients through full auth+assoc exchanges against one AP and
// collects the payload storage pointer of every response, plus one beacon's
// for cross-referencing. As above, every payload is kept alive for the whole
// run so the allocator cannot recycle addresses and fake the aliasing.
struct MgmtPayloads {
  std::set<const net::FramePayload*> responses;
  const net::FramePayload* beacon = nullptr;
  int response_count = 0;
  std::vector<net::SharedPayload> keepalive;
};

MgmtPayloads observed_mgmt_payloads() {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(1), lossless());
  mac::AccessPointConfig ap_cfg;
  ap_cfg.response_delay_min = sim::Time::millis(1);
  ap_cfg.response_delay_max = sim::Time::millis(2);
  mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA1),
                      phy::Vec2{0, 0}, sim::Rng(2), ap_cfg);
  ap.start();

  MgmtPayloads out;
  std::vector<std::unique_ptr<phy::Radio>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(0xC0 + i),
        phy::RadioConfig{.initial_channel = ap_cfg.channel}));
    clients.back()->set_position({20.0 + i, 0.0});
    // Delivery is promiscuous; count only frames addressed to this client so
    // the expected response count stays exact.
    const net::MacAddress self = clients.back()->address();
    clients.back()->set_receive_handler(
        [&out, self](const net::Frame& f, const phy::RxInfo&) {
          if (f.dst != self && !f.dst.is_broadcast()) return;
          if (f.kind == net::FrameKind::kAuthResponse ||
              f.kind == net::FrameKind::kAssocResponse) {
            ++out.response_count;
            out.responses.insert(f.payload.storage());
            out.keepalive.push_back(f.payload);
          } else if (f.kind == net::FrameKind::kBeacon) {
            out.beacon = f.payload.storage();
            out.keepalive.push_back(f.payload);
          }
        });
  }
  // The AP beacons forever, so drive the exchanges off scheduled sends and a
  // bounded run rather than run_all(). Auth at +10 ms steps, assoc 5 ms later
  // (the response delay is capped at 2 ms, so auth always lands first).
  for (std::size_t i = 0; i < clients.size(); ++i) {
    phy::Radio* c = clients[i].get();
    const net::MacAddress ap_addr = ap.address();
    sim.schedule_at(sim::Time::millis(10 * (i + 1)), [c, ap_addr] {
      c->send(net::make_auth_request(c->address(), ap_addr));
    });
    sim.schedule_at(sim::Time::millis(10 * (i + 1) + 5), [c, ap_addr] {
      c->send(net::make_assoc_request(c->address(), ap_addr));
    });
  }
  sim.run_until(sim::Time::millis(200));
  return out;
}

TEST(FleetHotPath, InternedMgmtResponsesAliasTheBeaconPayload) {
  const MgmtPayloads interned = observed_mgmt_payloads();
  ASSERT_EQ(interned.response_count, 8);  // 4 clients × (auth + assoc)
  ASSERT_EQ(interned.responses.size(), 1u)
      << "every grant should hand out the same interned allocation";
  EXPECT_NE(*interned.responses.begin(), nullptr);
  EXPECT_EQ(*interned.responses.begin(), interned.beacon)
      << "auth/assoc responses should alias the AP's beacon payload";
  for (const net::SharedPayload& p : interned.keepalive) {
    EXPECT_TRUE(p.holds<net::BeaconInfo>());
  }
}

TEST(FleetHotPath, InternedMgmtPayloadOutlivesItsAccessPoint) {
  // The payload is refcounted storage, not a pointer into the AP: a response
  // captured by a receiver (e.g. parked in a power-save buffer or a trace)
  // must stay readable after the AP is torn down mid-simulation.
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(3), lossless());
  net::SharedPayload captured;
  {
    mac::AccessPointConfig ap_cfg;
    ap_cfg.ssid = "teardown-ap";
    ap_cfg.response_delay_min = sim::Time::millis(1);
    ap_cfg.response_delay_max = sim::Time::millis(1);
    mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA2),
                        phy::Vec2{0, 0}, sim::Rng(4), ap_cfg);
    phy::Radio client(medium, net::MacAddress::from_index(0xC9),
                      phy::RadioConfig{.initial_channel = ap_cfg.channel});
    client.set_position({10.0, 0.0});
    client.set_receive_handler(
        [&captured](const net::Frame& f, const phy::RxInfo&) {
          if (f.kind == net::FrameKind::kAuthResponse) captured = f.payload;
        });
    client.send(net::make_auth_request(client.address(), ap.address()));
    sim.run_all();
    ASSERT_TRUE(captured.holds<net::BeaconInfo>());
  }
  // AP (and its interned payload member) destroyed; the captured refcount
  // keeps the storage alive.
  ASSERT_TRUE(captured.holds<net::BeaconInfo>());
  EXPECT_EQ(captured.get_if<net::BeaconInfo>()->ssid, "teardown-ap");
}

}  // namespace
}  // namespace spider::core
