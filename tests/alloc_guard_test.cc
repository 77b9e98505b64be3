// Runtime proof of the SPIDER_HOT allocation contract.
//
// This binary (alone among the tests) links spider_alloc_guard, so the
// global operator new/delete family is replaced with counting forwarders.
// The tests first pin down the guard's own mechanics (counting windows,
// meter mode, the tripping check), then wrap the steady-state loops — PHY
// frame delivery, cached-list delivery from stationary radios, batched
// mobility, interned beacon ticks, management
// exchanges, the backhaul TCP exchange, a client device's frame dispatch —
// in an armed guard and assert they allocate nothing once warm.
#include "core/alloc_guard.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backhaul/wired_link.h"
#include "core/check.h"
#include "core/client_device.h"
#include "mac/access_point.h"
#include "net/addr.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "tcp/tcp.h"

namespace spider::core {
namespace {

TEST(AllocGuard, InterceptionIsLinkedIntoThisBinary) {
  // Everything below would pass vacuously if the replacement operators were
  // not linked; fail loudly instead.
  ASSERT_TRUE(alloc_guard_linked());
}

// `delete new int` pairs may legally be elided (C++14 allocation elision);
// a direct call to the replaceable allocation function may not, so the
// guard's own mechanics are exercised through ::operator new.
void touch_heap() { ::operator delete(::operator new(16)); }

TEST(AllocGuard, CountersAdvanceOnlyWhileAGuardIsAlive) {
  const std::uint64_t before = thread_allocations();
  touch_heap();  // no guard alive: invisible to the counters
  EXPECT_EQ(thread_allocations(), before);

  {
    ScopedAllocGuard guard("counting window");
    guard.dismiss();  // meter mode: we *expect* traffic here
    touch_heap();
    EXPECT_EQ(guard.allocations(), 1u);
    EXPECT_EQ(guard.deallocations(), 1u);
  }
  EXPECT_EQ(thread_allocations(), before + 1);
}

TEST(AllocGuard, MeterModeReportsCountsAndBytes) {
  ScopedAllocGuard guard("meter");
  guard.dismiss();
  auto block = std::make_unique<char[]>(128);
  EXPECT_EQ(guard.allocations(), 1u);
  EXPECT_GE(guard.allocated_bytes(), 128u);
  block.reset();
  EXPECT_EQ(guard.deallocations(), 1u);
}

TEST(AllocGuard, NestedGuardsEachObserveInnerTraffic) {
  ScopedAllocGuard outer("outer");
  outer.dismiss();
  {
    ScopedAllocGuard inner("inner");
    inner.dismiss();
    touch_heap();
    EXPECT_EQ(inner.allocations(), 1u);
  }
  EXPECT_EQ(outer.allocations(), 1u);
}

TEST(AllocGuard, ArmedGuardTripsOnAllocation) {
  // kLogAndCount turns the destructor's SPIDER_CHECK into a counted failure
  // instead of an abort, so the test can observe the trip.
  check::ScopedPolicy policy(check::Policy::kLogAndCount);
  const std::uint64_t failures_before = check::failures();
  {
    ScopedAllocGuard guard("deliberately allocating region");
    touch_heap();
  }
  EXPECT_GT(check::failures(), failures_before)
      << "an armed guard over an allocating region must trip";
}

// --- the hot loops the lint rule and the guard exist for ---------------------

phy::MediumConfig lossless() {
  phy::MediumConfig cfg;
  cfg.base_loss = 0.0;
  cfg.edge_degradation = false;
  return cfg;
}

TEST(AllocGuardHotPaths, FrameDeliveryIsAllocationFreeOnceWarm) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(7), lossless());
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < 4; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(i + 1),
        phy::RadioConfig{.initial_channel = 6}));
    radios.back()->set_position({static_cast<double>(10 * i), 0.0});
  }
  // Warm-up: first transmissions mint the PendingTx pool node, size the
  // event queue, and reserve the delivery candidate scratch.
  for (int i = 0; i < 3; ++i) {
    radios[0]->send(net::make_probe_request(radios[0]->address()));
    sim.run_all();
  }
  const std::uint64_t rx_before = radios[1]->frames_rx();
  {
    ScopedAllocGuard guard("medium delivery steady state");
    for (int i = 0; i < 16; ++i) {
      radios[0]->send(net::make_probe_request(radios[0]->address()));
      sim.run_all();
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "transmit/deliver allocated on the warm path";
  }
  EXPECT_EQ(radios[1]->frames_rx(), rx_before + 16)
      << "the guarded loop must actually have delivered frames";
}

TEST(AllocGuardHotPaths, BatchedMobilityIsAllocationFreeWithoutCrossings) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(8), lossless());
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < 8; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, net::MacAddress::from_index(i + 1),
        phy::RadioConfig{.initial_channel = 6}));
    radios.back()->set_position({static_cast<double>(i), 0.0});
  }
  // Sub-metre jitter keeps every radio inside its current grid cell, so the
  // batch stays on the no-crossing path (cell crossings re-bucket, and
  // re-bucketing is a cold path allowed to allocate).
  std::vector<phy::RadioMove> moves;
  moves.reserve(radios.size());
  const auto fill_moves = [&](double dx) {
    moves.clear();
    for (auto& r : radios) {
      moves.push_back(phy::RadioMove{r.get(), r->position() + phy::Vec2{dx, 0.0}});
    }
  };
  fill_moves(0.25);
  medium.move_radios(moves);  // warm-up pass
  {
    ScopedAllocGuard guard("batched mobility steady state");
    for (int tick = 0; tick < 32; ++tick) {
      fill_moves(tick % 2 == 0 ? -0.25 : 0.25);
      medium.move_radios(moves);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "non-crossing move_radios allocated on the warm path";
  }
}

TEST(AllocGuardHotPaths, InternedBeaconTicksAreAllocationFree) {
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(9), lossless());
  mac::AccessPointConfig cfg;
  mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA40),
                      {0.0, 0.0}, sim::Rng(10), cfg);
  // A silent station in range: each beacon exercises delivery end to end.
  phy::Radio station(medium, net::MacAddress::from_index(0x51A),
                     phy::RadioConfig{.initial_channel = cfg.channel});
  station.set_position({5.0, 0.0});

  ap.start();
  sim.run_until(sim::Time::millis(500));  // warm-up: several beacon periods
  const std::uint64_t rx_before = station.frames_rx();
  {
    ScopedAllocGuard guard("interned beacon ticks");
    sim.run_until(sim::Time::millis(1500));
    EXPECT_EQ(guard.allocations(), 0u)
        << "beacon_tick allocated despite the interned payload";
  }
  EXPECT_GE(station.frames_rx(), rx_before + 8)
      << "the guarded second must contain ~10 beacon deliveries";
}

TEST(AllocGuardHotPaths, StationaryDeliveryIsAllocationFreeOnceWarm) {
  // Twelve beaconing APs on one channel, 40 m apart, so every beacon is
  // served from its sender's cached neighbour list; two stations among
  // them are the mobile part. Each AP's first beacon builds its list; after
  // that a delivery only reads it, and the receptions APs draw but do not
  // consume allocate nothing either.
  sim::Simulator sim;
  phy::MediumConfig medium_cfg;
  medium_cfg.base_loss = 0.1;
  phy::Medium medium(sim, sim::Rng(21), medium_cfg);
  mac::AccessPointConfig cfg;
  cfg.channel = 1;
  std::vector<std::unique_ptr<mac::AccessPoint>> aps;
  for (std::uint32_t i = 0; i < 12; ++i) {
    aps.push_back(std::make_unique<mac::AccessPoint>(
        medium, net::MacAddress::from_index(0xA50 + i),
        phy::Vec2{40.0 * (i % 4), 40.0 * (i / 4)}, sim::Rng(30 + i), cfg));
    aps.back()->start();
  }
  phy::Radio near(medium, net::MacAddress::from_index(0x51B),
                  phy::RadioConfig{.initial_channel = 1});
  phy::Radio far(medium, net::MacAddress::from_index(0x51C),
                 phy::RadioConfig{.initial_channel = 1});
  near.set_position({60.0, 40.0});
  far.set_position({150.0, 90.0});

  sim.run_until(sim::Time::millis(500));  // warm-up: every list is built
  const std::uint64_t cached_before = medium.deliveries_cached();
  const std::uint64_t unconsumed_before = medium.rx_unconsumed();
  {
    ScopedAllocGuard guard("stationary delivery steady state");
    sim.run_until(sim::Time::millis(1500));
    EXPECT_EQ(guard.allocations(), 0u)
        << "a warm cached-list delivery allocated";
  }
  // ~10 beacons per AP, each reaching most of the other eleven.
  EXPECT_GE(medium.deliveries_cached(), cached_before + 100);
  EXPECT_GE(medium.rx_unconsumed(), unconsumed_before + 500);
}

TEST(AllocGuardHotPaths, InternedMgmtExchangeIsAllocationFreeOnceWarm) {
  // A warm auth/assoc exchange end to end: request delivery, the AP's
  // station lookup, the interned response mint (refcount bump), the pooled
  // delayed-response node, the SmallFn-inline timer closure, and the
  // response delivery back — none of it may touch the heap once the station
  // entry, the response pool, and the medium's tx pool exist.
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(11), lossless());
  mac::AccessPointConfig cfg;
  mac::AccessPoint ap(medium, net::MacAddress::from_index(0xA41),
                      {0.0, 0.0}, sim::Rng(12), cfg);
  phy::Radio client(medium, net::MacAddress::from_index(0x52A),
                    phy::RadioConfig{.initial_channel = cfg.channel});
  client.set_position({5.0, 0.0});
  std::uint64_t responses = 0;
  client.set_receive_handler(
      [&responses](const net::Frame& f, const phy::RxInfo&) {
        if (f.kind == net::FrameKind::kAuthResponse ||
            f.kind == net::FrameKind::kAssocResponse) {
          ++responses;
        }
      });

  const auto exchange = [&] {
    client.send(net::make_auth_request(client.address(), ap.address()));
    sim.run_all();
    client.send(net::make_assoc_request(client.address(), ap.address()));
    sim.run_all();
  };
  // Warm-up: mints the station entry, the first pooled response node, the
  // tx pool, and sizes the event queue.
  exchange();
  ASSERT_EQ(responses, 2u);
  {
    ScopedAllocGuard guard("interned auth/assoc exchange steady state");
    for (int i = 0; i < 16; ++i) exchange();
    EXPECT_EQ(guard.allocations(), 0u)
        << "a warm interned management exchange allocated";
  }
  EXPECT_EQ(responses, 34u)
      << "the guarded loop must actually have completed exchanges";
}

TEST(AllocGuardHotPaths, WarmBackhaulExchangeIsAllocationFree) {
  // The Fig. 9 lab's wired half: a bulk download whose data crosses a
  // shaped 5 Mb/s, 20 ms downlink and whose ACKs cross the uplink back to
  // the content server. The receive window is kept under the drop-tail
  // queue so the exchange runs without loss (reordering would mint
  // out-of-order map entries). Once the in-flight rings and the event pool
  // have reached their high-water mark, a send costs no allocation.
  sim::Simulator sim;
  const backhaul::WiredLinkConfig link_cfg{
      .rate_bps = 5e6, .latency = sim::Time::millis(20)};
  backhaul::WiredLink uplink(sim, link_cfg);
  backhaul::WiredLink downlink(sim, link_cfg);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.receive_window_segments = 64;
  tcp::ContentServer server(sim, tcp_cfg);
  tcp::TcpReceiver client(
      sim, /*flow_id=*/1,
      [&uplink](const net::TcpSegment& ack) { uplink.send(ack); }, tcp_cfg);
  uplink.set_deliver_handler([&](const net::TcpSegment& seg) {
    server.handle_segment(
        seg, [&downlink](const net::TcpSegment& data) { downlink.send(data); });
  });
  downlink.set_deliver_handler(
      [&client](const net::TcpSegment& seg) { client.on_segment(seg); });

  net::TcpSegment get;  // the HTTP GET that opens the download
  get.flow_id = 1;
  get.from_sender = false;
  get.syn = true;
  uplink.send(get);
  sim.run_for(sim::Time::seconds(3));  // warm-up: slow start to the window
  const std::int64_t bytes_before = client.bytes_in_order();
  const std::uint64_t segments_before = downlink.delivered();
  {
    ScopedAllocGuard guard("warm backhaul exchange");
    sim.run_for(sim::Time::seconds(2));
    EXPECT_EQ(guard.allocations(), 0u)
        << "a warm backhaul send/deliver allocated";
  }
  EXPECT_EQ(downlink.dropped(), 0u);
  EXPECT_GT(downlink.delivered(), segments_before + 500)
      << "the guarded window must carry ~830 data segments at 5 Mb/s";
  EXPECT_GT(client.bytes_in_order(), bytes_before + 1'000'000);
}

TEST(AllocGuardHotPaths, WarmClientReceptionIsAllocationFree) {
  // A client device's per-frame work once its tables are filled: beacons
  // from APs already in the scan table, frames from a BSSID with a
  // registered handler (beacons and probe responses from that AP), and
  // another client's probe requests, which only the default handler sees.
  sim::Simulator sim;
  phy::Medium medium(sim, sim::Rng(13), lossless());
  mac::AccessPointConfig cfg;
  mac::AccessPoint known(medium, net::MacAddress::from_index(0xA42),
                         {0.0, 0.0}, sim::Rng(14), cfg);
  mac::AccessPoint registered(medium, net::MacAddress::from_index(0xA43),
                              {10.0, 0.0}, sim::Rng(15), cfg);
  ClientDevice device(
      medium, net::MacAddress::from_index(0x53A),
      ClientDeviceConfig{.radio = {.initial_channel = cfg.channel}});
  device.set_position({5.0, 0.0});
  phy::Radio foreign(medium, net::MacAddress::from_index(0x53B),
                     phy::RadioConfig{.initial_channel = cfg.channel});
  foreign.set_position({-5.0, 0.0});

  std::uint64_t registered_frames = 0;
  std::uint64_t foreign_frames = 0;
  device.register_bssid(registered.address(),
                        [&registered_frames](const net::Frame&,
                                             const phy::RxInfo&) {
                          ++registered_frames;
                        });
  device.set_default_handler(
      [&foreign_frames, &foreign](const net::Frame& f, const phy::RxInfo&) {
        if (f.src == foreign.address()) ++foreign_frames;
      });
  const auto run_with_foreign_probes = [&](int probes) {
    for (int i = 0; i < probes; ++i) {
      foreign.send(net::make_probe_request(foreign.address()));
      sim.run_for(sim::Time::millis(100));
    }
  };
  known.start();
  registered.start();
  // Warm-up: both APs enter the scan table, and the event, tx and response
  // pools reach the size one second of this traffic needs.
  run_with_foreign_probes(10);
  ASSERT_EQ(device.scan_results().size(), 2u);
  const sim::Time guarded_from = sim.now();
  const std::uint64_t registered_before = registered_frames;
  const std::uint64_t foreign_before = foreign_frames;
  {
    ScopedAllocGuard guard("warm client reception");
    run_with_foreign_probes(10);
    EXPECT_EQ(guard.allocations(), 0u)
        << "a warm client device allocated while receiving";
  }
  for (const ScanEntry& entry : device.scan_results()) {
    EXPECT_GE(entry.last_seen, guarded_from)
        << "the guarded second must refresh every scan entry";
  }
  EXPECT_GE(registered_frames, registered_before + 8)
      << "the registered AP's ~10 beacons must reach its handler";
  EXPECT_EQ(foreign_frames, foreign_before + 10);
}

}  // namespace
}  // namespace spider::core
