// PHY delivery: per-channel partitions + spatial grid.
//
// The contract under test is twofold: (1) the grid changes *work*, never
// *outcomes* — a delivery must reach exactly the radios an O(n) scan of raw
// positions picks, and grid gathers must consume the loss RNG stream in
// exactly the order a partition scan does (digests bit-identical); (2) the
// lifecycle notifications (attach/detach/retune/move) keep the index in sync
// even when radios churn while frames are in flight.
#include "phy/medium.h"
#include "phy/radio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "mac/access_point.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace spider::phy {
namespace {

MediumConfig lossless() {
  MediumConfig cfg;
  cfg.base_loss = 0.0;
  cfg.edge_degradation = false;
  // These tests assert grid/scan counters directly; pin the auto-select
  // threshold off so small worlds still exercise the grid path.
  cfg.indexed_scan_threshold = 0;
  return cfg;
}

// --- grid vs. brute force over mobile trajectories ---------------------------

// Scan threshold that sends every delivery down the partition scan.
constexpr std::size_t kAlwaysScan = std::numeric_limits<std::size_t>::max();

// Random walk across cell boundaries (and through negative coordinates,
// which exercise the floor-based cell math), with radios split across two
// channels and retuned every round. After every round the receive set of a
// broadcast must equal the brute-force set computed from raw positions, and
// the receive callbacks must fire in ascending attach id. Then the edges of
// a range-sized cell: senders exactly on a cell boundary (and one ulp either
// side of it) with receivers exactly range_m away along each axis.
void check_receive_sets_and_order(Medium& medium, sim::Simulator& sim) {
  sim::Rng walk(0xF00D);

  constexpr int kRadios = 40;
  constexpr int kRounds = 30;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<int> received(kRadios, 0);
  std::vector<int> expected(kRadios, 0);
  // Radio i is the (i+1)-th attach, so ascending index is attach order.
  std::vector<int> callback_order;
  for (int i = 0; i < kRadios; ++i) {
    radios.push_back(std::make_unique<Radio>(
        medium, net::MacAddress::from_index(i + 1),
        RadioConfig{.initial_channel = i % 2 == 0 ? 6 : 11}));
    radios.back()->set_position(
        {walk.uniform(-500.0, 500.0), walk.uniform(-500.0, 500.0)});
    const int idx = i;
    radios.back()->set_receive_handler(
        [&received, &callback_order, idx](const net::Frame&, const RxInfo&) {
          ++received[idx];
          callback_order.push_back(idx);
        });
  }

  const double range = medium.config().range_m;
  auto broadcast_and_check = [&](Radio& sender, const char* what, int round) {
    for (int i = 0; i < kRadios; ++i) {
      const Radio& rx = *radios[static_cast<std::size_t>(i)];
      if (&rx == &sender || rx.channel() != sender.channel()) continue;
      if (distance(sender.position(), rx.position()) > range) continue;
      ++expected[static_cast<std::size_t>(i)];
    }
    callback_order.clear();
    sender.send(net::make_probe_request(sender.address()));
    sim.run_all();
    ASSERT_EQ(received, expected) << what << " round " << round << " diverged";
    EXPECT_TRUE(std::is_sorted(callback_order.begin(), callback_order.end()))
        << what << " round " << round << " delivered out of attach order";
  };

  for (int round = 0; round < kRounds; ++round) {
    // Move everyone; steps are large relative to the range-sized (100 m)
    // cell so most rounds re-bucket most radios.
    for (auto& r : radios) {
      r->set_position(r->position() + Vec2{walk.uniform(-200.0, 200.0),
                                           walk.uniform(-200.0, 200.0)});
    }
    // Retune churn: flip a random radio to the other channel (partition
    // move), and bounce one of the lowest ids out and back so it re-enters
    // its partition behind higher ids.
    Radio& flip = *radios[static_cast<std::size_t>(
        walk.uniform_int(0, kRadios - 1))];
    flip.tune(flip.channel() == 6 ? 11 : 6);
    sim.run_all();
    Radio& low = *radios[static_cast<std::size_t>(round % 4)];
    const net::ChannelId home = low.channel();
    low.tune(home == 6 ? 11 : 6);
    sim.run_all();
    low.tune(home);
    sim.run_all();  // complete the resets so nobody is mid-switch below

    ASSERT_NO_FATAL_FAILURE(broadcast_and_check(
        *radios[static_cast<std::size_t>(round % kRadios)], "walk", round));
  }

  // Cell-boundary edges: the sender sits on x (or y) = k * range, or one ulp
  // either side, and four receivers sit range away along +x, -x, +y and -y,
  // tuned to the sender's channel. The rest stay where the walk left them.
  struct EdgeSender {
    Vec2 at;
    bool on_boundary;
  };
  Radio& sender = *radios[kRadios - 1];
  std::vector<EdgeSender> edge_senders;
  for (const int k : {-2, -1, 0, 1, 3, 64}) {
    const double b = k * range;
    for (const double v : {std::nextafter(b, -1e300), b,
                           std::nextafter(b, 1e300)}) {
      edge_senders.push_back({{v, 37.0}, v == b});
      edge_senders.push_back({{-61.0, v}, v == b});
    }
  }
  const Vec2 axes[] = {{range, 0.0}, {-range, 0.0}, {0.0, range},
                       {0.0, -range}};
  int round = 0;
  for (const EdgeSender& edge : edge_senders) {
    sender.set_position(edge.at);
    for (std::size_t a = 0; a < std::size(axes); ++a) {
      Radio& rx = *radios[a];
      rx.set_position(edge.at + axes[a]);
      if (rx.channel() != sender.channel()) rx.tune(sender.channel());
    }
    sim.run_all();
    const std::vector<int> before = received;
    ASSERT_NO_FATAL_FAILURE(broadcast_and_check(sender, "edge", round++));
    // From a sender exactly on a boundary the arithmetic is exact, so every
    // axis receiver is exactly range_m out and hears the frame. One ulp off
    // the boundary, rounding may leave a receiver an ulp beyond range; the
    // brute-force check above covers those.
    if (!edge.on_boundary) continue;
    for (std::size_t a = 0; a < std::size(axes); ++a) {
      EXPECT_EQ(received[a], before[a] + 1) << "edge round " << round - 1;
    }
  }
}

TEST(FastPath, GridMatchesBruteForceAcrossMobileTrajectories) {
  // The default range, and 250 m: there, rounding in cell_of files a sender
  // one ulp below x = 64 * 250 m in cell 63 and a receiver exactly 250 m
  // east of it in cell 65, so a gather fixed at the 3x3 around the sender's
  // cell would miss it.
  for (const double range : {100.0, 250.0}) {
    sim::Simulator sim;
    MediumConfig cfg = lossless();
    cfg.range_m = range;
    Medium medium(sim, sim::Rng(1), cfg);
    check_receive_sets_and_order(medium, sim);
    EXPECT_GT(medium.deliveries_grid(), 0u);
    // The scan threshold is 0, so every delivery gathers from the grid.
    EXPECT_EQ(medium.deliveries_scan(), 0u);
  }
}

TEST(FastPath, PartitionScanMatchesBruteForceInAttachOrder) {
  // Same trajectories down the partition scan: no sort runs on this path,
  // so the attach order comes from the partitions themselves.
  sim::Simulator sim;
  MediumConfig cfg = lossless();
  cfg.indexed_scan_threshold = kAlwaysScan;
  Medium medium(sim, sim::Rng(1), cfg);
  check_receive_sets_and_order(medium, sim);
  EXPECT_EQ(medium.deliveries_grid(), 0u);
  EXPECT_GT(medium.deliveries_scan(), 0u);
}

// --- grid gathers vs. partition scans: identical RNG streams -----------------

struct PathOutcome {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t grid = 0;
  std::uint64_t scan = 0;
};

PathOutcome run_lossy_scenario(std::size_t scan_threshold) {
  sim::Simulator sim;
  MediumConfig cfg;
  cfg.base_loss = 0.3;  // every in-range receiver consumes Bernoulli draws
  cfg.indexed_scan_threshold = scan_threshold;  // 0: grid counters asserted
  Medium medium(sim, sim::Rng(42), cfg);
  sim::Rng layout(9);

  constexpr int kRadios = 60;
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < kRadios; ++i) {
    const net::ChannelId ch = i % 3 == 0 ? 1 : (i % 3 == 1 ? 6 : 11);
    radios.push_back(std::make_unique<Radio>(
        medium, net::MacAddress::from_index(i + 1),
        RadioConfig{.initial_channel = ch}));
    radios.back()->set_position(
        {layout.uniform(-400.0, 400.0), layout.uniform(-400.0, 400.0)});
  }
  for (int i = 0; i < kRadios; ++i) {
    Radio& tx = *radios[static_cast<std::size_t>(i)];
    tx.send(net::make_probe_request(tx.address()));
    net::TcpSegment seg;
    seg.payload_bytes = 200;
    tx.send(net::make_tcp_frame(
        tx.address(),
        radios[static_cast<std::size_t>((i + 1) % kRadios)]->address(),
        net::Bssid{}, seg));
  }
  // Retune a handful mid-run so deliveries race partition moves identically
  // on every path.
  for (int i = 0; i < kRadios; i += 7) {
    sim.schedule_at(sim::Time::micros(300 + i), [&radios, i] {
      radios[static_cast<std::size_t>(i)]->tune(6);
    });
  }
  sim.run_all();
  return {sim.digest(), medium.frames_delivered(), medium.frames_lost(),
          medium.deliveries_grid(), medium.deliveries_scan()};
}

TEST(FastPath, IndexedAndScanPathsConsumeIdenticalRngStreams) {
  // The partition scan is a strict superset of the grid gather, and both
  // pass through the identical channel/switching/range filters before any
  // randomness is consumed, so the draws line up.
  const PathOutcome grid = run_lossy_scenario(0);
  const PathOutcome scan = run_lossy_scenario(kAlwaysScan);
  EXPECT_EQ(grid.digest, scan.digest)
      << "grid internals leaked into the executed-event record";
  EXPECT_EQ(grid.delivered, scan.delivered);
  EXPECT_EQ(grid.lost, scan.lost);
  // And the paths really were different: one run served every delivery from
  // the grid, the other scanned every time.
  EXPECT_GT(grid.grid, 0u);
  EXPECT_EQ(grid.scan, 0u);
  EXPECT_EQ(scan.grid, 0u);
  EXPECT_GT(scan.scan, 0u);
}

TEST(FastPath, AutoSelectScanThresholdIsDigestNeutral) {
  // The small-partition auto-select (scan a partition instead of walking the
  // grid when it has few members) is a pure work optimization: a threshold
  // that mixes both arms in one run must deliver the same frames off the
  // same RNG stream as the pure-grid run.
  const PathOutcome pinned = run_lossy_scenario(0);
  const PathOutcome mixed = run_lossy_scenario(25);
  EXPECT_EQ(pinned.digest, mixed.digest)
      << "auto-select threshold leaked into the executed-event record";
  EXPECT_EQ(pinned.delivered, mixed.delivered);
  EXPECT_EQ(pinned.lost, mixed.lost);
  // The retunes push one partition past 25 members, so the mid threshold
  // exercised both arms.
  EXPECT_GT(mixed.grid, 0u);
  EXPECT_GT(mixed.scan, 0u);
}

TEST(FastPath, FullStackDigestIndependentOfDeliveryPath) {
  // Same cross-check through the whole stack: a vehicular drive past two APs
  // (association, DHCP, TCP, mobility ticks) must execute the identical
  // event sequence whether the medium gathers from the grid or scans.
  auto digest_with = [](std::size_t scan_threshold) {
    core::ExperimentConfig cfg;
    cfg.seed = 7;
    cfg.duration = sim::Time::seconds(20);
    cfg.medium.base_loss = 0.1;
    cfg.medium.indexed_scan_threshold = scan_threshold;
    cfg.vehicle = mobility::Vehicle(mobility::Route::straight(400.0), 10.0);
    cfg.spider = core::single_channel_multi_ap(1);
    mobility::ApDescriptor ap;
    ap.ssid = "fp-ap";
    ap.mac = net::MacAddress::from_index(0xE0);
    ap.subnet = net::Ipv4Address{(10u << 24) | (0xE0u << 8)};
    ap.position = {120, 15};
    ap.channel = 1;
    ap.backhaul_bps = 2e6;
    mobility::ApDescriptor ap2 = ap;
    ap2.ssid = "fp-ap2";
    ap2.mac = net::MacAddress::from_index(0xE1);
    ap2.subnet = net::Ipv4Address{(10u << 24) | (0xE1u << 8)};
    ap2.position = {260, -10};
    cfg.aps = {ap, ap2};
    core::Experiment exp(cfg);
    exp.run();
    return exp.simulator().digest();
  };
  EXPECT_EQ(digest_with(0), digest_with(kAlwaysScan));
}

TEST(FastPath, TenThousandRadioFootprintStaysUnderCeiling) {
  // The SoA radio store, partition and grid id lists and the tx pool must
  // stay compact at fleet scale: 10k radios on one channel at a downtown
  // density (500 radios/km^2), after one batched drift wave and one
  // all-radio probe volley have grown every pool to its working size.
  // Bytes do not depend on the machine, so this is a plain ceiling: the
  // 240 B/radio budget plus 5 % (it measures 232).
  constexpr int kRadios = 10'000;
  sim::Simulator sim;
  MediumConfig cfg;
  cfg.base_loss = 0.1;
  Medium medium(sim, sim::Rng(0x5CA7E), cfg);
  const double side = std::sqrt(kRadios / 500.0) * 1000.0;
  sim::Rng layout(0x5CA1E);
  std::vector<std::unique_ptr<Radio>> radios;
  radios.reserve(kRadios);
  for (int i = 0; i < kRadios; ++i) {
    radios.push_back(std::make_unique<Radio>(
        medium, net::MacAddress::from_index(static_cast<std::uint32_t>(i + 1)),
        RadioConfig{.initial_channel = 1}));
    radios.back()->set_position(
        {layout.uniform(0.0, side), layout.uniform(0.0, side)});
  }
  sim::Rng walk = layout.fork("walk");
  std::vector<RadioMove> moves;
  moves.reserve(radios.size());
  for (auto& r : radios) {
    moves.push_back(RadioMove{
        r.get(), r->position() + Vec2{walk.uniform(-3.0, 3.0),
                                      walk.uniform(-3.0, 3.0)}});
  }
  medium.move_radios(moves);
  for (auto& r : radios) r->send(net::make_probe_request(r->address()));
  sim.run_all();
  EXPECT_EQ(medium.frames_sent(), static_cast<std::uint64_t>(kRadios));
  EXPECT_LE(static_cast<double>(medium.hot_state_bytes()) / kRadios, 252.0);
}

// --- churn while frames are in flight ----------------------------------------

TEST(FastPath, ReceiverDestroyedDuringAirtimeGetsNothing) {
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1));
  int received = 0;
  {
    Radio rx(medium, net::MacAddress::from_index(2));
    rx.set_position({10, 0});
    rx.set_receive_handler(
        [&](const net::Frame&, const RxInfo&) { ++received; });
    tx.send(net::make_probe_request(tx.address()));
    // rx destroyed here: the delivery event is queued but must not touch it.
  }
  sim.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(medium.frames_delivered(), 0u);
}

TEST(FastPath, SenderDestroyedDuringAirtimeStillDelivers) {
  // The sender is carried across airtime as an attach id, not a pointer: a
  // sender that detaches (or whose storage is reused) before delivery fires
  // gets no tx-failure callback, but the frame still reaches receivers.
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio rx(medium, net::MacAddress::from_index(2));
  rx.set_position({10, 0});
  int received = 0;
  rx.set_receive_handler([&](const net::Frame&, const RxInfo&) { ++received; });
  int tx_failures = 0;
  {
    Radio tx(medium, net::MacAddress::from_index(1));
    tx.set_tx_failure_handler([&](const net::Frame&) { ++tx_failures; });
    net::TcpSegment seg;
    seg.payload_bytes = 100;
    // Addressed to a station that does not exist, so the frame fails at
    // delivery; rx overhears it.
    tx.send(net::make_tcp_frame(tx.address(), net::MacAddress::from_index(9),
                                net::Bssid{}, seg));
    // tx destroyed with the unicast frame still on the air.
  }
  sim.run_all();
  EXPECT_EQ(tx_failures, 0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(medium.frames_delivered(), 1u);
}

TEST(FastPath, RetuneCompletingDuringAirtimeMovesPartitions) {
  // Both directions of a mid-airtime partition move: a receiver that retunes
  // off the sender's channel before delivery hears nothing; one that retunes
  // onto it (reset completed, no longer switching) hears the frame.
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  const RadioConfig quick_away{.initial_channel = 6,
                               .hardware_reset = sim::Time::micros(10)};
  const RadioConfig quick_toward{.initial_channel = 11,
                                 .hardware_reset = sim::Time::micros(10)};
  Radio leaver(medium, net::MacAddress::from_index(2), quick_away);
  Radio joiner(medium, net::MacAddress::from_index(3), quick_toward);
  leaver.set_position({10, 0});
  joiner.set_position({20, 0});
  int leaver_rx = 0;
  int joiner_rx = 0;
  leaver.set_receive_handler(
      [&](const net::Frame&, const RxInfo&) { ++leaver_rx; });
  joiner.set_receive_handler(
      [&](const net::Frame&, const RxInfo&) { ++joiner_rx; });
  // Probe airtime at defaults is ~230 us; both 10 us resets finish first.
  tx.send(net::make_probe_request(tx.address()));
  leaver.tune(11);
  joiner.tune(6);
  sim.run_all();
  EXPECT_EQ(leaver_rx, 0);
  EXPECT_EQ(joiner_rx, 1);
  EXPECT_EQ(medium.radios_on(6), 2u);  // tx + joiner
  EXPECT_EQ(medium.radios_on(11), 1u);
}

TEST(FastPath, SenderRetuningDuringAirtimeStillGetsTxResult) {
  // The addressee is absent, so the frame fails; the failure must reach the
  // sender even though it has left the channel by the time delivery fires.
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio tx(medium, net::MacAddress::from_index(1), {.initial_channel = 6});
  Radio rx(medium, net::MacAddress::from_index(2), {.initial_channel = 6});
  rx.set_position({10, 0});
  int tx_failures = 0;
  tx.set_tx_failure_handler([&](const net::Frame&) { ++tx_failures; });
  net::TcpSegment seg;
  seg.payload_bytes = 100;
  tx.send(net::make_tcp_frame(tx.address(), net::MacAddress::from_index(9),
                              net::Bssid{}, seg));
  tx.tune(11);  // sender leaves the channel while its own frame is in flight
  sim.run_all();
  EXPECT_EQ(tx_failures, 1);
  EXPECT_EQ(tx.channel(), 11);
  EXPECT_EQ(medium.frames_delivered(), 1u);  // rx overheard it
}

// --- busy horizons and grid churn --------------------------------------------

TEST(FastPath, BusyHorizonsAreIndependentPerChannel) {
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio a(medium, net::MacAddress::from_index(1), {.initial_channel = 1});
  Radio b(medium, net::MacAddress::from_index(2), {.initial_channel = 6});
  a.send(net::make_probe_request(a.address()));
  EXPECT_GT(medium.channel_idle_at(1), sim.now());
  EXPECT_EQ(medium.channel_idle_at(6), sim.now());
  b.send(net::make_probe_request(b.address()));
  // Two channels serialize independently: both horizons now equal one
  // probe airtime, not two.
  EXPECT_EQ(medium.channel_idle_at(1), medium.channel_idle_at(6));
  sim.run_all();
  EXPECT_EQ(medium.channel_idle_at(1), sim.now());
}

TEST(FastPath, GridChurnLeavesOutcomesUntouched) {
  // Jiggling radios across many cell boundaries (then restoring the exact
  // positions) shuffles bucket contents via swap-and-pop, but the attach-id
  // re-sort means the delivery outcomes and the digest cannot move.
  auto run = [](bool churn) {
    sim::Simulator sim;
    MediumConfig cfg;
    cfg.base_loss = 0.3;
    Medium medium(sim, sim::Rng(5), cfg);
    std::vector<std::unique_ptr<Radio>> radios;
    for (int i = 0; i < 12; ++i) {
      radios.push_back(std::make_unique<Radio>(
          medium, net::MacAddress::from_index(i + 1), RadioConfig{}));
      radios.back()->set_position({i * 15.0, 0.0});
    }
    if (churn) {
      for (int pass = 0; pass < 5; ++pass) {
        for (int i = 0; i < 12; ++i) {
          Radio& r = *radios[static_cast<std::size_t>(i)];
          const Vec2 home = r.position();
          r.set_position({home.x + 1000.0, home.y - 1000.0});
          r.set_position(home);
        }
      }
    }
    for (auto& r : radios) r->send(net::make_probe_request(r->address()));
    sim.run_all();
    return std::pair<std::uint64_t, std::uint64_t>{sim.digest(),
                                                   medium.frames_delivered()};
  };
  EXPECT_EQ(run(false), run(true));
}

// --- stationary radios: cached neighbour lists -------------------------------

// A world of stationary radios (APs) and mobile ones on channels 1, 6 and
// 11. Radio i is the (i+1)-th attach, so ascending index is attach order.
// With `declare` false every radio is attached mobile and moved into place:
// the path every delivery took before stationary radios existed, which is
// the oracle the declared world must match.
class MixedWorld {
 public:
  MixedWorld(std::uint64_t seed, double base_loss, std::size_t threshold,
             bool declare)
      : medium_(sim_, sim::Rng(seed), config(base_loss, threshold)),
        layout_(seed ^ 0x5EEDu),
        declare_(declare) {
    // Interleaved, so stationary and mobile receivers alternate in id.
    for (int i = 0; i < 36; ++i) add(i % 3 != 1);
  }

  static MediumConfig config(double base_loss, std::size_t threshold) {
    MediumConfig cfg;
    cfg.base_loss = base_loss;
    cfg.edge_degradation = base_loss > 0.0;
    cfg.indexed_scan_threshold = threshold;
    return cfg;
  }

  sim::Simulator& sim() { return sim_; }
  Medium& medium() { return medium_; }
  sim::Rng& rng() { return layout_; }
  std::size_t size() const { return radios_.size(); }
  Radio* radio(std::size_t i) { return radios_[i].get(); }
  bool stationary(std::size_t i) const { return stationary_[i]; }
  // (sender index, receiver index) per handler call, in call order.
  const std::vector<std::pair<int, int>>& log() const { return log_; }
  std::uint64_t handled() const { return log_.size(); }

  // Attaches the next radio. Every odd-indexed stationary radio consumes
  // only frames to it or broadcast, and no beacons, so the receptions its
  // handler never sees show up as rx_unconsumed.
  int add(bool is_stationary) {
    const int idx = static_cast<int>(radios_.size());
    static constexpr net::ChannelId kChannels[] = {1, 6, 11};
    RadioConfig rc{.initial_channel = kChannels[layout_.uniform_int(0, 2)]};
    const Vec2 at{layout_.uniform(-220.0, 220.0),
                  layout_.uniform(-220.0, 220.0)};
    if (is_stationary && declare_) {
      rc.position = at;
      rc.stationary = true;
    }
    radios_.push_back(std::make_unique<Radio>(
        medium_,
        net::MacAddress::from_index(static_cast<std::uint32_t>(idx + 1)), rc));
    stationary_.push_back(is_stationary);
    if (!rc.stationary) radios_.back()->set_position(at);
    RxInterest interest;
    if (is_stationary && idx % 2 == 1) {
      interest.addressed_only = true;
      interest.kinds = ~RxInterest::bit(net::FrameKind::kBeacon);
    }
    radios_.back()->set_receive_handler(
        [this, idx](const net::Frame& f, const RxInfo&) {
          log_.emplace_back(static_cast<int>(f.src.value() & 0xFFFF) - 1, idx);
        },
        interest);
    return idx;
  }

  void remove(std::size_t i) { radios_[i].reset(); }

  // A live radio of the wanted kind, chosen by the world's RNG.
  int pick(bool want_stationary) {
    std::vector<int> live;
    for (std::size_t i = 0; i < radios_.size(); ++i) {
      if (radios_[i] && stationary_[i] == want_stationary) {
        live.push_back(static_cast<int>(i));
      }
    }
    return live[static_cast<std::size_t>(
        layout_.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  }

 private:
  sim::Simulator sim_;
  Medium medium_;
  sim::Rng layout_;
  bool declare_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<bool> stationary_;
  std::vector<std::pair<int, int>> log_;
};

// One round of churn: mobile radios walk across cells and one retunes, and
// (on alternate rounds) a stationary radio leaves or a new one joins.
void churn(MixedWorld& w, int round) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    Radio* r = w.radio(i);
    if (r == nullptr || w.stationary(i)) continue;
    r->set_position(r->position() + Vec2{w.rng().uniform(-150.0, 150.0),
                                         w.rng().uniform(-150.0, 150.0)});
  }
  Radio& flip = *w.radio(static_cast<std::size_t>(w.pick(false)));
  flip.tune(flip.channel() == 11 ? 1 : flip.channel() + 5);
  w.sim().run_all();
  if (round % 2 == 0) {
    w.remove(static_cast<std::size_t>(w.pick(true)));
  } else {
    w.add(true);
  }
}

TEST(StationaryCache, MixedWorldsMatchBruteForceScan) {
  // Lossless: each round, a broadcast from a random live radio must reach
  // exactly the radios an O(n) scan of raw positions picks, in ascending
  // attach id; stationary senders are served from their cached lists.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t threshold :
         {std::size_t{0}, MediumConfig{}.indexed_scan_threshold}) {
      MixedWorld w(seed, 0.0, threshold, true);
      const double range = w.medium().config().range_m;
      for (int round = 0; round < 40; ++round) {
        churn(w, round);
        const std::size_t from = static_cast<std::size_t>(
            w.pick(round % 3 != 0));
        Radio& sender = *w.radio(from);
        std::vector<std::pair<int, int>> expected;
        for (std::size_t i = 0; i < w.size(); ++i) {
          const Radio* rx = w.radio(i);
          if (rx == nullptr || i == from) continue;
          if (rx->channel() != sender.channel()) continue;
          if (distance(sender.position(), rx->position()) > range) continue;
          // A probe request is broadcast and no beacon, so every declared
          // interest consumes it.
          expected.emplace_back(static_cast<int>(from), static_cast<int>(i));
        }
        const std::size_t before = w.log().size();
        sender.send(net::make_probe_request(sender.address()));
        w.sim().run_all();
        const std::vector<std::pair<int, int>> got(
            w.log().begin() + static_cast<std::ptrdiff_t>(before),
            w.log().end());
        ASSERT_EQ(got, expected) << "seed " << seed << " threshold "
                                 << threshold << " round " << round;
      }
      EXPECT_GT(w.medium().deliveries_cached(), 0u);
      if (threshold == 0) {
        EXPECT_GT(w.medium().deliveries_grid(), 0u);
      }
    }
  }
}

struct MixedOutcome {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t cached = 0;
  std::vector<std::pair<int, int>> log;

  bool operator==(const MixedOutcome& o) const {
    return digest == o.digest && delivered == o.delivered && lost == o.lost &&
           log == o.log;
  }
};

// Lossy, with churn during airtime: every live radio broadcasts (beacons
// from stationary radios, probes from mobile ones) and sends one unicast
// data frame (ARQ and tx-failure paths), while a stationary radio is
// destroyed or attached, and a mobile one retunes, with frames on the air.
MixedOutcome run_mixed_lossy(std::uint64_t seed, std::size_t threshold,
                             bool declare) {
  MixedWorld w(seed, 0.3, threshold, declare);
  const net::SharedPayload beacon(net::BeaconInfo{"mixed", 1, true});
  for (int round = 0; round < 16; ++round) {
    churn(w, round);
    const sim::Time t0 = w.sim().now();
    for (std::size_t i = 0; i < w.size(); ++i) {
      Radio* r = w.radio(i);
      if (r == nullptr) continue;
      r->send(w.stationary(i) ? net::make_beacon(r->address(), beacon)
                              : net::make_probe_request(r->address()));
      const std::size_t to = static_cast<std::size_t>(
          w.pick(!w.stationary(i)));
      net::TcpSegment seg;
      seg.payload_bytes = 100;
      r->send(net::make_tcp_frame(r->address(), w.radio(to)->address(),
                                  net::Bssid{}, seg));
    }
    const std::size_t doomed = static_cast<std::size_t>(w.pick(true));
    const std::size_t flip = static_cast<std::size_t>(w.pick(false));
    w.sim().schedule_at(t0 + sim::Time::micros(700), [&w, doomed, round] {
      if (round % 2 == 0) {
        w.remove(doomed);
      } else {
        w.add(true);
      }
    });
    w.sim().schedule_at(t0 + sim::Time::micros(1500), [&w, flip] {
      if (Radio* r = w.radio(flip)) r->tune(r->channel() == 1 ? 6 : 1);
    });
    w.sim().run_all();
  }
  // Every drawn-and-delivered reception was either handed to a handler or
  // counted as unconsumed, in the getters and in the published metrics.
  const telemetry::MetricsSnapshot snap = w.sim().telemetry().collect();
  EXPECT_EQ(w.handled() + w.medium().rx_unconsumed(),
            w.medium().frames_delivered());
  EXPECT_EQ(snap.counter_value("phy.rx_unconsumed"),
            w.medium().rx_unconsumed());
  EXPECT_EQ(snap.counter_value("phy.deliveries.cached"),
            w.medium().deliveries_cached());
  EXPECT_GT(w.medium().rx_unconsumed(), 0u);
  return {w.sim().digest(), w.medium().frames_delivered(),
          w.medium().frames_lost(), w.medium().deliveries_cached(), w.log()};
}

TEST(StationaryCache, MixedWorldsDrawTheOracleRngStream) {
  // The declared world, at threshold 0 (the mobile part gathers from the
  // grid, skipping stationary ids) and at the default (it scans the mobile
  // list), must hand the same frames to the same radios in the same order
  // off the same RNG stream as the all-mobile world scanning every
  // partition member.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const MixedOutcome oracle = run_mixed_lossy(seed, kAlwaysScan, false);
    EXPECT_EQ(oracle.cached, 0u);
    for (const std::size_t threshold :
         {std::size_t{0}, MediumConfig{}.indexed_scan_threshold}) {
      const MixedOutcome declared = run_mixed_lossy(seed, threshold, true);
      EXPECT_GT(declared.cached, 0u);
      EXPECT_TRUE(declared == oracle)
          << "seed " << seed << " threshold " << threshold << ": digest "
          << declared.digest << " vs " << oracle.digest << ", delivered "
          << declared.delivered << " vs " << oracle.delivered << ", lost "
          << declared.lost << " vs " << oracle.lost;
    }
  }
}

TEST(StationaryCache, MovingOrRetuningAStationaryRadioFailsACheck) {
  check::ScopedPolicy log_and_count(check::Policy::kLogAndCount);
  check::reset_counters();
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  Radio ap(medium, net::MacAddress::from_index(1),
           {.initial_channel = 6, .position = {10, 0}, .stationary = true});
  EXPECT_TRUE(medium.is_stationary(static_cast<RadioId>(ap.attach_order())));
  ap.set_position({10, 0});  // a no-move update is fine
  EXPECT_EQ(check::check_failures(), 0u);
  ap.set_position({20, 0});
  EXPECT_EQ(check::check_failures(), 1u);
  EXPECT_EQ(ap.position(), (Vec2{10, 0}));
  bool retuned = false;
  ap.tune(11, [&retuned] { retuned = true; });
  sim.run_all();
  EXPECT_EQ(check::check_failures(), 2u);
  EXPECT_FALSE(retuned);
  EXPECT_EQ(ap.channel(), 6);
  EXPECT_FALSE(ap.switching());
  EXPECT_NE(check::last_failure_message().find("retuned"), std::string::npos);
  check::reset_counters();
}

TEST(StationaryCache, AccessPointInterestSkipsTheFourIgnoredKinds) {
  // A radio declaring an AP's interest hears every kind addressed to it
  // and every kind addressed elsewhere; its handler sees only the seven
  // kinds an AP answers, addressed to it or broadcast. Every reception is
  // still drawn and counted.
  sim::Simulator sim;
  Medium medium(sim, sim::Rng(1), lossless());
  const net::MacAddress self = net::MacAddress::from_index(1);
  const net::MacAddress other = net::MacAddress::from_index(9);
  Radio ap(medium, self, {.initial_channel = 6, .stationary = true});
  Radio peer(medium, net::MacAddress::from_index(2), {.initial_channel = 6});
  peer.set_position({10, 0});
  std::vector<net::FrameKind> handled;
  ap.set_receive_handler(
      [&handled](const net::Frame& f, const RxInfo&) {
        handled.push_back(f.kind);
      },
      mac::AccessPoint::kRxInterest);
  const net::MacAddress x = peer.address();
  const net::SharedPayload info(net::BeaconInfo{"peer", 6, true});
  net::TcpSegment seg;
  seg.payload_bytes = 100;
  std::vector<net::Frame> frames = {net::make_beacon(x, info),
                                    net::make_probe_request(x)};
  for (const net::MacAddress to : {self, other}) {
    frames.push_back(net::make_probe_response(x, to, info));
    frames.push_back(net::make_auth_request(x, to));
    frames.push_back(net::make_auth_response(x, to, info));
    frames.push_back(net::make_assoc_request(x, to));
    frames.push_back(net::make_assoc_response(x, to, info));
    frames.push_back(net::make_disassoc(x, to, to));
    frames.push_back(net::make_null_data(x, to, true));
    frames.push_back(net::make_ps_poll(x, to));
    frames.push_back(net::make_tcp_frame(x, to, to, seg));
  }
  for (net::Frame& f : frames) peer.send(std::move(f));
  sim.run_all();
  using K = net::FrameKind;
  const std::vector<K> expected = {K::kProbeRequest, K::kAuthRequest,
                                   K::kAssocRequest, K::kDisassoc,
                                   K::kNullData,     K::kPsPoll,
                                   K::kData};
  EXPECT_EQ(handled, expected);
  EXPECT_EQ(ap.frames_rx(), 20u);
  EXPECT_EQ(medium.frames_delivered(), 20u);
  EXPECT_EQ(medium.rx_unconsumed(), 13u);
}

TEST(StationaryCache, AccessPointsCountWhatTheirHandlersNoLongerSee) {
  // An Amherst drive, 30 s: its APs' receive handlers never see one of the
  // four ignored kinds (each is a SPIDER_UNREACHABLE arm in on_receive),
  // and the receptions the medium counts equal the values from before APs
  // declared an interest: frames delivered and lost, and the client radio's
  // frames_rx (the rest were the APs'). Most AP receptions are now
  // unconsumed.
  check::ScopedPolicy log_and_count(check::Policy::kLogAndCount);
  check::reset_counters();
  core::Experiment exp(core::amherst_drive(3, sim::Time::seconds(30)));
  exp.run();
  EXPECT_EQ(check::failures(), 0u) << check::last_failure_message();
  const Medium& medium = exp.medium();
  EXPECT_EQ(medium.frames_delivered(), 41469u);
  EXPECT_EQ(medium.frames_lost(), 8242u);
  EXPECT_EQ(exp.device().radio().frames_rx(), 6835u);
  EXPECT_EQ(medium.rx_unconsumed(), 28136u);
}

}  // namespace
}  // namespace spider::phy
