// Timing-wheel scheduler gates (DESIGN.md "Scheduler").
//
// The determinism contract is that events fire in exactly (at, seq) order,
// the order an (at, seq) min-heap produces. It is checked on sim::TimerWheel
// in isolation across the cases where a wheel could plausibly diverge:
// same-instant FIFO straddling cascade boundaries, far-future events beyond
// the top level, cancels discovered after a cascade moved the node, inserts
// behind the wheel cursor (the late heap). Boundary instants are derived
// from the wheel's geometry constants, and a gate pins the point of the
// wide level 0: sub-span delays inside the clock's level-0 window are filed
// once and never cascade. A randomized schedule/cancel/run script then
// drives the Simulator against an in-test min-heap oracle and compares the
// fire order event by event.
//
// The warm-path allocation guarantee (schedule/fire/cancel touch no heap once
// the node pool has grown) is proven under core::ScopedAllocGuard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "core/alloc_guard.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

namespace spider {
namespace {

using sim::Simulator;
using sim::Time;
using sim::TimerWheel;

// ---- TimerWheel in isolation ------------------------------------------------

// Drains the wheel completely and returns (at, seq) pairs in pop order.
std::vector<std::pair<std::int64_t, std::uint64_t>> drain_all(TimerWheel& w) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
  fired.reserve(w.size());
  TimerWheel::Fired ev;
  while (w.pop_due(std::numeric_limits<std::int64_t>::max(), &ev)) {
    fired.emplace_back(ev.at_us, ev.seq);
  }
  return fired;
}

void expect_heap_order(
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& fired,
    std::size_t expected_count) {
  ASSERT_EQ(fired.size(), expected_count);
  auto sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(fired, sorted) << "wheel diverged from (at, seq) heap order";
}

// Geometry, read off the wheel rather than restated: level 0's span, and the
// first instant each upper level buckets on its own.
constexpr std::int64_t kLevel0Span = std::int64_t{1} << TimerWheel::kLevel0Bits;
constexpr std::int64_t kWheelSpan = std::int64_t{1} << TimerWheel::kSpanBits;
constexpr std::int64_t level_base(int level) {
  return std::int64_t{1} << TimerWheel::level_shift(level);
}

TEST(TimerWheel, GeometryCoversTheFrameScaleAndTheRunScale) {
  // Level 0 must outlast a 1500 B frame at 11 Mb/s plus the long preamble
  // (~1.3 ms) with room to spare, and the levels together must reach 2^48 us
  // before anything is parked in the overflow list.
  EXPECT_GE(kLevel0Span, 4096);
  EXPECT_GE(TimerWheel::kSpanBits, 48);
  EXPECT_EQ(level_base(1), kLevel0Span);
  EXPECT_EQ(TimerWheel::level_shift(TimerWheel::kLevels - 1) +
                TimerWheel::kUpperBits,
            TimerWheel::kSpanBits);
}

TEST(TimerWheel, SameTimestampPostsFireInSeqOrderAcrossCascadeBoundaries) {
  // Timestamps straddle every boundary the levels have below the top: both
  // sides of level 0's edge, and each upper level's base and the instant
  // after it. Posts are interleaved across the timestamps (insertion-
  // permuted), so same-instant FIFO has to survive both the permuted inserts
  // and the cascades that re-file the higher-level nodes.
  std::vector<std::int64_t> instants = {200, kLevel0Span - 1, kLevel0Span,
                                        kLevel0Span + 1};
  for (int level = 2; level < TimerWheel::kLevels; ++level) {
    instants.push_back(level_base(level));
    instants.push_back(level_base(level) + 1);
  }
  TimerWheel w;
  std::uint64_t seq = 0;
  for (int round = 0; round < 5; ++round) {
    // Alternate sweep direction so insertion order != timestamp order.
    if (round % 2 == 0) {
      for (const std::int64_t at : instants) w.schedule(at, seq++, 0, [] {});
    } else {
      for (auto it = instants.rbegin(); it != instants.rend(); ++it) {
        w.schedule(*it, seq++, 0, [] {});
      }
    }
  }
  expect_heap_order(drain_all(w), seq);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, FarFutureEventsBeyondTopLevelFireInOrder) {
  // Events past the wheel's span live in the overflow list until the
  // wheel's window catches up; interleave them with near events and with
  // each other across two distinct far windows.
  TimerWheel w;
  std::uint64_t seq = 0;
  w.schedule(kWheelSpan + 5, seq++, 0, [] {});
  w.schedule(10, seq++, 0, [] {});
  w.schedule(2 * kWheelSpan + 1, seq++, 0, [] {});
  w.schedule(kWheelSpan + 5, seq++, 0, [] {});  // same far instant, later seq
  w.schedule(kWheelSpan - 1, seq++, 0, [] {});
  w.schedule(2 * kWheelSpan, seq++, 0, [] {});
  expect_heap_order(drain_all(w), seq);
}

TEST(TimerWheel, DelaysWithinTheLevel0SpanNeverCascade) {
  // The near-horizon gate: a stream of sub-span delays (frame airtimes,
  // ACK/response timers) filed from a level-0 window base is filed at its
  // exact microsecond and fires without a single cascade, whichever window
  // the clock is in.
  std::mt19937_64 rng(0x5EEDu);
  for (const std::int64_t base : {std::int64_t{0}, 37 * kLevel0Span,
                                  level_base(3) + 5 * kLevel0Span}) {
    TimerWheel w;
    std::uint64_t seq = 0;
    TimerWheel::Fired ev;
    if (base > 0) {  // park the clock on the window base
      w.schedule(base, seq++, 0, [] {});
      ASSERT_TRUE(w.pop_due(base, &ev));
      ASSERT_EQ(w.clock(), base);
    }
    const std::uint64_t cascades_before = w.cascades();
    const std::uint64_t first_seq = seq;
    for (std::int64_t i = 0; i < 4 * kLevel0Span; ++i) {
      const auto delay = static_cast<std::int64_t>(rng() % kLevel0Span);
      w.schedule(base + delay, seq++, 0, [] {});
    }
    auto fired = drain_all(w);
    expect_heap_order(fired, seq - first_seq);
    EXPECT_EQ(w.cascades(), cascades_before)
        << "a sub-span delay was filed above level 0 (window base " << base
        << ")";
  }
}

TEST(TimerWheel, NextDueRespectsLimitWithoutPopping) {
  TimerWheel w;
  w.schedule(1000, 0, 0, [] {});
  EXPECT_EQ(w.next_due(999), TimerWheel::kNone);
  EXPECT_EQ(w.next_due(1000), 1000);
  EXPECT_EQ(w.size(), 1u);  // probing never popped
  TimerWheel::Fired ev;
  EXPECT_FALSE(w.pop_due(999, &ev));
  EXPECT_TRUE(w.pop_due(1000, &ev));
  EXPECT_EQ(ev.at_us, 1000);
  EXPECT_TRUE(w.empty());
}

// ---- Simulator-level behavior (cancel, late inserts, heap oracle) ----------

TEST(TimerWheelSim, CancelAfterCascadeIsHonored) {
  // The timer sits two levels up at schedule time; running the clock close
  // to (but short of) its instant cascades it down through level 1 into
  // level 0. Cancelling after those cascades must still suppress the fire —
  // cancellation lives in the token slab, not in any wheel slot.
  const std::int64_t at = level_base(2) + 3 * kLevel0Span + 10;
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_at(Time::micros(at), [&] { ++fired; });
  sim.post_at(Time::micros(at - 10), [] {});
  sim.run_until(Time::micros(at - 5));  // cascades `at` down to level 0
  EXPECT_EQ(sim.scheduler_cascades(), 2u);
  h.cancel();
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  // A cancelled discard never advances the clock (same as the heap path).
  EXPECT_EQ(sim.now(), Time::micros(at - 5));
}

TEST(TimerWheelSim, ScheduleBehindWheelCursorAfterCancelledRun) {
  // Regression for the late-heap path: popping a run of cancelled timers
  // advances the wheel cursor to their instants while now() stays put
  // (nothing executes). The next schedule_at(now()+1) is then behind the
  // cursor and must still fire — in exact (at, seq) order against events
  // scheduled wheel-side at the same time.
  Simulator sim;
  std::vector<sim::TimerHandle> handles;
  handles.reserve(64);
  for (int wave = 0; wave < 8; ++wave) {
    handles.clear();
    const Time base = sim.now() + Time::micros(1);
    for (int i = 0; i < 64; ++i) {
      handles.push_back(
          sim.schedule_at(base + Time::micros(i % 17), [] { FAIL(); }));
    }
    for (auto& h : handles) h.cancel();
    sim.run_all();  // cursor now sits at base + 16; now() unchanged
  }
  std::vector<int> order;
  order.reserve(3);
  sim.schedule_at(sim.now() + Time::micros(1), [&] { order.push_back(0); });
  sim.schedule_at(sim.now() + Time::micros(1), [&] { order.push_back(1); });
  sim.post_at(sim.now() + Time::micros(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Brute-force reference scheduler for the randomized script below: a
// std::priority_queue on (at, seq) with a cancelled flag per event, drained
// with the Simulator's run_until semantics (cancelled events are discarded
// when they come due; the clock ends at the limit).
class HeapOracle {
 public:
  std::size_t schedule(std::int64_t at_us) {
    queue_.emplace(at_us, next_seq_++, cancelled_.size());
    cancelled_.push_back(false);
    return cancelled_.size() - 1;
  }
  void cancel(std::size_t id) { cancelled_[id] = true; }
  void run_until(std::int64_t limit_us, std::vector<std::size_t>& fired) {
    while (!queue_.empty() && std::get<0>(queue_.top()) <= limit_us) {
      const std::size_t id = std::get<2>(queue_.top());
      queue_.pop();
      if (cancelled_[id]) {
        ++discarded_;
      } else {
        fired.push_back(id);
      }
    }
    now_us_ = limit_us;
  }
  std::int64_t now_us() const { return now_us_; }
  std::uint64_t discarded() const { return discarded_; }

 private:
  using Entry = std::tuple<std::int64_t, std::uint64_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<bool> cancelled_;
  std::uint64_t next_seq_ = 0;
  std::int64_t now_us_ = 0;
  std::uint64_t discarded_ = 0;
};

TEST(TimerWheelSim, RandomizedChurnMatchesHeapReference) {
  // The same seeded schedule/cancel/advance script executed on the wheel
  // simulator and on the heap oracle must fire the identical event sequence
  // and discard the same cancelled events.
  Simulator sim;
  HeapOracle oracle;
  std::vector<std::size_t> fired;
  std::vector<std::size_t> expected;
  std::mt19937_64 rng(0xC0FFEEu);
  std::vector<sim::TimerHandle> handles;
  handles.reserve(4096);
  for (int step = 0; step < 2000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 55) {
      // Mixed horizons: mostly near, some mid, a few far enough to climb
      // several levels, a trickle beyond the top-level span.
      // The near bucket straddles level 0's edge, so sub-span delays land
      // on both sides of a window boundary as the clock wanders.
      const auto bucket = rng() % 100;
      std::int64_t delay;
      if (bucket < 70) {
        delay = static_cast<std::int64_t>(rng() % (2 * kLevel0Span));
      } else if (bucket < 90) {
        delay = static_cast<std::int64_t>(rng() % level_base(2));
      } else if (bucket < 99) {
        delay = static_cast<std::int64_t>(rng() % (1ll << 34));
      } else {
        delay = kWheelSpan + static_cast<std::int64_t>(rng() % 1024);
      }
      const std::size_t id = oracle.schedule(oracle.now_us() + delay);
      ASSERT_EQ(id, handles.size());
      handles.push_back(sim.schedule_after(
          Time::micros(delay), [&fired, id] { fired.push_back(id); }));
    } else if (roll < 75 && !handles.empty()) {
      const std::size_t id = rng() % handles.size();
      handles[id].cancel();
      oracle.cancel(id);
    } else {
      const auto advance = static_cast<std::int64_t>(rng() % kLevel0Span);
      sim.run_for(Time::micros(advance));
      oracle.run_until(oracle.now_us() + advance, expected);
    }
  }
  sim.run_until(sim.now() + Time::micros(1ll << 36));
  oracle.run_until(oracle.now_us() + (1ll << 36), expected);
  EXPECT_EQ(sim.now(), Time::micros(oracle.now_us()));
  EXPECT_EQ(fired, expected) << "wheel fire order diverged from (at, seq)";
  EXPECT_EQ(sim.events_executed(), expected.size());
  EXPECT_EQ(sim.events_cancelled(), oracle.discarded());
  EXPECT_GT(oracle.discarded(), 0u);
}

TEST(TimerWheelSim, WarmScheduleFireCancelIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  std::vector<sim::TimerHandle> handles;
  handles.reserve(256);
  // Warm-up: grow the node pool, the token slab, the handle vector, and run
  // one full wave so every container has seen its high-water mark.
  for (int i = 0; i < 256; ++i) {
    handles.push_back(
        sim.schedule_after(Time::micros(1 + i % 97), [&sink] { ++sink; }));
  }
  for (int i = 0; i < 128; ++i) handles[i].cancel();
  sim.run_all();
  handles.clear();
  {
    core::ScopedAllocGuard guard("warm wheel schedule/fire/cancel");
    for (int wave = 0; wave < 16; ++wave) {
      for (int i = 0; i < 256; ++i) {
        handles.push_back(
            sim.schedule_after(Time::micros(1 + i % 97), [&sink] { ++sink; }));
      }
      for (int i = 0; i < 128; ++i) handles[i].cancel();
      sim.run_all();
      handles.clear();
    }
  }
  EXPECT_EQ(sink, 128u + 16u * 128u);
}

}  // namespace
}  // namespace spider
