// Hierarchical timing wheel — the simulator's O(1) event scheduler.
//
// A Varghese/Lauck-style cascading wheel at 1 us granularity: six levels of
// 256 slots each, so level l buckets events by byte l of their absolute
// microsecond timestamp and the wheel spans 2^48 us (~8.9 sim-years) before
// the far-future overflow list takes over. schedule() is O(1): pick the
// highest byte where the event time differs from the wheel clock, append to
// that level's slot. Firing pops the current level-0 slot in list order;
// advancing across empty space walks per-level occupancy bitmaps (four
// 64-bit words per level), so idle gaps cost O(levels) word scans, not one
// heap sift per pending timer.
//
// Determinism contract (the property Simulator's digest gates): events fire
// in exactly (at, seq) order — the total order an (at, seq) min-heap would
// produce — without any per-pop comparison. The argument: within any slot,
// list order is seq order. Direct inserts append in schedule order (seq is
// monotone). A slot cascades exactly when the clock reaches its window base,
// and a direct insert into the lower level is only possible at or after that
// base (the byte prefix has to match the clock), i.e. strictly after the
// cascade — so cascaded nodes, themselves in seq order, always precede every
// later direct insert. Re-placement from the overflow list happens at the
// top-level window boundary under the same argument. Cancellation stays in
// the simulator's generation-token slab (lazy: cancelled nodes are dropped
// when their slot fires), so cancel is O(1) and never touches the wheel.
//
// Nodes are pooled: a slab of intrusive singly-linked nodes with a free
// list, so warm schedule/fire/cancel performs no heap allocation (proven
// under core::ScopedAllocGuard in tests/timer_wheel_test.cc). The wheel
// clock may lag the simulator clock (it advances only while searching for
// due work); correctness needs only clock <= every WHEEL-resident
// timestamp.
//
// The one place the wheel clock can instead pass the SIM clock is lazy
// cancellation: popping a run of cancelled events advances the wheel cursor
// to their timestamps while now() stays put (nothing executed). A
// subsequent schedule between the two clocks — legal for the simulator,
// behind the cursor for the wheel — lands in a small (at, seq) min-heap
// (late_) that drains before the wheel: every late timestamp is strictly
// below every wheel-resident one, so the global fire order is still exactly
// (at, seq). Real runs rarely touch it (cancellations come from responses,
// which execute and drag now() along); all-cancelled churn is its stress.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.h"

namespace spider::sim {

class TimerWheel {
 public:
  // "No tick" sentinel for next_due(); also the pop_due() miss marker.
  static constexpr std::int64_t kNone = -1;

  // One event popped out of the wheel, ready to execute.
  struct Fired {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;
    std::uint32_t token = 0;
    SmallFn fn;
  };

  TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Appends an event. at_us may be behind clock() (the late-insert case in
  // the class comment) but must be at or after the latest pop_due() result.
  // seq values must be strictly increasing across calls — they are what
  // same-instant FIFO ordering hangs on.
  void schedule(std::int64_t at_us, std::uint64_t seq, std::uint32_t token,
                SmallFn fn);

  // Pops the earliest pending event with timestamp <= limit_us into *out.
  // Returns false (leaving the wheel untouched beyond lazily-performed
  // cascades) when nothing is due by the limit. Events sharing a timestamp
  // pop in seq order.
  bool pop_due(std::int64_t limit_us, Fired* out);

  // Timestamp of the earliest pending event if it is <= limit_us, else
  // kNone. May cascade internally (deterministically); never pops.
  std::int64_t next_due(std::int64_t limit_us);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::int64_t clock() const { return clock_; }

  // Observability: lifetime cascade count and the pooled-slab footprint.
  std::uint64_t cascades() const { return cascades_; }
  std::size_t node_capacity() const { return nodes_.capacity(); }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;           // 256
  static constexpr int kLevels = 6;                       // spans 2^48 us
  static constexpr int kWords = kSlots / 64;              // bitmap words/level
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr int kSpanBits = kSlotBits * kLevels;   // 48

  struct Node {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;
    std::uint32_t token = 0;
    std::uint32_t next = kNil;
    SmallFn fn;
  };

  std::uint32_t acquire_node();
  void release_node(std::uint32_t idx);
  // The late_ (at, seq) min-heap: inserts behind the wheel cursor.
  bool late_before(std::uint32_t a, std::uint32_t b) const;
  void late_push(std::uint32_t idx);
  std::uint32_t late_pop();
  // Files the node into (level, slot) by byte prefix against clock_, or into
  // the overflow list when it lies beyond the top-level window.
  void place(std::uint32_t idx);
  void append(int level, int slot, std::uint32_t idx);
  // Empties (level, slot) and re-places every node one level down, in list
  // (= seq) order. Only legal once the clock sits at the slot's window base.
  void cascade(int level, int slot);
  // Moves overflow nodes whose top bits now match the clock into the levels,
  // preserving seq order.
  void refill_from_overflow();
  // Advances the clock to the earliest due tick <= limit_us (cascading along
  // the way) and returns it, or returns kNone with the clock <= limit_us.
  std::int64_t find_due(std::int64_t limit_us);

  int first_set_at_or_after(int level, int from) const;
  void set_bit(int level, int slot) {
    occ_[level][slot >> 6] |= 1ull << (slot & 63);
  }
  void clear_bit(int level, int slot) {
    occ_[level][slot >> 6] &= ~(1ull << (slot & 63));
  }
  std::uint32_t& head(int level, int slot) {
    return head_[level * kSlots + slot];
  }
  std::uint32_t& tail(int level, int slot) {
    return tail_[level * kSlots + slot];
  }

  // Slot lists as parallel index arrays (fixed footprint, no per-slot
  // containers): 6 x 256 head/tail pairs.
  std::uint32_t head_[kLevels * kSlots];
  std::uint32_t tail_[kLevels * kSlots];
  std::uint64_t occ_[kLevels][kWords] = {};
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  // Far-future events (beyond 2^48 us of the clock's window), in insertion
  // (= seq) order; re-scanned only when every level runs dry.
  std::vector<std::uint32_t> overflow_;
  // Events scheduled behind the wheel cursor (see class comment): a binary
  // min-heap on (at, seq) over node indices, drained before the wheel.
  std::vector<std::uint32_t> late_;
  std::int64_t clock_ = 0;
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;
};

}  // namespace spider::sim
