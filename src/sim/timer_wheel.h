// Hierarchical timing wheel — the simulator's O(1) event scheduler.
//
// A Varghese/Lauck-style cascading wheel at 1 us granularity with a wide
// near horizon. Level 0 has 4096 slots (12 bits, 4.096 ms), more than twice
// the longest 802.11b frame of the paper worlds (a 1500 B frame at the
// medium's 11 Mb/s plus the 192 us long preamble is ~1.3 ms on air), so
// PHY/MAC delays are filed once, straight into their exact microsecond, and
// cascade (once) only when they straddle a 4.096 ms window edge. Five upper
// levels of 256 slots bucket the remaining bits (12-19, 20-27, ..., 44-51),
// so the wheel spans 2^52 us (~143 sim-years) before the far-future
// overflow list takes over.
// schedule() is O(1): pick the level from the highest bit where the event
// time differs from the wheel clock, append to that level's slot. Firing
// pops the current level-0 slot in list order; advancing across empty space
// walks occupancy bitmaps (a summary word over level 0's 64 words, four
// words per upper level), so idle gaps cost a few word scans, not one heap
// sift per pending timer. A slot's bitmap bit is its validity: a clear bit
// means the slot's {head, tail} pair is garbage, so construction writes no
// slot storage.
//
// Determinism contract (the property Simulator's digest gates): events fire
// in exactly (at, seq) order — the total order an (at, seq) min-heap would
// produce — without any per-pop comparison. The argument: within any slot,
// list order is seq order. Direct inserts append in schedule order (seq is
// monotone). A slot cascades exactly when the clock reaches its window base,
// and a direct insert into the lower level is only possible at or after that
// base (the bit prefix has to match the clock), i.e. strictly after the
// cascade — so cascaded nodes, themselves in seq order, always precede every
// later direct insert. Re-placement from the overflow list happens at the
// top-level window boundary under the same argument. Cancellation stays in
// the simulator's generation-token slab (lazy: cancelled nodes are dropped
// when their slot fires), so cancel is O(1) and never touches the wheel.
//
// Nodes are pooled: a slab of intrusive singly-linked nodes with a free
// list, so warm schedule/fire/cancel performs no heap allocation (proven
// under core::ScopedAllocGuard in tests/timer_wheel_test.cc). A callable is
// relocated once into its node on schedule and once out of it on pop. The
// wheel clock may lag the simulator clock (it advances only while searching
// for due work); correctness needs only clock <= every WHEEL-resident
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

  // Geometry. Level 0 buckets the low kLevel0Bits of the timestamp; upper
  // level l (1..kUpperLevels) buckets kUpperBits more, starting at bit
  // level_shift(l). Events 2^kSpanBits us or more past the clock's window
  // wait in the overflow list.
  static constexpr int kLevel0Bits = 12;  // 4096 x 1 us = 4.096 ms
  static constexpr int kUpperBits = 8;
  static constexpr int kUpperLevels = 5;
  static constexpr int kLevels = 1 + kUpperLevels;
  static constexpr int kSpanBits = kLevel0Bits + kUpperBits * kUpperLevels;
  static_assert(kSpanBits >= 48, "the wheel must span at least 2^48 us");
  // Lowest timestamp bit that level `level` buckets on (0 for level 0).
  static constexpr int level_shift(int level) {
    return level == 0 ? 0 : kLevel0Bits + kUpperBits * (level - 1);
  }

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

  // Appends an event; fn is relocated into the event's pooled node. at_us
  // may be behind clock() (the late-insert case in the class comment) but
  // must be at or after the latest pop_due() result. seq values must be
  // strictly increasing across calls — they are what same-instant FIFO
  // ordering hangs on.
  void schedule(std::int64_t at_us, std::uint64_t seq, std::uint32_t token,
                SmallFn&& fn);

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
  static constexpr int kLevel0Slots = 1 << kLevel0Bits;
  static constexpr int kLevel0Words = kLevel0Slots / 64;
  static_assert(kLevel0Words <= 64, "one summary word covers level 0");
  static constexpr int kUpperSlots = 1 << kUpperBits;
  static constexpr int kUpperWords = kUpperSlots / 64;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;
    std::uint32_t token = 0;
    std::uint32_t next = kNil;
    SmallFn fn;
  };

  // One slot's intrusive list. Meaningful only while the slot's occupancy
  // bit is set; a clear bit means empty, whatever the pair holds.
  struct SlotList {
    std::uint32_t head;
    std::uint32_t tail;
  };

  std::uint32_t acquire_node();
  void release_node(std::uint32_t idx);
  // The late_ (at, seq) min-heap: inserts behind the wheel cursor.
  bool late_before(std::uint32_t a, std::uint32_t b) const;
  void late_push(std::uint32_t idx);
  std::uint32_t late_pop();
  // Files the node into (level, slot) by bit prefix against clock_, or into
  // the overflow list when it lies beyond the top-level window.
  void place(std::uint32_t idx);
  // Appends idx to a slot list whose occupancy word is `word` (bit `bit`);
  // returns true when the slot was empty before.
  bool append(SlotList& list, std::uint64_t& word, std::uint64_t bit,
              std::uint32_t idx);
  // Empties upper (level, slot) and re-places every node lower down, in
  // list (= seq) order. Only legal once the clock sits at the slot's window
  // base.
  void cascade(int level, int slot);
  // Moves overflow nodes whose top bits now match the clock into the levels,
  // preserving seq order.
  void refill_from_overflow();
  // Advances the clock to the earliest due tick <= limit_us (cascading along
  // the way) and returns it, or returns kNone with the clock <= limit_us.
  std::int64_t find_due(std::int64_t limit_us);

  // First occupied slot at or after `from`, or -1.
  int first_level0_at_or_after(int from) const;
  int first_upper_at_or_after(int level, int from) const;
  void clear_level0(int slot) {
    std::uint64_t& word = occ0_[slot >> 6];
    word &= ~(1ull << (slot & 63));
    if (word == 0) occ0_summary_ &= ~(1ull << (slot >> 6));
  }
  SlotList& upper(int level, int slot) { return upper_[level - 1][slot]; }
  std::uint64_t& upper_word(int level, int slot) {
    return occ_upper_[level - 1][slot >> 6];
  }

  // Slot lists (fixed footprint, no per-slot containers). Deliberately left
  // uninitialised: the occupancy bits below say which pairs are live.
  SlotList level0_[kLevel0Slots];
  SlotList upper_[kUpperLevels][kUpperSlots];
  std::uint64_t occ0_[kLevel0Words] = {};
  std::uint64_t occ0_summary_ = 0;  // bit w set <=> occ0_[w] != 0
  std::uint64_t occ_upper_[kUpperLevels][kUpperWords] = {};
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_list_;
  // Far-future events (beyond 2^kSpanBits us of the clock's window), in
  // insertion (= seq) order; re-scanned only when every level runs dry.
  std::vector<std::uint32_t> overflow_;
  // Events scheduled behind the wheel cursor (see class comment): a binary
  // min-heap on (at, seq) over node indices, drained before the wheel.
  std::vector<std::uint32_t> late_;
  std::int64_t clock_ = 0;
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;
};

}  // namespace spider::sim
