#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/check.h"

namespace spider::sim {

TimerWheel::TimerWheel() {
  // No slot storage is written: an occupancy bit of 0 marks a slot empty.
  nodes_.reserve(64);
  free_list_.reserve(nodes_.capacity());
  overflow_.reserve(8);
  late_.reserve(8);
}

std::uint32_t TimerWheel::acquire_node() {
  if (!free_list_.empty()) {
    const std::uint32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  // Cold growth only: once the pool has grown to the run's high-water mark,
  // every schedule recycles through the free list. Keep the free list's
  // capacity at least the pool's so release_node never reallocates warm.
  if (free_list_.capacity() < nodes_.capacity()) {
    free_list_.reserve(nodes_.capacity());
  }
  return idx;
}

void TimerWheel::release_node(std::uint32_t idx) {
  nodes_[idx].next = kNil;
  free_list_.push_back(idx);
}

SPIDER_HOT void TimerWheel::schedule(std::int64_t at_us, std::uint64_t seq,
                                     std::uint32_t token, SmallFn&& fn) {
  const std::uint32_t idx = acquire_node();
  Node& n = nodes_[idx];
  n.at_us = at_us;
  n.seq = seq;
  n.token = token;
  n.fn = std::move(fn);
  if (at_us < clock_) {
    // Behind the wheel cursor (cancelled pops moved it past the sim clock):
    // park in the late heap, which drains strictly before the wheel.
    late_push(idx);
  } else {
    place(idx);
  }
  ++size_;
}

bool TimerWheel::late_before(std::uint32_t a, std::uint32_t b) const {
  const Node& x = nodes_[a];
  const Node& y = nodes_[b];
  if (x.at_us != y.at_us) return x.at_us < y.at_us;
  return x.seq < y.seq;
}

void TimerWheel::late_push(std::uint32_t idx) {
  late_.push_back(idx);
  std::size_t i = late_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!late_before(late_[i], late_[parent])) break;
    std::swap(late_[i], late_[parent]);
    i = parent;
  }
}

std::uint32_t TimerWheel::late_pop() {
  const std::uint32_t top = late_.front();
  late_.front() = late_.back();
  late_.pop_back();
  const std::size_t n = late_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t m = i;
    if (l < n && late_before(late_[l], late_[m])) m = l;
    if (r < n && late_before(late_[r], late_[m])) m = r;
    if (m == i) break;
    std::swap(late_[i], late_[m]);
    i = m;
  }
  return top;
}

SPIDER_HOT void TimerWheel::place(std::uint32_t idx) {
  const auto at = static_cast<std::uint64_t>(nodes_[idx].at_us);
  const std::uint64_t diff = at ^ static_cast<std::uint64_t>(clock_);
  if (diff < kLevel0Slots) {
    // Inside the clock's level-0 window (diff == 0 means "due now"): the
    // low bits are the exact microsecond slot.
    const int slot = static_cast<int>(at & (kLevel0Slots - 1));
    if (append(level0_[slot], occ0_[slot >> 6], 1ull << (slot & 63), idx)) {
      occ0_summary_ |= 1ull << (slot >> 6);
    }
    return;
  }
  if ((diff >> kSpanBits) != 0) {
    // Beyond the top-level window: parked until the clock's top bits catch
    // up. Rare by construction (2^kSpanBits us ahead), so the list growth
    // is cold.
    overflow_.push_back(idx);
    return;
  }
  // The highest differing bit picks the upper level; that level's bits of
  // the absolute time pick the slot.
  const int msb = 63 - std::countl_zero(diff);
  const int level = 1 + (msb - kLevel0Bits) / kUpperBits;
  const int slot = static_cast<int>((at >> level_shift(level)) &
                                    (kUpperSlots - 1));
  append(upper(level, slot), upper_word(level, slot), 1ull << (slot & 63),
         idx);
}

SPIDER_HOT bool TimerWheel::append(SlotList& list, std::uint64_t& word,
                                   std::uint64_t bit, std::uint32_t idx) {
  nodes_[idx].next = kNil;
  if ((word & bit) == 0) {
    word |= bit;
    list = SlotList{idx, idx};
    return true;
  }
  nodes_[list.tail].next = idx;
  list.tail = idx;
  return false;
}

void TimerWheel::cascade(int level, int slot) {
  std::uint32_t idx = upper(level, slot).head;
  upper_word(level, slot) &= ~(1ull << (slot & 63));
  while (idx != kNil) {
    const std::uint32_t next = nodes_[idx].next;
    place(idx);  // this level's bits now match the clock: lands lower down
    idx = next;
  }
  ++cascades_;
}

void TimerWheel::refill_from_overflow() {
  // Stable partition: nodes whose top bits entered the wheel's window get
  // placed (in insertion = seq order); later windows stay parked.
  const std::uint64_t window = static_cast<std::uint64_t>(clock_) >> kSpanBits;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const std::uint32_t idx = overflow_[i];
    if ((static_cast<std::uint64_t>(nodes_[idx].at_us) >> kSpanBits) ==
        window) {
      place(idx);
    } else {
      overflow_[kept++] = idx;
    }
  }
  overflow_.resize(kept);
}

int TimerWheel::first_level0_at_or_after(int from) const {
  const int word = from >> 6;
  const std::uint64_t bits = occ0_[word] & (~0ull << (from & 63));
  if (bits != 0) return (word << 6) + std::countr_zero(bits);
  if (word + 1 == kLevel0Words) return -1;
  const std::uint64_t later = occ0_summary_ & (~0ull << (word + 1));
  if (later == 0) return -1;
  const int w = std::countr_zero(later);
  return (w << 6) + std::countr_zero(occ0_[w]);
}

int TimerWheel::first_upper_at_or_after(int level, int from) const {
  if (from >= kUpperSlots) return -1;
  const std::uint64_t* occ = occ_upper_[level - 1];
  int word = from >> 6;
  std::uint64_t bits = occ[word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) return (word << 6) + std::countr_zero(bits);
    if (++word == kUpperWords) return -1;
    bits = occ[word];
  }
}

SPIDER_HOT std::int64_t TimerWheel::find_due(std::int64_t limit_us) {
  if (size_ == 0) return kNone;
  for (;;) {
    const auto clock = static_cast<std::uint64_t>(clock_);
    // Level 0 first: an occupied slot here IS an exact due microsecond (all
    // occupied level-0 slots are at or after the clock's index — earlier
    // ones would be in the past, which schedule() forbids).
    {
      constexpr std::uint64_t kMask = kLevel0Slots - 1;
      const int s = first_level0_at_or_after(static_cast<int>(clock & kMask));
      if (s >= 0) {
        const auto t = static_cast<std::int64_t>(
            (clock & ~kMask) | static_cast<std::uint64_t>(s));
        if (t > limit_us) return kNone;
        clock_ = t;
        return t;
      }
    }
    // Climb. The lowest non-empty level's first occupied slot bounds every
    // pending event from below by its window base: everything beneath lower
    // levels is empty, so jumping the clock straight to that base crosses
    // only empty slots, and the cascade there is the one the clock crossing
    // owes. Invariant: occupied slots at level >= 1 sit strictly after the
    // clock's index (an equal index would have matched a lower level).
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      const int shift = level_shift(level);
      const int idx = static_cast<int>((clock >> shift) & (kUpperSlots - 1));
      const int s = first_upper_at_or_after(level, idx + 1);
      if (s < 0) continue;
      const std::uint64_t window_mask = (1ull << (shift + kUpperBits)) - 1;
      const std::uint64_t base =
          (clock & ~window_mask) | (static_cast<std::uint64_t>(s) << shift);
      if (static_cast<std::int64_t>(base) > limit_us) return kNone;
      clock_ = static_cast<std::int64_t>(base);
      cascade(level, s);
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    // Every level is dry: all pending events are parked in the overflow
    // list, which by the placement rule lies entirely beyond the current
    // top-level window — so the earliest overflow timestamp's window base is
    // a safe clock target.
    SPIDER_DCHECK(!overflow_.empty())
        << "wheel counts " << size_ << " pending but holds none";
    std::int64_t min_at = nodes_[overflow_.front()].at_us;
    for (const std::uint32_t idx : overflow_) {
      min_at = std::min(min_at, nodes_[idx].at_us);
    }
    const std::int64_t base =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(min_at) &
                                  ~((1ull << kSpanBits) - 1));
    if (base > limit_us) return kNone;
    clock_ = std::max(clock_, base);
    refill_from_overflow();
  }
}

std::int64_t TimerWheel::next_due(std::int64_t limit_us) {
  // Late events are strictly earlier than everything wheel-resident, so a
  // non-empty late heap's top IS the global minimum.
  if (!late_.empty()) {
    const std::int64_t at = nodes_[late_.front()].at_us;
    return at <= limit_us ? at : kNone;
  }
  return find_due(limit_us);
}

SPIDER_HOT bool TimerWheel::pop_due(std::int64_t limit_us, Fired* out) {
  if (!late_.empty()) {
    if (nodes_[late_.front()].at_us > limit_us) return false;
    const std::uint32_t idx = late_pop();
    Node& n = nodes_[idx];
    out->at_us = n.at_us;
    out->seq = n.seq;
    out->token = n.token;
    out->fn = std::move(n.fn);
    release_node(idx);
    --size_;
    return true;
  }
  const std::int64_t t = find_due(limit_us);
  if (t == kNone) return false;
  // find_due parked the clock exactly on the due tick, so its level-0 slot
  // holds that microsecond's events in seq order; pop the head.
  const int slot = static_cast<int>(static_cast<std::uint64_t>(t) &
                                    (kLevel0Slots - 1));
  SlotList& list = level0_[slot];
  const std::uint32_t idx = list.head;
  Node& n = nodes_[idx];
  if (n.next == kNil) {
    clear_level0(slot);
  } else {
    list.head = n.next;
  }
  out->at_us = n.at_us;
  out->seq = n.seq;
  out->token = n.token;
  out->fn = std::move(n.fn);
  release_node(idx);
  --size_;
  return true;
}

}  // namespace spider::sim
