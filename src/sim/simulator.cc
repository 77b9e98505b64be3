#include "sim/simulator.h"

#include <utility>

#include "core/check.h"

namespace spider::sim {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix at two multiplies. The
// digest runs once per executed event, so this replaced a byte-wise FNV-1a
// (8 multiplies per folded word) as part of the hot-path rework; the digest
// has no golden values anywhere — only run-to-run equality matters — so the
// hash function is free to be as cheap as avalanche quality allows.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Hash of one executed (time, event-id) pair. Pairs within an instant are
// combined with wrapping addition (commutative), so the per-instant
// accumulator identifies the executed set regardless of pop order details.
constexpr std::uint64_t event_hash(std::int64_t at_us, std::uint64_t seq) {
  return mix64(static_cast<std::uint64_t>(at_us) * 0x9e3779b97f4a7c15ull ^
               seq);
}

// Closes an instant: mixes (time, accumulator, count) into the digest.
constexpr std::uint64_t fold(std::uint64_t digest, std::int64_t instant_us,
                             std::uint64_t acc, std::uint64_t count) {
  digest = mix64(digest ^ mix64(static_cast<std::uint64_t>(instant_us)));
  digest = mix64(digest ^ acc);
  return mix64(digest ^ count);
}

}  // namespace

namespace detail {

std::uint32_t TokenSlab::acquire() {
  if (!free_list.empty()) {
    const std::uint32_t slot = free_list.back();
    free_list.pop_back();
    slots[slot].cancelled = false;
    slots[slot].active = true;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots.size());
  slots.push_back(Slot{0, false, true});
  return slot;
}

void TokenSlab::release(std::uint32_t slot) {
  SPIDER_DCHECK(slot < slots.size() && slots[slot].active)
      << "token slab release of slot " << slot;
  ++slots[slot].generation;  // invalidates every outstanding handle
  slots[slot].active = false;
  slots[slot].cancelled = false;
  free_list.push_back(slot);
}

}  // namespace detail

void TimerHandle::cancel() {
  if (slab_ && slab_->matches(slot_, generation_)) {
    slab_->slots[slot_].cancelled = true;
  }
}

bool TimerHandle::pending() const {
  return slab_ && slab_->matches(slot_, generation_) &&
         !slab_->cancelled(slot_);
}

Simulator::Simulator() : tokens_(std::make_shared<detail::TokenSlab>()) {
  telemetry_.add_collector([this](telemetry::Registry& registry) {
    registry.counter("sim.events_posted").inc(
        posted_ - registry.counter("sim.events_posted").value());
    registry.counter("sim.events_fired").inc(
        executed_ - registry.counter("sim.events_fired").value());
    registry.counter("sim.events_cancelled").inc(
        cancelled_ - registry.counter("sim.events_cancelled").value());
    auto& depth = registry.gauge("sim.queue_depth");
    depth.set(static_cast<std::int64_t>(depth_high_water_));
    depth.set(static_cast<std::int64_t>(pending_events()));
  });
}

Simulator::~Simulator() { tokens_->dead = true; }

SPIDER_HOT TimerHandle Simulator::schedule_at(Time at, SmallFn&& fn) {
  // Scheduling in the past is an invariant violation, not a recoverable
  // error: see src/core/check.h for the exceptions-vs-checks policy. Under
  // kLogAndCount the event is clamped to now() so the run can continue.
  SPIDER_CHECK(at >= now_) << "schedule_at(" << at.to_string()
                           << ") behind clock " << now_.to_string();
  if (at < now_) at = now_;
  const std::uint32_t slot = tokens_->acquire();
  const std::uint32_t generation = tokens_->slots[slot].generation;
  wheel_.schedule(at.us(), next_seq_++, slot, std::move(fn));
  note_push();
  return TimerHandle{tokens_, slot, generation};
}

SPIDER_HOT TimerHandle Simulator::schedule_after(Time delay, SmallFn&& fn) {
  SPIDER_CHECK(!delay.is_negative())
      << "schedule_after(" << delay.to_string() << ") with negative delay";
  if (delay.is_negative()) delay = Time::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

SPIDER_HOT void Simulator::post_at(Time at, SmallFn&& fn) {
  SPIDER_CHECK(at >= now_) << "post_at(" << at.to_string()
                           << ") behind clock " << now_.to_string();
  if (at < now_) at = now_;
  wheel_.schedule(at.us(), next_seq_++, kNoToken, std::move(fn));
  note_push();
}

SPIDER_HOT void Simulator::post_after(Time delay, SmallFn&& fn) {
  SPIDER_CHECK(!delay.is_negative())
      << "post_after(" << delay.to_string() << ") with negative delay";
  if (delay.is_negative()) delay = Time::zero();
  post_at(now_ + delay, std::move(fn));
}

void Simulator::trace_queue_depth(std::int64_t ts_us) {
  if (!telemetry_.trace().enabled()) return;
  const std::size_t depth = pending_events();
  if (depth == last_traced_depth_) return;
  last_traced_depth_ = depth;
  telemetry_.trace().counter("sim.queue_depth", "sim", ts_us,
                             static_cast<std::int64_t>(depth));
}

SPIDER_HOT void Simulator::fold_instant() {
  digest_ = fold(digest_, instant_us_, instant_acc_, instant_count_);
  instant_acc_ = 0;
  instant_count_ = 0;
}

std::uint64_t Simulator::digest() const {
  if (instant_count_ == 0) return digest_;
  return fold(digest_, instant_us_, instant_acc_, instant_count_);
}

// The drain loop itself owns a zero budget: every allocation in a steady-
// state run must come from an event's fn, never the dispatch machinery.
SPIDER_HOT void Simulator::drain(Time limit) {
  stopped_ = false;
  TimerWheel::Fired ev;
  while (!stopped_ && wheel_.pop_due(limit.us(), &ev)) {
    if (ev.token != kNoToken) {
      const bool cancelled = tokens_->cancelled(ev.token);
      // Release before running fn: pending() is false for a firing event,
      // and fn is free to schedule new events that recycle the slot (the
      // bumped generation keeps old handles inert).
      tokens_->release(ev.token);
      if (cancelled) {
        ++cancelled_;
        continue;
      }
    }
    // Event-queue monotonicity: the wheel must never surface an event behind
    // the clock — schedule_at() rejects past times, so a violation here means
    // a cascade bug, and every digest after it is junk.
    SPIDER_CHECK(ev.at_us >= now_.us())
        << "event seq " << ev.seq << " at " << ev.at_us
        << "us behind clock " << now_.to_string();
    if (instant_count_ > 0 && ev.at_us != instant_us_) {
      fold_instant();
      trace_queue_depth(ev.at_us);
      // Live-stream cadence hook, at instant boundaries only so a publish
      // can never observe (or interleave with) a half-executed instant. One
      // branch when no stream is attached; publishing reads metrics and
      // appends rendered lines to the stream — it schedules nothing,
      // consumes no randomness, and never touches the digest.
      telemetry_.maybe_publish_stream(ev.at_us);
    }
    instant_us_ = ev.at_us;
    instant_acc_ += event_hash(ev.at_us, ev.seq);
    ++instant_count_;
    now_ = Time::micros(ev.at_us);
    ++executed_;
    ev.fn();
  }
  // Drain boundary: everything bumped off the arena during this drain is
  // dead now (the lifetime contract its users sign). Pure cursor rewind —
  // capacity is retained, so a warm drain's reset never allocates.
  arena_.reset();
}

void Simulator::run_until(Time limit) {
  SPIDER_CHECK(limit >= now_) << "run_until(" << limit.to_string()
                              << ") would rewind clock at "
                              << now_.to_string();
  drain(limit);
  if (!stopped_ && now_ < limit) now_ = limit;
}

void Simulator::run_all() {
  // Clock ends at the last executed event; it does not jump to infinity.
  drain(Time::max());
}

}  // namespace spider::sim
