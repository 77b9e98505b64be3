// Deterministic discrete-event simulator.
//
// A Simulator owns an ordered queue of (time, sequence, callback) events — a
// hierarchical timing wheel (sim/timer_wheel.h; O(1) schedule and cancel).
// Events scheduled for the same instant fire in scheduling order, which makes
// runs bit-for-bit reproducible for a fixed seed. Timers are cancellable via
// the handle returned from schedule_at()/schedule_after().
//
// Hot-path design: callbacks are stored in SmallFn (48-byte inline buffer, no
// heap allocation for the common lambda captures), and cancellation state
// lives in a pooled token slab indexed by slot + generation counter instead
// of a per-event make_shared<bool>. Scheduling an event therefore performs no
// per-event heap allocation once the queue and slab have warmed up.
//
// Determinism is a *checked* property, not just a design intent: every
// executed event folds its (time, sequence) pair into a running 64-bit
// digest (see digest()), and tests/determinism_test.cc gates on identical
// digests across repeated seeded runs. Threading contract: a Simulator and
// everything scheduled on it belong to exactly one thread; parallelism comes
// from running independent simulators on independent threads (see
// core::SweepRunner), never from sharing one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arena.h"
#include "sim/small_fn.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"
#include "telemetry/hub.h"

namespace spider::sim {

class Simulator;

namespace detail {

// Pooled cancellation tokens, one slab per Simulator. A token is a (slot,
// generation) pair: slots are recycled through a free list and the slot's
// generation is bumped on every release, so a stale TimerHandle referring to
// a recycled slot simply mismatches and becomes inert. This replaces the old
// per-event shared_ptr<bool> (one heap allocation + refcount per event) with
// plain vector indexing.
struct TokenSlab {
  struct Slot {
    std::uint32_t generation = 0;
    bool cancelled = false;
    bool active = false;
  };

  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;
  // Set by ~Simulator so handles that outlive the simulator report not
  // pending (mirrors the old shared_ptr behaviour where the queue's copy
  // vanished with the simulator).
  bool dead = false;

  std::uint32_t acquire();
  void release(std::uint32_t slot);
  bool cancelled(std::uint32_t slot) const { return slots[slot].cancelled; }
  bool matches(std::uint32_t slot, std::uint32_t generation) const {
    return !dead && slot < slots.size() && slots[slot].active &&
           slots[slot].generation == generation;
  }
};

}  // namespace detail

// Cancellable reference to a scheduled event. Default-constructed handles are
// inert; cancel() after the event has fired (or on an inert handle) is a
// harmless no-op, so owners can cancel unconditionally in destructors.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel();
  // True while the underlying event is still queued and not cancelled.
  bool pending() const;

 private:
  friend class Simulator;
  TimerHandle(std::shared_ptr<detail::TokenSlab> slab, std::uint32_t slot,
              std::uint32_t generation)
      : slab_(std::move(slab)), slot_(slot), generation_(generation) {}

  std::shared_ptr<detail::TokenSlab> slab_;  // shared with the Simulator
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();

  // Non-copyable: handles and callbacks capture `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Every scheduling call takes its callable by rvalue reference: a lambda
  // argument becomes one SmallFn temporary at the call site, which the wheel
  // relocates once into the event's node.
  //
  // Schedules `fn` at absolute time `at`. Scheduling in the past is an
  // invariant violation (SPIDER_CHECK, fatal by default); under
  // check::Policy::kLogAndCount the event is clamped to now() and survives.
  TimerHandle schedule_at(Time at, SmallFn&& fn);
  // Schedules `fn` at now() + delay; negative delays violate the same check
  // and clamp to zero under kLogAndCount.
  TimerHandle schedule_after(Time delay, SmallFn&& fn);

  // Fire-and-forget variants: no cancellation token is allocated and no
  // handle is returned, which makes these the cheapest way to schedule.
  // Most events in a vehicular run — frame deliveries, beacon ticks, DHCP
  // server responses — are never cancelled; use these for them.
  void post_at(Time at, SmallFn&& fn);
  void post_after(Time delay, SmallFn&& fn);

  // Runs events until the queue drains or the limit is hit. Advances now()
  // to the limit even if the queue drains earlier, so back-to-back run_for()
  // calls tile time exactly.
  void run_until(Time limit);
  void run_for(Time duration) { run_until(now_ + duration); }
  // Runs until the queue is completely empty; now() ends at the last event.
  void run_all();

  // Makes run_* return after the current event completes; now() is left at
  // the interrupting event's timestamp.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return wheel_.size(); }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_posted() const { return posted_; }
  std::uint64_t events_cancelled() const { return cancelled_; }
  std::size_t queue_depth_high_water() const { return depth_high_water_; }

  // Lifetime cascade count of the wheel scheduler.
  std::uint64_t scheduler_cascades() const { return wheel_.cascades(); }

  // Per-world telemetry (metrics registry + trace recorder). The event-queue
  // counters above are plain members published through a Hub collector at
  // snapshot time, so the dispatch loop pays nothing for the registry.
  telemetry::Hub& telemetry() { return telemetry_; }
  const telemetry::Hub& telemetry() const { return telemetry_; }

  // Per-world bump arena for drain-scoped transients (delivery candidate
  // scratch, RadioMove batches, staging buffers). Reset at the END of every
  // drain, so nothing allocated from it may outlive the drain that made it;
  // per-event users should take a core::Arena::Scope. See DESIGN.md
  // "Memory layout" for the lifetime rules.
  core::Arena& arena() { return arena_; }

  // Running digest (splitmix64-style avalanche mix) over executed
  // (time, event-id) pairs. Two runs of the same scenario must produce
  // identical digests or the simulator is not deterministic. Events that
  // share an instant are folded commutatively, so the digest identifies the
  // *set* of events executed at each time — the property replays depend on —
  // independent of how a scenario happened to interleave its same-timestamp
  // insertions. Digests have no golden values: only run-to-run equality is
  // meaningful, so the mix function may change between revisions.
  std::uint64_t digest() const;

 private:
  void drain(Time limit);
  void fold_instant();
  // Samples pending_events() onto the sim.queue_depth counter track when
  // tracing is on and the depth changed since the last sample (one sample
  // per instant boundary at most, so the track stays readable).
  void trace_queue_depth(std::int64_t ts_us);

  // Sentinel token for fire-and-forget events (post_at/post_after).
  static constexpr std::uint32_t kNoToken = 0xFFFFFFFFu;

  // Event-queue accounting: hot members, kept adjacent to the queue state
  // they travel with; published as sim.* metrics by the collector the
  // constructor registers.
  void note_push() {
    ++posted_;
    const std::size_t depth = pending_events();
    if (depth > depth_high_water_) depth_high_water_ = depth;
  }

  TimerWheel wheel_;
  std::shared_ptr<detail::TokenSlab> tokens_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t depth_high_water_ = 0;
  // Last value emitted on the queue-depth counter track (-1 = none yet).
  std::size_t last_traced_depth_ = static_cast<std::size_t>(-1);
  bool stopped_ = false;
  telemetry::Hub telemetry_;
  core::Arena arena_;

  // Determinism digest state: digest_ covers all closed instants; the
  // instant_* fields accumulate the (still open) current instant.
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // arbitrary nonzero basis
  std::int64_t instant_us_ = 0;
  std::uint64_t instant_acc_ = 0;
  std::uint64_t instant_count_ = 0;
};

}  // namespace spider::sim
