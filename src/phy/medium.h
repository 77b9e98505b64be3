// Shared wireless medium.
//
// Radios register themselves with the medium; a transmission occupies the
// sender's channel for preamble + serialization time (CSMA-like: a busy
// channel defers the start of the next transmission, no collision model) and
// is then delivered to every other radio that is tuned to that channel,
// within range, and not mid-reset. Loss is an independent Bernoulli draw per
// receiver: a configurable uniform rate `base_loss` (the model's `h`) plus an
// optional quadratic degradation near the edge of the range disc.
//
// Memory layout: the per-radio fields the delivery and mobility paths touch
// live in a RadioHotStore (struct-of-arrays indexed by attach id) owned
// here, not in Radio — Radio keeps the id and reads through accessors. The
// per-channel partitions and the spatial grid hold ids into the store, so
// candidate loops stream contiguous arrays instead of chasing pointers; see
// DESIGN.md "Memory layout".
//
// Delivery: radios are partitioned by current channel (kept in sync through
// attach/detach/retune notifications from the Radio) and each partition is
// bucketed by a uniform spatial grid whose cell is the frame range, so one
// delivery touches only the O(candidates) radios in the 3x3 cell
// neighborhood of the sender instead of every radio in the world.
// The per-receiver loss draws run in ascending attach id: a partition keeps
// its members in attach order, so a partition scan is ordered by
// construction, and only grid gathers (whose bucket order follows movement
// history) are sorted. The RNG stream — and therefore the run digest — is
// independent of grid/bucket internals (tests check receive sets and
// callback order against an O(n) scan of raw positions, and grid against
// partition-scan digests).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/frame.h"
#include "phy/channel.h"
#include "phy/geom.h"
#include "phy/spatial_grid.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::phy {

class Radio;

struct MediumConfig {
  double range_m = 100.0;        // the paper's practical Wi-Fi range
  double base_loss = 0.10;       // uniform frame-loss probability `h`
  double bitrate_bps = 11e6;     // 802.11b wireless bandwidth `Bw`
  sim::Time preamble = sim::Time::micros(192);  // 802.11b long preamble
  // When true, loss ramps from base_loss at edge_start*range up to 1.0 at the
  // range edge, mimicking the fringe behaviour vehicular clients see (links
  // fade over seconds as the car drives off, instead of dying at a wall).
  bool edge_degradation = true;
  double edge_start = 0.75;
  // 802.11 link-layer ARQ: unicast data/null/ps-poll frames are retried up
  // to this many times, so the loss TCP sees is base_loss^(retries+1).
  // Management (probe/auth/assoc) frames follow the analytical model's
  // single-shot loss. Retry airtime is not charged (a deliberate
  // simplification; retries are rare at h=10%).
  int data_retry_limit = 4;
  // Partitions at or below this population skip the grid and scan the
  // partition directly (members are kept in attach-id order, so the RNG
  // stream is unchanged): at tiny worlds the 3x3 hash probes cost more than
  // touching every co-channel radio. Tests that assert grid usage set this
  // to 0.
  std::size_t indexed_scan_threshold = 56;
};

// One radio's new position in a batched mobility tick (Medium::move_radios).
struct RadioMove {
  Radio* radio = nullptr;
  Vec2 position{};
};

// Delivery metadata handed to receivers alongside the frame.
struct RxInfo {
  net::ChannelId channel = 0;
  double distance_m = 0.0;
  // The transmission's airtime, as Medium::transmit computed it: what a
  // metered receiver charges for the reception.
  sim::Time airtime{};

  // Log-distance RSSI proxy for AP-selection policies: -40 dBm at 1 m,
  // path-loss exponent 3. Computed on demand, since most receivers (APs
  // dropping beacons) never read it.
  double rssi_dbm() const {
    return -40.0 - 30.0 * std::log10(std::max(distance_m, 1.0));
  }
};

class Medium {
 public:
  Medium(sim::Simulator& simulator, sim::Rng rng, MediumConfig config = {});
  ~Medium();

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  const MediumConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }

  // Called by Radio's constructor/destructor.
  void attach(Radio& radio, net::ChannelId initial_channel);
  void detach(Radio& radio);

  // Hot-store accessors for the radio's handle-based reads (inline: these
  // sit on every Radio::channel()/position() call).
  net::ChannelId channel_of(RadioId id) const {
    return static_cast<net::ChannelId>(hot_.channel[id]);
  }
  Vec2 position_of(RadioId id) const { return hot_.position[id]; }
  bool is_switching(RadioId id) const { return hot_.switching[id] != 0; }

  // Called by Radio when a hardware reset starts/aborts.
  void set_switching(Radio& radio, bool switching);
  // Called by Radio when a retune completes: records the new channel,
  // clears the switching flag and moves the radio between partitions.
  void complete_retune(Radio& radio, net::ChannelId channel);
  // Moves one radio (position write + lazy grid re-bucket); a no-move
  // update is free.
  void set_position(Radio& radio, Vec2 position);

  // Mobility tick: applies every move in order through set_position, so a
  // fleet tick and N radio->set_position calls leave identical state. Most
  // moves cross no cell boundary and touch only the position array.
  void move_radios(std::span<const RadioMove> moves);

  // Called by Radio::send(): schedules serialization and delivery. Returns
  // the time at which the transmission will complete.
  sim::Time transmit(Radio& sender, net::Frame frame);

  // Loss probability as a function of distance (exposed for tests).
  double loss_probability(double distance_m) const;

  // Time at which the channel's current transmission (queue) completes;
  // never in the past. Drivers use this to finish in-flight frames before
  // retuning, as real MACs do. (Channels outside the 1..14 plan share one
  // busy slot; radios can only ever be tuned to valid channels.)
  sim::Time channel_idle_at(net::ChannelId channel) const;

  // Cumulative counters, for tests and micro-benchmarks.
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_lost() const { return frames_lost_; }
  // Delivery observability: deliveries served from the 3x3 grid
  // neighborhood vs. a scan of a partition at or below
  // indexed_scan_threshold.
  std::uint64_t deliveries_grid() const { return deliveries_grid_; }
  std::uint64_t deliveries_scan() const { return deliveries_scan_; }
  // Radios currently attached on `channel` (tests; O(1)).
  std::size_t radios_on(net::ChannelId channel) const {
    return partitions_[channel_slot(channel)].members.size();
  }

  // Resident bytes of the hot per-radio state: the SoA store, the id lists
  // (partitions + grid buckets) and the in-flight tx pool.
  // FastPath.TenThousandRadioFootprintStaysUnderCeiling divides this by
  // the world size to gate bytes/radio.
  std::size_t hot_state_bytes() const;

  // Per-channel slices of the same counters (channels 1..14; anything else
  // is folded into slot 0). Published as phy.frames_*.ch<N> metrics by the
  // telemetry collector registered with this medium's simulator.
  std::uint64_t frames_sent_on(net::ChannelId channel) const {
    return per_channel_[channel_slot(channel)].sent;
  }
  std::uint64_t frames_delivered_on(net::ChannelId channel) const {
    return per_channel_[channel_slot(channel)].delivered;
  }
  std::uint64_t frames_lost_on(net::ChannelId channel) const {
    return per_channel_[channel_slot(channel)].lost;
  }

 private:
  struct ChannelCounters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
  };

  // Radios tuned to one channel slot: the member ids (into hot_), kept
  // ascending by attach id through ordered insert/erase, plus the spatial
  // grid over their positions.
  struct ChannelPartition {
    std::vector<RadioId> members;
    RadioGrid grid;
  };

  // State of one in-flight transmission, parked between transmit() and the
  // delivery event. Pooled (free list below) so the posted closure captures
  // only {this, node} — 16 bytes, inside SmallFn's inline buffer — instead
  // of the ~100-byte {id, pos, channel, frame} capture that used to push
  // every single transmit onto the heap. The pool's high-water mark is the
  // max number of concurrently in-flight frames, a handful per channel.
  struct PendingTx {
    RadioId sender_id = 0;
    Vec2 pos{};
    net::ChannelId channel = 0;
    sim::Time airtime{};
    net::Frame frame{};
  };
  PendingTx* acquire_pending_tx();
  void release_pending_tx(PendingTx* node);

  void insert_into_partition(RadioId id);
  void remove_from_partition(RadioId id, net::ChannelId channel);
  void deliver(const PendingTx& tx);
  void publish_metrics(telemetry::Registry& registry) const;

  sim::Simulator& sim_;
  sim::Rng rng_;
  MediumConfig config_;
  // Dense per-radio hot state, indexed by attach id (see spatial_grid.h).
  // hot_.radio is the liveness map: a detached id maps to nullptr, so a
  // recycled heap address can never impersonate a detached sender.
  RadioHotStore hot_;
  std::array<ChannelPartition, kChannelSlots> partitions_;
  RadioId next_attach_id_ = 1;  // 0 = never attached
  // Busy horizon per channel slot: flat array indexed by channel_slot — the
  // per-transmit hash lookup this replaced showed up in delivery profiles.
  std::array<sim::Time, kChannelSlots> busy_until_{};
  // PendingTx free-list pool: tx_pool_ owns the nodes, tx_free_ holds the
  // idle ones (capacity always >= pool size so release never allocates).
  std::vector<std::unique_ptr<PendingTx>> tx_pool_;
  std::vector<PendingTx*> tx_free_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t deliveries_grid_ = 0;
  std::uint64_t deliveries_scan_ = 0;
  std::array<ChannelCounters, kChannelSlots> per_channel_{};
  telemetry::Hub::CollectorId collector_id_ = 0;
};

}  // namespace spider::phy
