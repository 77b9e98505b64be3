#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/arena.h"
#include "core/check.h"
#include "phy/channel.h"
#include "phy/radio.h"

namespace spider::phy {

Medium::Medium(sim::Simulator& simulator, sim::Rng rng, MediumConfig config)
    : sim_(simulator), rng_(std::move(rng)), config_(config) {
  SPIDER_CHECK(config_.range_m > 0.0) << "range " << config_.range_m << " m";
  SPIDER_CHECK(config_.base_loss >= 0.0 && config_.base_loss <= 1.0)
      << "base_loss " << config_.base_loss << " is not a probability";
  SPIDER_CHECK(config_.bitrate_bps > 0.0)
      << "bitrate " << config_.bitrate_bps << " bps";
  SPIDER_CHECK(config_.edge_start > 0.0 && config_.edge_start <= 1.0)
      << "edge_start " << config_.edge_start
      << " must be a fraction of range";
  SPIDER_CHECK(config_.data_retry_limit >= 0)
      << "data_retry_limit " << config_.data_retry_limit;
  // Grid cell = range, so a delivery disc covers a 3x3 cell neighborhood.
  // RadioGrid::gather takes its bounds from the disc, not from the sender's
  // cell, so rounding at a cell edge cannot drop a receiver at range.
  for (ChannelPartition& partition : partitions_) {
    partition.grid.bind(&hot_);
    partition.grid.reset_cell_size(config_.range_m);
  }
  collector_id_ = sim_.telemetry().add_collector(
      [this](telemetry::Registry& registry) { publish_metrics(registry); });
}

Medium::~Medium() { sim_.telemetry().remove_collector(collector_id_); }

void Medium::publish_metrics(telemetry::Registry& registry) const {
  const auto publish = [&registry](const char* name, std::uint64_t value) {
    telemetry::Counter& c = registry.counter(name);
    c.inc(value - c.value());
  };
  publish("phy.frames_sent", frames_sent_);
  publish("phy.frames_delivered", frames_delivered_);
  publish("phy.frames_lost", frames_lost_);
  publish("phy.deliveries.grid", deliveries_grid_);
  publish("phy.deliveries.scan", deliveries_scan_);
  static constexpr auto kSent =
      make_slot_names<kChannelSlots>("phy.frames_sent.ch");
  static constexpr auto kDelivered =
      make_slot_names<kChannelSlots>("phy.frames_delivered.ch");
  static constexpr auto kLost =
      make_slot_names<kChannelSlots>("phy.frames_lost.ch");
  for (std::size_t slot = 0; slot < kChannelSlots; ++slot) {
    const ChannelCounters& c = per_channel_[slot];
    // Quiet channels stay out of the registry so exports only list slices
    // that actually carried traffic.
    if (c.sent != 0) publish(kSent[slot].text, c.sent);
    if (c.delivered != 0) publish(kDelivered[slot].text, c.delivered);
    if (c.lost != 0) publish(kLost[slot].text, c.lost);
  }
}

void Medium::attach(Radio& radio, net::ChannelId initial_channel) {
  SPIDER_CHECK(next_attach_id_ < std::numeric_limits<RadioId>::max())
      << "attach-id space exhausted";
  const RadioId id = next_attach_id_++;
  radio.id_ = id;
  hot_.ensure(id);
  hot_.radio[id] = &radio;
  hot_.address[id] = radio.address();
  hot_.channel[id] = initial_channel;
  hot_.switching[id] = 0;
  hot_.position[id] = Vec2{};
  insert_into_partition(id);
}

void Medium::detach(Radio& radio) {
  const RadioId id = radio.id_;
  remove_from_partition(id, channel_of(id));
  hot_.radio[id] = nullptr;
}

void Medium::set_switching(Radio& radio, bool switching) {
  hot_.switching[radio.id_] = switching ? 1 : 0;
}

void Medium::complete_retune(Radio& radio, net::ChannelId channel) {
  const RadioId id = radio.id_;
  const net::ChannelId previous = channel_of(id);
  hot_.switching[id] = 0;
  // Until the reset completes the radio stays filed under its old channel
  // (deaf there via the switching flag); the partition move happens exactly
  // when the retune takes effect.
  if (channel != previous) {
    remove_from_partition(id, previous);
    hot_.channel[id] = channel;
    insert_into_partition(id);
  }
}

SPIDER_HOT void Medium::set_position(Radio& radio, Vec2 position) {
  const RadioId id = radio.id_;
  if (position == hot_.position[id]) return;
  hot_.position[id] = position;
  partitions_[channel_slot(channel_of(id))].grid.update(id, position);
}

SPIDER_HOT void Medium::move_radios(std::span<const RadioMove> moves) {
  for (const RadioMove& m : moves) set_position(*m.radio, m.position);
}

// Members stay ascending by attach id: a fresh attach appends (ids are
// monotone); a radio retuning back onto a channel it left goes in ahead of
// every higher id.
void Medium::insert_into_partition(RadioId id) {
  ChannelPartition& partition = partitions_[channel_slot(channel_of(id))];
  std::vector<RadioId>& members = partition.members;
  members.insert(std::upper_bound(members.begin(), members.end(), id), id);
  partition.grid.insert(id, hot_.position[id]);
}

void Medium::remove_from_partition(RadioId id, net::ChannelId channel) {
  ChannelPartition& partition = partitions_[channel_slot(channel)];
  std::vector<RadioId>& members = partition.members;
  const auto it = std::lower_bound(members.begin(), members.end(), id);
  SPIDER_CHECK(it != members.end() && *it == id)
      << "radio not filed under channel " << channel;
  members.erase(it);
  partition.grid.remove(id);
}

SPIDER_HOT double Medium::loss_probability(double distance_m) const {
  if (distance_m > config_.range_m) return 1.0;
  double loss = config_.base_loss;
  if (config_.edge_degradation) {
    const double edge = config_.edge_start * config_.range_m;
    if (distance_m > edge) {
      const double frac = (distance_m - edge) / (config_.range_m - edge);
      loss += (1.0 - loss) * frac * frac;
    }
  }
  loss = std::min(loss, 1.0);
  SPIDER_DCHECK(loss >= 0.0 && loss <= 1.0)
      << "loss " << loss << " at " << distance_m << " m";
  return loss;
}

sim::Time Medium::channel_idle_at(net::ChannelId channel) const {
  return std::max(busy_until_[channel_slot(channel)], sim_.now());
}

SPIDER_HOT sim::Time Medium::transmit(Radio& sender, net::Frame frame) {
  ++frames_sent_;
  const net::ChannelId channel = channel_of(sender.id_);
  const std::size_t slot = channel_slot(channel);
  ++per_channel_[slot].sent;
  const sim::Time airtime =
      config_.preamble +
      sim::transmission_time(frame.size_bytes, config_.bitrate_bps);
  const Vec2 pos = hot_.position[sender.id_];

  // Carrier sense is channel-global: every sender on the channel defers to
  // one busy horizon, wherever it is.
  sim::Time& busy = busy_until_[slot];
  const sim::Time start = std::max(sim_.now(), busy);
  const sim::Time done = start + airtime;
  // Channel-occupancy monotonicity: serialization can only extend the busy
  // horizon forward; a regression here would deliver frames into the past.
  SPIDER_CHECK(done >= busy && done >= sim_.now())
      << "channel " << channel << " busy horizon moved backwards: "
      << busy.to_string() << " -> " << done.to_string() << " (airtime "
      << airtime.to_string() << ")";
  busy = done;

  // Snapshot the sender's position at transmit time; at vehicular speeds the
  // sub-millisecond drift during airtime is irrelevant. The sender itself is
  // carried as its attach id, not a pointer: it may detach (or even be
  // destroyed and its address recycled) before delivery fires. The snapshot
  // lives in a pooled PendingTx node so the closure stays SmallFn-inline.
  PendingTx* tx = acquire_pending_tx();
  tx->sender_id = sender.id_;
  tx->pos = pos;
  tx->channel = channel;
  tx->airtime = airtime;
  tx->frame = std::move(frame);
  sim_.post_at(done, [this, tx] {
    deliver(*tx);
    release_pending_tx(tx);
  });
  return done;
}

Medium::PendingTx* Medium::acquire_pending_tx() {
  if (!tx_free_.empty()) {
    PendingTx* node = tx_free_.back();
    tx_free_.pop_back();
    return node;
  }
  // Pool growth (cold): only when more frames are in flight than ever
  // before. Keep the free list's capacity at pool size so release_pending_tx
  // can never allocate, even if every node is returned at once.
  tx_pool_.push_back(std::make_unique<PendingTx>());
  tx_free_.reserve(tx_pool_.size());
  return tx_pool_.back().get();
}

SPIDER_HOT void Medium::release_pending_tx(PendingTx* node) {
  // Drop the payload reference promptly (the delivery may have been the last
  // holder outside the intern table); the node itself is recycled.
  node->frame = net::Frame{};
  // Never grows: acquire_pending_tx keeps capacity at pool size.
  tx_free_.push_back(node);
}

SPIDER_HOT void Medium::deliver(const PendingTx& tx) {
  const RadioId sender_id = tx.sender_id;
  const Vec2 sender_pos = tx.pos;
  const net::ChannelId channel = tx.channel;
  const net::Frame& frame = tx.frame;
  // Unicast data-plane frames get link-layer ARQ at the addressed receiver
  // and a tx-failure indication back to the sender; everything else is
  // single-shot (as in the analytical join model).
  const bool arq_eligible = !frame.dst.is_broadcast() &&
                            (frame.kind == net::FrameKind::kData ||
                             frame.kind == net::FrameKind::kNullData ||
                             frame.kind == net::FrameKind::kPsPoll);
  bool addressed_delivery = false;

  // Candidate set: a span of ids whose RNG draws below must be consumed in
  // ascending (= attach) order, so grid and bucket internals never influence
  // the stream. Partition members are already in that order; grid gathers
  // are sorted below. Grid scratch is carved from the drain arena (rewound
  // on return).
  core::Arena::Scope scope(sim_.arena());
  ChannelPartition& partition = partitions_[channel_slot(channel)];
  const std::size_t members = partition.members.size();
  const RadioId* candidates = partition.members.data();
  std::size_t count = members;
  // Tiny partitions scan in place: the grid's hash probes cost more than
  // touching every co-channel radio, and the scan is a strict superset of
  // the gather, so after the shared channel/range filters both arms draw
  // identical RNG. The member vector is stable while the filter loop below
  // runs (callbacks only fire from the delivery loop after it), so no copy
  // is needed.
  const bool used_grid = members > config_.indexed_scan_threshold;
  if (used_grid) {
    RadioId* buf = sim_.arena().alloc_array<RadioId>(members);
    count = partition.grid.gather(sender_pos, config_.range_m, buf);
    candidates = buf;
    ++deliveries_grid_;
  } else {
    ++deliveries_scan_;
  }

  // Sender liveness, resolved once through the store (the attach-id hash
  // this replaced only existed to find this pointer).
  Radio* const sender = hot_.radio[sender_id];

  // Filter before sorting: the cheap rejections (sender, channel, mid-reset,
  // out of range) consume no RNG, so applying them on the unsorted gather
  // superset and ordering only the survivors (~the in-range neighborhood,
  // a handful of radios) is stream-identical to sorting everything first —
  // and skips a per-delivery sort of the whole 3x3 superset. The range test
  // compares squared distances; one sqrt per survivor, none per reject.
  struct Hit {
    RadioId id;
    double distance_m;
  };
  Hit* hits = sim_.arena().alloc_array<Hit>(count);
  std::size_t n_hits = 0;
  const double max_dist_sq = config_.range_m * config_.range_m;
  for (std::size_t i = 0; i < count; ++i) {
    const RadioId id = candidates[i];
    if (id == sender_id) continue;
    if (hot_.channel[id] != channel || hot_.switching[id] != 0) continue;
    const Vec2 rx_pos = hot_.position[id];
    const double dx = rx_pos.x - sender_pos.x;
    const double dy = rx_pos.y - sender_pos.y;
    const double dist_sq = dx * dx + dy * dy;
    if (dist_sq > max_dist_sq) continue;
    hits[n_hits++] = Hit{id, std::sqrt(dist_sq)};
  }
  if (used_grid) {
    std::sort(hits, hits + n_hits,
              [](const Hit& a, const Hit& b) { return a.id < b.id; });
  }

  for (std::size_t i = 0; i < n_hits; ++i) {
    const RadioId id = hits[i].id;
    const double d = hits[i].distance_m;
    const bool is_addressee = arq_eligible && hot_.address[id] == frame.dst;
    const double p = loss_probability(d);
    bool lost = true;
    const int attempts = is_addressee ? config_.data_retry_limit + 1 : 1;
    for (int a = 0; a < attempts && lost; ++a) {
      lost = rng_.bernoulli(p);
    }
    if (lost) {
      ++frames_lost_;
      ++per_channel_[channel_slot(channel)].lost;
      continue;
    }
    ++frames_delivered_;
    ++per_channel_[channel_slot(channel)].delivered;
    if (is_addressee) addressed_delivery = true;
    hot_.radio[id]->handle_delivery(frame, RxInfo{channel, d, tx.airtime});
  }

  if (arq_eligible && sender != nullptr) {
    // Tell a still-attached sender its unicast data never arrived: the
    // AP re-buffers it for a power-save client.
    if (!addressed_delivery) sender->handle_tx_failure(frame);
  }
}

std::size_t Medium::hot_state_bytes() const {
  std::size_t total =
      hot_.capacity_bytes() +
      tx_pool_.capacity() * sizeof(std::unique_ptr<PendingTx>) +
      tx_pool_.size() * sizeof(PendingTx) +
      tx_free_.capacity() * sizeof(PendingTx*);
  for (const ChannelPartition& partition : partitions_) {
    total += partition.members.capacity() * sizeof(RadioId) +
             partition.grid.memory_bytes();
  }
  return total;
}

}  // namespace spider::phy
