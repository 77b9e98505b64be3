// Dense hot radio state (struct-of-arrays) + uniform spatial hash-grid.
//
// The medium's delivery fast path needs "all radios within distance r of a
// point" without scanning the world, and it needs each candidate's position,
// channel and switching flag without chasing a Radio*. Both live here:
//
//  - RadioHotStore holds the fields Medium::deliver, Medium::move_radios and
//    the grid scans actually touch — position, address, channel, switching,
//    grid cell, stationary slot — as parallel arrays indexed by attach id
//    (monotone, never reused), so candidate loops stream contiguous memory
//    and a 100k-radio world costs ~52 hot bytes per radio instead of a
//    pointer chase into a ~200-byte Radio.
//  - RadioGrid buckets ids into square cells of side cell_m (chosen by the
//    Medium as the frame range, so a delivery disc covers a 3x3
//    neighborhood); buckets are updated lazily — only when a mobile radio
//    actually crosses a cell boundary, which at vehicular speeds is a few
//    times per minute, not per position tick.
//
// Determinism contract: bucket iteration order depends on movement history
// (swap-and-pop removal), so the grid NEVER defines delivery order. Callers
// must sort gathered candidates by attach id before consuming RNG draws;
// see Medium::deliver. (Channel partitions need no sort: they keep their
// members in attach order.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/addr.h"
#include "phy/geom.h"

namespace spider::phy {

class Radio;

// Attach-sequence id, used directly as the index into RadioHotStore's
// arrays. Ids are monotone from 1 and never reused, so sorting candidate ids
// ascending IS attach order — the property the delivery RNG stream depends
// on. 0 means "never attached".
using RadioId = std::uint32_t;

// RadioHotStore::stationary_index of a radio that may move or retune.
inline constexpr std::uint32_t kMobileRadio = UINT32_MAX;

// Parallel arrays of the per-radio state the hot paths read, indexed by
// RadioId. Owned by the Medium; the grid holds a pointer. `radio` doubles as
// the liveness map (nullptr after detach), replacing the old attach-id hash.
struct RadioHotStore {
  std::vector<Vec2> position;
  std::vector<net::MacAddress> address;
  std::vector<std::int32_t> channel;
  std::vector<std::uint8_t> switching;
  std::vector<std::int32_t> cell_x;
  std::vector<std::int32_t> cell_y;
  std::vector<std::uint32_t> cell_index;  // index within the grid bucket
  // A stationary radio's index in its channel partition's list of
  // stationary radios; kMobileRadio for every other radio (and for a
  // detached one).
  std::vector<std::uint32_t> stationary_index;
  std::vector<Radio*> radio;

  // Grows every array to cover `id` (amortized O(1) per attach).
  void ensure(RadioId id) {
    if (radio.size() > id) return;
    const std::size_t n = static_cast<std::size_t>(id) + 1;
    position.resize(n);
    address.resize(n);
    channel.resize(n);
    switching.resize(n);
    cell_x.resize(n);
    cell_y.resize(n);
    cell_index.resize(n);
    stationary_index.resize(n, kMobileRadio);
    radio.resize(n);
  }

  std::size_t capacity_bytes() const {
    return position.capacity() * sizeof(Vec2) +
           address.capacity() * sizeof(net::MacAddress) +
           channel.capacity() * sizeof(std::int32_t) +
           switching.capacity() * sizeof(std::uint8_t) +
           cell_x.capacity() * sizeof(std::int32_t) +
           cell_y.capacity() * sizeof(std::int32_t) +
           cell_index.capacity() * sizeof(std::uint32_t) +
           stationary_index.capacity() * sizeof(std::uint32_t) +
           radio.capacity() * sizeof(Radio*);
  }
};

class RadioGrid {
 public:
  RadioGrid() = default;

  std::size_t size() const { return size_; }
  std::size_t occupied_cells() const { return cells_.size(); }

  // Must be called before the first insert; the store outlives the grid.
  void bind(RadioHotStore* store) { store_ = store; }
  // Must be called before the first insert (the Medium sizes the grid from
  // its config after construction).
  void reset_cell_size(double cell_m);

  void insert(RadioId id, Vec2 pos);
  void remove(RadioId id);
  // Re-buckets the radio if `pos` crossed a cell boundary; returns whether
  // it did (exposed so tests can count lazy updates).
  bool update(RadioId id, Vec2 pos);

  // Appends every radio whose cell overlaps the disc (center, radius) to
  // `out` — a superset of the radios within `radius`; the caller applies the
  // exact distance filter. `out` must have room for size() ids (the caller
  // carves it from the drain arena at partition size). Returns the number
  // of ids written.
  std::size_t gather(Vec2 center, double radius_m, RadioId* out) const;

  // Container overhead for bytes-per-radio accounting (buckets + hash map).
  std::size_t memory_bytes() const;

 private:
  struct Cell {
    std::int32_t x = 0;
    std::int32_t y = 0;
  };

  static std::uint64_t key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  Cell cell_of(Vec2 pos) const;

  RadioHotStore* store_ = nullptr;
  double cell_m_ = 1.0;
  double inv_cell_m_ = 1.0;
  std::size_t size_ = 0;
  std::unordered_map<std::uint64_t, std::vector<RadioId>> cells_;
};

}  // namespace spider::phy
