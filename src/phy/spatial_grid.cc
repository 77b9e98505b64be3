#include "phy/spatial_grid.h"

#include <cmath>
#include <cstring>

#include "core/check.h"

namespace spider::phy {

void RadioGrid::reset_cell_size(double cell_m) {
  SPIDER_CHECK(cell_m > 0.0) << "grid cell " << cell_m << " m";
  SPIDER_CHECK(size_ == 0) << "grid resized while holding " << size_
                           << " radios";
  cell_m_ = cell_m;
  inv_cell_m_ = 1.0 / cell_m;
}

SPIDER_HOT RadioGrid::Cell RadioGrid::cell_of(Vec2 pos) const {
  return Cell{static_cast<std::int32_t>(std::floor(pos.x * inv_cell_m_)),
              static_cast<std::int32_t>(std::floor(pos.y * inv_cell_m_))};
}

void RadioGrid::insert(RadioId id, Vec2 pos) {
  const Cell c = cell_of(pos);
  store_->cell_x[id] = c.x;
  store_->cell_y[id] = c.y;
  std::vector<RadioId>& bucket = cells_[key(c.x, c.y)];
  store_->cell_index[id] = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(id);
  ++size_;
}

void RadioGrid::remove(RadioId id) {
  auto it = cells_.find(key(store_->cell_x[id], store_->cell_y[id]));
  SPIDER_CHECK(it != cells_.end() &&
               store_->cell_index[id] < it->second.size())
      << "grid remove for a radio not in its recorded cell";
  std::vector<RadioId>& bucket = it->second;
  const RadioId moved = bucket.back();
  bucket[store_->cell_index[id]] = moved;
  store_->cell_index[moved] = store_->cell_index[id];
  bucket.pop_back();
  // Drop emptied buckets so a long drive doesn't strew dead cells along the
  // whole route; occupied_cells() stays proportional to the live deployment.
  if (bucket.empty()) cells_.erase(it);
  --size_;
}

bool RadioGrid::update(RadioId id, Vec2 pos) {
  const Cell c = cell_of(pos);
  if (c.x == store_->cell_x[id] && c.y == store_->cell_y[id]) return false;
  remove(id);
  insert(id, pos);
  return true;
}

// Hot: per delivery. `out` is carved from the drain arena at partition size
// — an upper bound on the gather superset — so the bulk copies below never
// bound-check or grow anything.
SPIDER_HOT std::size_t RadioGrid::gather(Vec2 center, double radius_m,
                                         RadioId* out) const {
  std::size_t count = 0;
  const Cell lo = cell_of({center.x - radius_m, center.y - radius_m});
  const Cell hi = cell_of({center.x + radius_m, center.y + radius_m});
  for (std::int32_t cy = lo.y; cy <= hi.y; ++cy) {
    for (std::int32_t cx = lo.x; cx <= hi.x; ++cx) {
      auto it = cells_.find(key(cx, cy));
      if (it == cells_.end()) continue;
      const std::vector<RadioId>& bucket = it->second;
      std::memcpy(out + count, bucket.data(), bucket.size() * sizeof(RadioId));
      count += bucket.size();
    }
  }
  return count;
}

std::size_t RadioGrid::memory_bytes() const {
  std::size_t total = cells_.size() *
                      (sizeof(std::uint64_t) + sizeof(std::vector<RadioId>) +
                       2 * sizeof(void*));  // node + bucket headers, approx
  // spider-lint: allow(det-unordered-iteration) commutative capacity sum; no order-dependent state escapes
  for (const auto& [k, bucket] : cells_) {
    total += bucket.capacity() * sizeof(RadioId);
  }
  return total;
}

}  // namespace spider::phy
