#include "mmph/spatial/uniform_grid.hpp"

#include <algorithm>

#include "mmph/support/assert.hpp"

namespace mmph::spatial {

std::size_t UniformGridIndex::CellHash::operator()(
    const Cell& c) const noexcept {
  // FNV-1a over the packed coordinates; the multiply disperses the
  // sequential cell coordinates dense workloads produce.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int64_t v : c) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

UniformGridIndex::UniformGridIndex(const geo::PointSet& points, double radius,
                                   double cell_size)
    : dim_(points.dim()),
      radius_(radius),
      cell_(cell_size > 0.0 ? cell_size : radius) {
  MMPH_REQUIRE(radius > 0.0, "UniformGridIndex: radius must be positive");
  MMPH_REQUIRE(dim_ >= 1 && dim_ <= kGridMaxDim,
               "UniformGridIndex: dimension exceeds kGridMaxDim "
               "(use the kd-tree fallback)");
  coords_.assign(points.raw().begin(), points.raw().end());
  masked_.assign(points.size(), 0);
  buckets_.reserve(points.size() / 2 + 1);
  for (std::size_t id = 0; id < points.size(); ++id) {
    bucket_insert(cell_of(id), id);
  }
  count_rebuild();
}

UniformGridIndex::Cell UniformGridIndex::cell_of_vec(geo::ConstVec p) const {
  Cell c{};  // unused dimensions stay 0 so Cell compares/hashes uniformly
  for (std::size_t d = 0; d < dim_; ++d) c[d] = cell_coord(p[d], cell_);
  return c;
}

void UniformGridIndex::query(geo::ConstVec center,
                             std::vector<std::size_t>& out) const {
  walk(center, out);
  // Ascending ids keep indexed kernel sums bit-identical to a full scan.
  std::sort(out.begin(), out.end());
}

void UniformGridIndex::walk(geo::ConstVec center,
                            std::vector<std::size_t>& out) const {
  MMPH_REQUIRE(center.size() == dim_,
               "UniformGridIndex: query dimension mismatch");
  out.clear();
  if (buckets_.empty()) {
    count_query(0);
    return;
  }
  Cell lo{}, hi{}, cur{};
  for (std::size_t d = 0; d < dim_; ++d) {
    lo[d] = cell_coord(center[d] - radius_, cell_);
    hi[d] = cell_coord(center[d] + radius_, cell_);
    cur[d] = lo[d];
  }
  // Odometer over the cell box covering the L-infinity ball.
  for (;;) {
    const auto it = buckets_.find(cur);
    if (it != buckets_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    bool advanced = false;
    for (std::size_t d = dim_; d-- > 0;) {
      if (++cur[d] <= hi[d]) {
        advanced = true;
        break;
      }
      cur[d] = lo[d];
    }
    if (!advanced) break;
  }
  count_query(out.size());
}

void UniformGridIndex::mask(std::size_t id) {
  MMPH_ASSERT(id < size(), "UniformGridIndex: mask id out of range");
  if (masked_[id]) return;
  bucket_erase(cell_of(id), id);
  masked_[id] = 1;
  ++masked_count_;
}

void UniformGridIndex::unmask_all() {
  if (masked_count_ == 0) return;
  for (std::size_t id = 0; id < size(); ++id) {
    if (masked_[id]) {
      masked_[id] = 0;
      bucket_insert(cell_of(id), id);
    }
  }
  masked_count_ = 0;
}

void UniformGridIndex::add(geo::ConstVec p) {
  MMPH_REQUIRE(p.size() == dim_, "UniformGridIndex: add dimension mismatch");
  const std::size_t id = size();
  coords_.insert(coords_.end(), p.begin(), p.end());
  masked_.push_back(0);
  bucket_insert(cell_of_vec(p), id);
  count_update();
}

void UniformGridIndex::update(std::size_t id, geo::ConstVec p) {
  MMPH_ASSERT(id < size(), "UniformGridIndex: update id out of range");
  MMPH_REQUIRE(p.size() == dim_,
               "UniformGridIndex: update dimension mismatch");
  const Cell before = cell_of(id);
  const Cell after = cell_of_vec(p);
  std::copy(p.begin(), p.end(),
            coords_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
  if (!masked_[id] && before != after) {
    bucket_erase(before, id);
    bucket_insert(after, id);
  }
  count_update();
}

void UniformGridIndex::swap_remove(std::size_t id) {
  MMPH_ASSERT(id < size(), "UniformGridIndex: swap_remove id out of range");
  const std::size_t last = size() - 1;
  const bool id_masked = masked_[id] != 0;
  if (!id_masked) bucket_erase(cell_of(id), id);
  if (id != last) {
    const Cell last_cell = cell_of(last);
    std::copy(coords_.begin() + static_cast<std::ptrdiff_t>(last * dim_),
              coords_.begin() + static_cast<std::ptrdiff_t>((last + 1) * dim_),
              coords_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
    masked_[id] = masked_[last];
    if (!masked_[last]) bucket_rename(last_cell, last, id);
  }
  masked_.pop_back();
  coords_.resize(masked_.size() * dim_);
  if (id_masked) --masked_count_;
  count_update();
}

bool UniformGridIndex::verify() const {
  std::vector<char> seen(size(), 0);
  std::size_t total = 0;
  for (const auto& [cell, ids] : buckets_) {
    if (ids.empty()) return false;  // empty buckets must be erased
    for (const std::size_t id : ids) {
      if (id >= size() || masked_[id] || seen[id]) return false;
      if (cell_of(id) != cell) return false;
      seen[id] = 1;
      ++total;
    }
  }
  return total == size() - masked_count_;
}

void UniformGridIndex::bucket_insert(const Cell& cell, std::size_t id) {
  buckets_[cell].push_back(id);
}

void UniformGridIndex::bucket_erase(const Cell& cell, std::size_t id) {
  const auto it = buckets_.find(cell);
  MMPH_ASSERT(it != buckets_.end(), "UniformGridIndex: bucket missing");
  std::vector<std::size_t>& ids = it->second;
  const auto pos = std::find(ids.begin(), ids.end(), id);
  MMPH_ASSERT(pos != ids.end(), "UniformGridIndex: id missing from bucket");
  *pos = ids.back();
  ids.pop_back();
  if (ids.empty()) buckets_.erase(it);
}

void UniformGridIndex::bucket_rename(const Cell& cell, std::size_t from,
                                     std::size_t to) {
  const auto it = buckets_.find(cell);
  MMPH_ASSERT(it != buckets_.end(), "UniformGridIndex: bucket missing");
  const auto pos = std::find(it->second.begin(), it->second.end(), from);
  MMPH_ASSERT(pos != it->second.end(),
              "UniformGridIndex: id missing from bucket");
  *pos = to;
}

}  // namespace mmph::spatial
