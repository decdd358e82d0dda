#pragma once

/// \file region_map.hpp
/// \brief Deterministic interest-space region -> store-shard mapping.
///
/// The serve tier shards its InstanceStore (and its write-ahead log) by
/// *region*: the region of a point is its uniform-grid cell — the same
/// spatial::cell_coord UniformGridIndex buckets by, saturated so every
/// finite coordinate has one — and a cell maps to a shard by FNV-1a hash
/// of its integer coordinates, so the mapping:
///
///   - is a pure function of the coordinates (arrival order, churn
///     history, and process lifetime never change a user's shard),
///   - keeps whole cells together (every point of a cell shares a shard),
///   - needs no fitted bounding box (works on an unbounded domain, like
///     the grid index).
///
/// A shard is therefore a hashed scatter of cells across the whole space,
/// not a spatially coherent region: it is a storage unit, and solvers
/// split the population themselves.
///
/// shards == 1 collapses to the constant 0 without hashing, which is the
/// bit-identity mode: a 1-shard store behaves exactly like the unsharded
/// store it replaced.

#include <cstddef>
#include <cstdint>

#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::spatial {

class RegionMap {
 public:
  /// \p cell_size > 0 is the region edge length (serve passes the coverage
  /// radius, aligning regions with solve-time grid cells). Any dim >= 1 is
  /// accepted — unlike the grid index, the hash has no kGridMaxDim cap.
  RegionMap(std::size_t dim, double cell_size, std::size_t shards)
      : dim_(dim), cell_(cell_size), shards_(shards) {
    MMPH_REQUIRE(dim_ >= 1, "RegionMap: dim must be >= 1");
    MMPH_REQUIRE(cell_ > 0.0, "RegionMap: cell_size must be positive");
    MMPH_REQUIRE(shards_ >= 1, "RegionMap: shards must be >= 1");
  }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Shard owning the region \p p falls in.
  [[nodiscard]] std::size_t shard_of(geo::ConstVec p) const {
    MMPH_ASSERT(p.size() == dim_, "RegionMap: point dimension mismatch");
    if (shards_ == 1) return 0;
    // FNV-1a over the packed cell coordinates — the same dispersal
    // UniformGridIndex::CellHash uses, so dense sequential cells spread
    // evenly instead of striping.
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t d = 0; d < dim_; ++d) {
      h ^= static_cast<std::uint64_t>(cell_coord(p[d], cell_));
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h % shards_);
  }

 private:
  std::size_t dim_;
  double cell_;
  std::size_t shards_;
};

}  // namespace mmph::spatial
