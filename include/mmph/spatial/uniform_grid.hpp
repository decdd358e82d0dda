#pragma once

/// \file uniform_grid.hpp
/// \brief Sparse uniform-grid SpatialIndex keyed on cell size ~ r.
///
/// Points bucket into axis-aligned cubes of side `cell_size` (default: the
/// query radius, so a radius query touches at most 3^dim cells). Cells live
/// in a hash map keyed on integer cell coordinates — the domain is
/// unbounded, cells materialize only when occupied, and incremental
/// add/update/swap_remove stay O(1) amortized with no bounding box to
/// outgrow or rebuild.
///
/// A query enumerates the cell box covering [c - r, c + r] per dimension,
/// concatenates the buckets, and sorts ascending — the sort keeps the
/// bit-identity contract of SpatialIndex::query (ascending superset of the
/// L-infinity ball, hence of every p-norm ball).
///
/// Masked points are removed from their bucket (queries never touch them —
/// the ActiveSet-style payoff) and re-bucketed by unmask_all().

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mmph/spatial/spatial_index.hpp"

namespace mmph::spatial {

class UniformGridIndex final : public SpatialIndex {
 public:
  /// Integer cell coordinates, padded with zeros above dim().
  using Cell = std::array<std::int64_t, kGridMaxDim>;

  /// Bulk build. \p radius > 0; \p cell_size <= 0 selects radius.
  /// dim must be <= kGridMaxDim (use the kd-tree fallback above).
  UniformGridIndex(const geo::PointSet& points, double radius,
                   double cell_size = 0.0);

  [[nodiscard]] IndexKind kind() const noexcept override {
    return IndexKind::kGrid;
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return masked_.size();
  }
  [[nodiscard]] std::size_t dim() const noexcept override { return dim_; }
  [[nodiscard]] double radius() const noexcept override { return radius_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }

  void query(geo::ConstVec center,
             std::vector<std::size_t>& out) const override;

  void mask(std::size_t id) override;
  void unmask_all() override;
  [[nodiscard]] bool masked(std::size_t id) const override;

  void add(geo::ConstVec p) override;
  void update(std::size_t id, geo::ConstVec p) override;
  void swap_remove(std::size_t id) override;

  void rebuild() override;
  [[nodiscard]] bool verify() const override;

  [[nodiscard]] geo::ConstVec point(std::size_t id) const override {
    MMPH_ASSERT(id < size(), "UniformGridIndex: id out of range");
    return geo::ConstVec(coords_.data() + id * dim_, dim_);
  }

  /// Cell coordinates of row \p id.
  [[nodiscard]] Cell cell_of(std::size_t id) const {
    return cell_of_vec(point(id));
  }

  [[nodiscard]] std::size_t occupied_cells() const noexcept {
    return buckets_.size();
  }

 private:
  struct CellHash {
    std::size_t operator()(const Cell& c) const noexcept;
  };

  [[nodiscard]] Cell cell_of_vec(geo::ConstVec p) const;
  [[nodiscard]] std::int64_t cell_coord(double v) const;
  void bucket_insert(const Cell& cell, std::size_t id);
  void bucket_erase(const Cell& cell, std::size_t id);
  void bucket_rename(const Cell& cell, std::size_t from, std::size_t to);

  std::size_t dim_;
  double radius_;
  double cell_;
  std::vector<double> coords_;  ///< owned row-major copy (survives churn)
  std::vector<char> masked_;
  std::size_t masked_count_ = 0;
  std::unordered_map<Cell, std::vector<std::size_t>, CellHash> buckets_;
};

}  // namespace mmph::spatial
