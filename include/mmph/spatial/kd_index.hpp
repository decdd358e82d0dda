#pragma once

/// \file kd_index.hpp
/// \brief Kd-tree SpatialIndex: the high-dimension fallback.
///
/// Wraps geometry::KdTree behind the SpatialIndex interface. The tree is
/// built once over the rows it is given and never changes: a solve that
/// needs an index above kGridMaxDim builds one, queries it and drops it.
/// Queries return the exact closed metric ball, sorted ascending.
///
/// Unlike the grid, masked points stay in the tree (removing from a kd-tree
/// is not O(1)); they are filtered at query time.

#include <memory>
#include <vector>

#include "mmph/geometry/kd_tree.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::spatial {

class KdTreeIndex final : public SpatialIndex {
 public:
  KdTreeIndex(const geo::PointSet& points, double radius, geo::Metric metric);

  [[nodiscard]] IndexKind kind() const noexcept override {
    return IndexKind::kKdTree;
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return masked_.size();
  }
  [[nodiscard]] std::size_t dim() const noexcept override {
    return points_.dim();
  }
  [[nodiscard]] double radius() const noexcept override { return radius_; }

  void query(geo::ConstVec center,
             std::vector<std::size_t>& out) const override;

  void mask(std::size_t id) override;
  void unmask_all() override;

 private:
  geo::PointSet points_;  ///< owned copy of the rows the tree indexes
  std::unique_ptr<geo::KdTree> tree_;  ///< null for an empty set
  double radius_;
  geo::Metric metric_;
  std::vector<char> masked_;
};

}  // namespace mmph::spatial
