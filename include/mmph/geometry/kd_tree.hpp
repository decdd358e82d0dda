#pragma once

/// \file kd_tree.hpp
/// \brief Kd-tree over a PointSet for ball queries: the engine behind
/// spatial::KdTreeIndex.
///
/// Complements spatial::UniformGridIndex: a uniform grid is ideal when
/// points spread evenly in few dimensions (the paper's workloads), but its
/// query enumerates 3^dim cells, and clustered populations concentrate in
/// a few cells so queries degrade toward linear scans. The kd-tree adapts
/// to density and dimension: median splits give a balanced tree regardless
/// of clustering.
///
/// Queries work under any p-norm: subtrees are pruned by the metric
/// distance from the query to the node's axis-aligned bounding box, which
/// lower-bounds the distance to every point inside for every norm.
///
/// The tree stores indices into the referenced PointSet (which must
/// outlive it) in a flat array; nodes are index ranges, so construction
/// does O(n log n) work with no per-node allocation.

#include <cstddef>
#include <functional>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"

namespace mmph::geo {

class KdTree {
 public:
  /// Builds the tree. \p leaf_size bounds the points per leaf (>= 1).
  explicit KdTree(const PointSet& points, std::size_t leaf_size = 8);

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Calls fn(i) for every point with metric.distance(center, x_i) <=
  /// radius. Visit order is deterministic (tree order).
  void for_each_in_ball(ConstVec center, double radius, const Metric& metric,
                        const std::function<void(std::size_t)>& fn) const;

  /// Sorted indices of the points within the ball.
  [[nodiscard]] std::vector<std::size_t> query_ball(
      ConstVec center, double radius, const Metric& metric) const;

 private:
  struct Node {
    std::size_t begin = 0;   ///< range into order_
    std::size_t end = 0;
    std::size_t left = 0;    ///< child node ids; 0 == leaf (node 0 is root)
    std::size_t right = 0;
    std::vector<double> lo;  ///< bounding box of the range
    std::vector<double> hi;
  };

  std::size_t build(std::size_t begin, std::size_t end, std::size_t leaf_size);
  [[nodiscard]] double box_distance(const Node& node, ConstVec q,
                                    const Metric& metric) const;
  void search(std::size_t node_id, ConstVec center, double radius,
              const Metric& metric,
              const std::function<void(std::size_t)>& fn) const;

  const PointSet& points_;
  std::vector<std::size_t> order_;
  std::vector<Node> nodes_;
};

}  // namespace mmph::geo
