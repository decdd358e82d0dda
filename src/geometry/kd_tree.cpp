#include "mmph/geometry/kd_tree.hpp"

#include <algorithm>
#include <numeric>

#include "mmph/support/assert.hpp"

namespace mmph::geo {

KdTree::KdTree(const PointSet& points, std::size_t leaf_size)
    : points_(points) {
  MMPH_REQUIRE(!points.empty(), "KdTree: empty point set");
  MMPH_REQUIRE(leaf_size >= 1, "KdTree: leaf_size must be >= 1");
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  nodes_.reserve(2 * points.size() / leaf_size + 2);
  (void)build(0, order_.size(), leaf_size);
}

std::size_t KdTree::build(std::size_t begin, std::size_t end,
                          std::size_t leaf_size) {
  const std::size_t id = nodes_.size();
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.begin = begin;
    node.end = end;
    const std::size_t dim = points_.dim();
    node.lo.assign(points_[order_[begin]].begin(),
                   points_[order_[begin]].end());
    node.hi = node.lo;
    for (std::size_t s = begin + 1; s < end; ++s) {
      ConstVec p = points_[order_[s]];
      for (std::size_t d = 0; d < dim; ++d) {
        node.lo[d] = std::min(node.lo[d], p[d]);
        node.hi[d] = std::max(node.hi[d], p[d]);
      }
    }
  }
  if (end - begin <= leaf_size) return id;

  // Split on the widest dimension at the median (nth_element keeps the
  // build O(n log n) without a full sort).
  std::size_t split_dim = 0;
  {
    const Node& node = nodes_[id];
    double widest = -1.0;
    for (std::size_t d = 0; d < points_.dim(); ++d) {
      const double w = node.hi[d] - node.lo[d];
      if (w > widest) {
        widest = w;
        split_dim = d;
      }
    }
    if (widest <= 0.0) return id;  // all points identical: stay a leaf
  }
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                   order_.begin() + static_cast<std::ptrdiff_t>(mid),
                   order_.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t a, std::size_t b) {
                     if (points_[a][split_dim] != points_[b][split_dim]) {
                       return points_[a][split_dim] < points_[b][split_dim];
                     }
                     return a < b;  // deterministic total order
                   });

  const std::size_t left = build(begin, mid, leaf_size);
  const std::size_t right = build(mid, end, leaf_size);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

double KdTree::box_distance(const Node& node, ConstVec q,
                            const Metric& metric) const {
  // Distance from q to its closest point inside the node's box: clamp q
  // into the box and measure. Valid for every p-norm (the clamped point
  // minimizes every coordinate difference simultaneously).
  static thread_local std::vector<double> clamped;
  clamped.resize(q.size());
  for (std::size_t d = 0; d < q.size(); ++d) {
    clamped[d] = std::clamp(q[d], node.lo[d], node.hi[d]);
  }
  return metric.distance(q, clamped);
}

void KdTree::search(std::size_t node_id, ConstVec center, double radius,
                    const Metric& metric,
                    const std::function<void(std::size_t)>& fn) const {
  const Node& node = nodes_[node_id];
  if (box_distance(node, center, metric) > radius) return;
  if (node.left == 0) {  // leaf
    for (std::size_t s = node.begin; s < node.end; ++s) {
      const std::size_t i = order_[s];
      if (metric.distance(center, points_[i]) <= radius) fn(i);
    }
    return;
  }
  search(node.left, center, radius, metric, fn);
  search(node.right, center, radius, metric, fn);
}

void KdTree::for_each_in_ball(
    ConstVec center, double radius, const Metric& metric,
    const std::function<void(std::size_t)>& fn) const {
  MMPH_REQUIRE(center.size() == points_.dim(),
               "KdTree: query dimension mismatch");
  MMPH_REQUIRE(radius >= 0.0, "KdTree: negative query radius");
  search(0, center, radius, metric, fn);
}

std::vector<std::size_t> KdTree::query_ball(ConstVec center, double radius,
                                            const Metric& metric) const {
  std::vector<std::size_t> out;
  for_each_in_ball(center, radius, metric,
                   [&](std::size_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mmph::geo
