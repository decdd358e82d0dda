#include "mmph/spatial/kd_index.hpp"

#include <algorithm>

#include "mmph/support/assert.hpp"

namespace mmph::spatial {

KdTreeIndex::KdTreeIndex(const geo::PointSet& points, double radius,
                         geo::Metric metric)
    : points_(points),
      radius_(radius),
      metric_(metric),
      masked_(points.size(), 0) {
  MMPH_REQUIRE(radius > 0.0, "KdTreeIndex: radius must be positive");
  if (!points_.empty()) tree_ = std::make_unique<geo::KdTree>(points_);
  count_rebuild();
}

void KdTreeIndex::query(geo::ConstVec center,
                        std::vector<std::size_t>& out) const {
  MMPH_REQUIRE(center.size() == dim(),
               "KdTreeIndex: query dimension mismatch");
  out.clear();
  if (tree_) {
    tree_->for_each_in_ball(center, radius_, metric_, [&](std::size_t id) {
      if (!masked_[id]) out.push_back(id);
    });
  }
  std::sort(out.begin(), out.end());
  count_query(out.size());
}

void KdTreeIndex::mask(std::size_t id) {
  MMPH_ASSERT(id < size(), "KdTreeIndex: mask id out of range");
  masked_[id] = 1;
}

void KdTreeIndex::unmask_all() {
  std::fill(masked_.begin(), masked_.end(), 0);
}

}  // namespace mmph::spatial
