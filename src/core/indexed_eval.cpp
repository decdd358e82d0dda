#include "mmph/core/indexed_eval.hpp"

#include <algorithm>

#include "mmph/support/assert.hpp"

namespace mmph::core::kernels {

namespace {

[[nodiscard]] bool should_index(IndexMode mode, const Problem& problem) {
  switch (mode) {
    case IndexMode::kNone:
      return false;
    case IndexMode::kGrid:
      return problem.size() > 0;
    case IndexMode::kAuto:
      return auto_index_profitable(problem);
  }
  return false;
}

}  // namespace

bool auto_index_profitable(const Problem& problem) {
  if (problem.size() < kAutoIndexMinPoints) return false;
  if (problem.dim() > spatial::kGridMaxDim) return false;
  return query_box_sparse(problem);
}

bool query_box_sparse(const Problem& problem) {
  // Estimate the population fraction a query gathers: the 3^dim cell
  // neighborhood is an L-inf box of side 3r, so under a roughly uniform
  // spread the visited fraction is the volume ratio against the bounding
  // box. Degenerate extents (all points on a hyperplane) contribute
  // factor 1 — the query spans that axis entirely.
  const geo::Box box = problem.points().bounding_box();
  const double query_side = 3.0 * problem.radius();
  double fraction = 1.0;
  for (std::size_t d = 0; d < box.dim(); ++d) {
    const double extent = box.hi[d] - box.lo[d];
    if (extent > query_side) fraction *= query_side / extent;
  }
  return fraction <= kAutoMaxQueryFraction;
}

std::unique_ptr<IndexedActiveSet> IndexedActiveSet::try_make(
    const Problem& problem) {
  if (!should_index(index_mode(), problem)) return nullptr;
  auto index = spatial::make_index(problem.points(), problem.radius(),
                                   problem.metric());
  return std::unique_ptr<IndexedActiveSet>(
      new IndexedActiveSet(problem, std::move(index)));
}

std::unique_ptr<IndexedActiveSet> IndexedActiveSet::try_make(
    const Problem& problem, spatial::SpatialIndex* shared) {
  const IndexMode mode = index_mode();
  if (mode == IndexMode::kNone) return nullptr;
  if (shared != nullptr && shared->size() == problem.size() &&
      shared->dim() == problem.dim() && shared->radius() == problem.radius() &&
      problem.size() > 0) {
    return std::unique_ptr<IndexedActiveSet>(
        new IndexedActiveSet(problem, shared));
  }
  return try_make(problem);
}

IndexedActiveSet::IndexedActiveSet(const Problem& problem,
                                   std::unique_ptr<spatial::SpatialIndex> owned)
    : problem_(problem),
      owned_(std::move(owned)),
      index_(owned_.get()),
      residual_(problem.size(), 1.0),
      active_(problem.size()) {}

IndexedActiveSet::IndexedActiveSet(const Problem& problem,
                                   spatial::SpatialIndex* shared)
    : problem_(problem),
      owned_(nullptr),
      index_(shared),
      residual_(problem.size(), 1.0),
      active_(problem.size()) {
  // A lent index may carry masks from the previous solve; every residual
  // starts at 1 here, so every point is live again.
  index_->unmask_all();
}

double IndexedActiveSet::coverage_reward(geo::ConstVec center) const {
  thread_local std::vector<std::size_t> scratch;
  index_->query(center, scratch);
  double g = 0.0;
  block_coverage_reward(problem_, center, residual_, scratch, g);
  return g;
}

double IndexedActiveSet::apply_center(geo::ConstVec center) {
  thread_local std::vector<std::size_t> scratch;
  index_->query(center, scratch);
  double g = 0.0;
  block_apply_center(problem_, center, residual_, scratch, g);
  for (const std::size_t id : scratch) {
    if (residual_[id] == 0.0 && !index_->masked(id)) {
      index_->mask(id);
      --active_;
    }
  }
  return g;
}

void IndexedActiveSet::export_residual(std::span<double> y) const {
  MMPH_ASSERT(y.size() == residual_.size(),
              "IndexedActiveSet: export size mismatch");
  std::copy(residual_.begin(), residual_.end(), y.begin());
}

}  // namespace mmph::core::kernels
