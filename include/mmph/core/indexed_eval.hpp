#pragma once

/// \file indexed_eval.hpp
/// \brief IndexedActiveSet: the bridge from mmph::spatial radius queries
/// into the coverage reward kernels.
///
/// An evaluation g(c) only draws nonzero terms from points within the
/// coverage radius of c; everything else contributes exact +0.0. The
/// IndexedActiveSet asks a SpatialIndex for "points possibly within r of c"
/// and feeds that (ascending) id list through the index-list block kernels,
/// producing sums bit-identical to a full-population scan — see
/// spatial_index.hpp for the superset/ordering/masking contract — at
/// O(points-in-ball) cost per eval instead of O(n).
///
/// Residual-aware masking: after apply_center, any touched point whose
/// residual hit exactly 0.0 is masked out of the index, so later queries
/// shrink as coverage saturates (the spatial analog of ActiveSet
/// compaction).
///
/// Construction honors kernels::index_mode() (kNone / kGrid / kAuto) via
/// try_make, so solvers gate on "did try_make return an instance" rather
/// than re-deriving the policy. A serving layer that already maintains an
/// index across churn epochs can lend it through the shared-index overload;
/// the set unmasks it at start-of-solve and masks as rounds commit, leaving
/// the index reusable afterwards.
///
/// Thread-safety: coverage_reward is safe to call concurrently (per-thread
/// scratch, const query); apply_center and export_residual are not.

#include <memory>
#include <span>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core::kernels {

/// The kAuto policy predicate: true when indexing \p problem is expected
/// to beat the full scan. Requires a large population
/// (>= kAutoIndexMinPoints), a grid-friendly dimension
/// (<= spatial::kGridMaxDim), and query_box_sparse. Dense workloads —
/// coverage balls comparable to the whole box — scan faster than they
/// gather, so kAuto declines them; kGrid still forces the index for such
/// cases.
[[nodiscard]] bool auto_index_profitable(const Problem& problem);

/// The density clause alone: true when a radius query is estimated to
/// visit at most kAutoMaxQueryFraction of the points (the 3r query box
/// against the bounding box; one O(n) pass). core::SwapEvaluator applies
/// it at any n to choose between an owned index and a full scan.
[[nodiscard]] bool query_box_sparse(const Problem& problem);

class IndexedActiveSet {
 public:
  /// Builds an index-backed evaluator for \p problem, or returns null when
  /// the current index_mode() says not to index (kNone always; kAuto when
  /// auto_index_profitable says the scan path is cheaper). A null result
  /// means "use the scan path".
  [[nodiscard]] static std::unique_ptr<IndexedActiveSet> try_make(
      const Problem& problem);

  /// Same policy, but wraps \p shared (an index the caller maintains across
  /// solves, e.g. PlacementService's carried grid) instead of building one
  /// — provided the mode allows indexing and the index matches the problem
  /// (same point count and dimension; rows must correspond). Falls back to
  /// try_make(problem) on mismatch, null when the mode is kNone.
  [[nodiscard]] static std::unique_ptr<IndexedActiveSet> try_make(
      const Problem& problem, spatial::SpatialIndex* shared);

  [[nodiscard]] const Problem& problem() const noexcept { return problem_; }
  [[nodiscard]] const spatial::SpatialIndex& index() const noexcept {
    return *index_;
  }

  /// Points whose residual is still positive.
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }

  /// g(c) against the internal residual — equals block_coverage_reward on
  /// the equivalent full residual vector, bit for bit. Thread-safe.
  [[nodiscard]] double coverage_reward(geo::ConstVec center) const;

  /// Commits a center: residuals decrease, newly exhausted points are
  /// masked out of the index. Returns the claimed reward.
  double apply_center(geo::ConstVec center);

  /// Writes the equivalent full residual vector (masked rows are already
  /// exactly 0.0 internally). \p y.size() == problem().size().
  void export_residual(std::span<double> y) const;

 private:
  IndexedActiveSet(const Problem& problem,
                   std::unique_ptr<spatial::SpatialIndex> owned);
  IndexedActiveSet(const Problem& problem, spatial::SpatialIndex* shared);

  const Problem& problem_;
  std::unique_ptr<spatial::SpatialIndex> owned_;
  spatial::SpatialIndex* index_;   ///< owned_.get() or the lent index
  std::vector<double> residual_;   ///< full-length y, masked rows exactly 0
  std::size_t active_;
};

}  // namespace mmph::core::kernels
