#pragma once

/// \file spatial_index.hpp
/// \brief Radius-query coverage index: solve cost scales with density, not n.
///
/// Every coverage evaluation g(c) = sum_i w_i min(u_i(c), y_i) only draws
/// nonzero terms from points within the coverage radius r of the candidate
/// c. The blocked kernels still scan all n points per evaluation; a
/// SpatialIndex answers "which points can be within r of c" in
/// O(points-in-ball), so an indexed evaluation touches only the candidates
/// that can contribute (see core::kernels::IndexedActiveSet for the bridge
/// into the reward kernels).
///
/// Contract that makes indexed solves *bit-identical* to full scans:
///   - query() appends a **superset of the closed metric ball** around the
///     center (grid: every point in the L-infinity box of half-width r,
///     which contains every p-norm ball of radius r; kd-tree: the exact
///     closed ball). Points outside the ball contribute exact +0.0 in the
///     kernels, so extras never change a sum.
///   - The ids come back in **ascending order**, the same relative order as
///     the full scan, so term-by-term accumulation associates identically.
///   - mask() removes a point from future queries. Callers mask only points
///     whose residual hit exactly 0.0 — those contribute exact +0.0 forever
///     (residuals never increase) — so masking preserves sums bit for bit.
///     This is the index-side analog of kernels::ActiveSet compaction.
///
/// Incremental maintenance mirrors serve::InstanceStore's mutation model
/// (append / overwrite-in-place / swap-remove) in O(1) amortized per op, so
/// a serving layer can carry one index across churn epochs instead of
/// rebuilding per solve. Ids are dense row numbers [0, size()); after
/// swap_remove(id) the last row takes over id, exactly like the store.
///
/// Thread-safety: query() and stats() are safe to call concurrently (the
/// counters are atomics); mutations, mask(), unmask_all() and rebuild()
/// require external serialization and must not race queries.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"

namespace mmph::spatial {

/// Uniform grids enumerate 3^dim neighbor cells per query, so the grid is
/// only built for low dimensions; above this the kd-tree takes over.
inline constexpr std::size_t kGridMaxDim = 4;

/// Point-in-time copy of an index's observability counters.
struct IndexStats {
  std::uint64_t queries = 0;              ///< query() calls
  std::uint64_t points_touched = 0;       ///< ids returned across queries
  std::uint64_t incremental_updates = 0;  ///< add + update + swap_remove
  std::uint64_t rebuilds = 0;             ///< bulk (re)builds, ctor included

  IndexStats& operator+=(const IndexStats& other) noexcept {
    queries += other.queries;
    points_touched += other.points_touched;
    incremental_updates += other.incremental_updates;
    rebuilds += other.rebuilds;
    return *this;
  }
};

enum class IndexKind {
  kGrid,    ///< UniformGridIndex: cells of side ~ r, hash-map sparse.
  kKdTree,  ///< KdTreeIndex: geometry::KdTree, the high-dimension fallback.
};

[[nodiscard]] const char* index_kind_name(IndexKind kind) noexcept;

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  [[nodiscard]] virtual IndexKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual std::size_t dim() const noexcept = 0;
  [[nodiscard]] virtual double radius() const noexcept = 0;

  /// Clears \p out, then appends the ids of every unmasked point whose
  /// distance to \p center can be <= radius() — a superset of the closed
  /// metric ball — in strictly ascending id order.
  virtual void query(geo::ConstVec center,
                     std::vector<std::size_t>& out) const = 0;

  /// Drops \p id from future queries (residual-exhausted point). Safe to
  /// call on an already-masked id (no-op).
  virtual void mask(std::size_t id) = 0;
  /// Restores every masked point (start of a fresh solve).
  virtual void unmask_all() = 0;
  [[nodiscard]] virtual bool masked(std::size_t id) const = 0;

  /// Appends a point; its id is the previous size(). O(1) amortized.
  virtual void add(geo::ConstVec p) = 0;
  /// Moves point \p id to \p p (overwrite-in-place). O(1) amortized.
  virtual void update(std::size_t id, geo::ConstVec p) = 0;
  /// Removes \p id; the last row takes over id (InstanceStore semantics).
  virtual void swap_remove(std::size_t id) = 0;

  /// Rebuilds the search structure from the current rows (recovery path
  /// after a failed incremental update). Masks are preserved.
  virtual void rebuild() = 0;
  /// Structural self-check: every unmasked row findable exactly once.
  [[nodiscard]] virtual bool verify() const = 0;

  /// Coordinates of row \p id (owned by the index, valid until mutation).
  [[nodiscard]] virtual geo::ConstVec point(std::size_t id) const = 0;

  [[nodiscard]] IndexStats stats() const noexcept {
    IndexStats s;
    s.queries = queries_.load(std::memory_order_relaxed);
    s.points_touched = points_touched_.load(std::memory_order_relaxed);
    s.incremental_updates = updates_.load(std::memory_order_relaxed);
    s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  void count_query(std::size_t touched) const noexcept {
    queries_.fetch_add(1, std::memory_order_relaxed);
    points_touched_.fetch_add(touched, std::memory_order_relaxed);
  }
  void count_update() noexcept {
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_rebuild() noexcept {
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> points_touched_{0};
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
};

/// Builds the index best suited to the workload's shape: a uniform grid for
/// dim <= kGridMaxDim, the kd-tree fallback above (neighbor-cell
/// enumeration is 3^dim, so grids stop paying off quickly). \p radius must
/// be positive; \p metric matters only to the kd-tree (the grid's box query
/// is a superset of every p-norm ball).
[[nodiscard]] std::unique_ptr<SpatialIndex> make_index(
    const geo::PointSet& points, double radius, const geo::Metric& metric);

/// Explicit-kind factory (tests, benchmarks).
[[nodiscard]] std::unique_ptr<SpatialIndex> make_index(
    IndexKind kind, const geo::PointSet& points, double radius,
    const geo::Metric& metric);

}  // namespace mmph::spatial
