#pragma once

/// \file gain_cache.hpp
/// \brief Marginal gains g(c) carried from one polish to the next.
///
/// core::polish keeps every candidate's g(c) = f(C + c) − f(C) while the
/// evaluator gathers balls through an index. A warm re-solve polishes the
/// centers the previous polish returned, on a population that changed by a
/// few rows, so almost every g is still what it was. A GainCache carries
/// them: it mirrors the population's row operations (append, swap-remove,
/// overwrite in place; serve::InstanceStore's model) in O(1) each and
/// records the positions they touched. At the next polish start,
/// core::polish re-sums only
///
///   - the rows within r·(1 + 1e-9) of a touched position: a user's join,
///     leave or move changes g(c) only for candidates whose ball holds it;
///   - the rows the previous polish re-summed after a commit: those sums
///     saw the search's running totals, not the slot-order totals a fresh
///     evaluator computes.
///
/// Every other entry equals bitwise what SwapEvaluator::add_gain returns
/// against the fresh evaluator (DESIGN.md §18), so the polish's decisions
/// and counters are the cache-less polish's, apart from LsStats::gain_sums.
///
/// The rows are the problem's own points (the candidates of the polish
/// that fills the cache). The cache also holds the centers its gains were
/// summed against, and a polish from other centers sums every row. An
/// empty cache carries nothing: its row operations are no-ops, and the
/// next polish sums every row.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core {

class GainCache {
 public:
  // --- row operations, mirroring the population ---

  /// A row appended at \p p; its id is size().
  void insert(geo::ConstVec p);
  /// Row \p row, at \p p, removed; the last row, at \p last, takes over
  /// its id (pass \p p again when \p row is the last row).
  void swap_remove(std::size_t row, geo::ConstVec p, geo::ConstVec last);
  /// Row \p row moved from \p from to \p to, or only changed weight
  /// (\p from == \p to).
  void update(std::size_t row, geo::ConstVec from, geo::ConstVec to);
  /// Forgets every gain and touched position.
  void clear() noexcept;

  [[nodiscard]] bool empty() const noexcept { return gain_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return gain_.size(); }
  /// Positions touched since the last polish start.
  [[nodiscard]] std::size_t touched() const noexcept { return touched_; }

  // --- the polish's side ---

  /// Brings the cache to \p points, the rows \p index indexes, for a
  /// polish from \p centers at radius \p radius. An empty cache, or one
  /// holding other centers, gets one stale entry per row; otherwise every
  /// row within radius·(1 + 1e-9) of a touched position goes stale (one
  /// query through \p index per position). Clears the touched list.
  void prepare(const geo::PointSet& points, const geo::PointSet& centers,
               const spatial::SpatialIndex& index, const geo::Metric& metric,
               double radius);
  /// Records the centers the gains now describe (the polish's result).
  void settle(const geo::PointSet& centers);

  /// True when entry \p row must be re-summed before it is read.
  [[nodiscard]] bool stale(std::size_t row) const { return stale_[row] != 0; }
  [[nodiscard]] double operator[](std::size_t row) const { return gain_[row]; }
  /// A sum against a fresh evaluator: carried to the next polish.
  void store(std::size_t row, double gain) {
    gain_[row] = gain;
    stale_[row] = 0;
  }
  /// A sum after a commit, against the search's running totals: current
  /// for this polish, re-summed by the next.
  void store_drifted(std::size_t row, double gain) {
    gain_[row] = gain;
    stale_[row] = 1;
  }

 private:
  void touch(geo::ConstVec p);

  std::vector<double> gain_;
  std::vector<std::uint8_t> stale_;
  std::vector<double> centers_;    ///< row-major, what gain_ describes
  std::vector<double> positions_;  ///< touched positions, row-major
  std::size_t touched_ = 0;
  std::vector<std::size_t> ids_;  ///< query scratch
};

}  // namespace mmph::core
