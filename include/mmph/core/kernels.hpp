#pragma once

/// \file kernels.hpp
/// \brief Batched, SIMD-friendly reward kernels: the streaming inner loops
/// behind every solver's coverage evaluations.
///
/// The plain kernels in reward.hpp walk one point at a time through
/// Metric::distance — a branchy call that pays a sqrt even for points far
/// outside the coverage ball. The block kernels here stage distances for a
/// fixed-size block of contiguous SoA rows (norm- and dimension-specialized
/// tight loops the compiler auto-vectorizes), then fuse the coverage and
/// residual math (`w_i * min(u_i, y_i)`) in one pass over the block. An L2
/// squared-distance early-out means out-of-range points never reach sqrt.
///
/// Determinism contract: for the same problem and residual, the blocked
/// kernels produce *bit-identical* sums to the per-point reference path —
/// terms are accumulated in ascending point order, each term is computed
/// with the same operations as `unit_coverage`, the early-out is guarded by
/// a relative margin so it never drops a point the reference path keeps,
/// and skipped terms are exact +0.0 (adding them cannot change the sum).
/// Every solver therefore selects the same centers with the blocked path on
/// or off; tests pin this.
///
/// The layer also provides:
///   - ActiveSet: a residual-aware compaction of the population. Points
///     whose residual has hit exactly 0 can never contribute again
///     (residuals only decrease), so they are dropped from the scan while
///     preserving the relative order — and hence the exact sums — of the
///     survivors.
///   - ParallelEvaluator: shards an all-candidates gain scan (the O(n^2)
///     first round that lazy evaluation cannot avoid) across a ThreadPool.
///     Each gain lands in its own slot of a dense vector, so results are
///     deterministic regardless of scheduling.

#include <atomic>
#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/parallel/parallel_for.hpp"
#include "mmph/parallel/thread_pool.hpp"

namespace mmph::core::kernels {

/// Rows staged per block: 256 doubles of distance scratch (2 KiB) stays
/// resident in L1 alongside the coordinate, weight and residual streams.
inline constexpr std::size_t kBlockSize = 256;

/// Whether reward.hpp's kernels delegate to the blocked path (default on).
/// The per-point reference path is kept for A/B tests and benchmarks.
void set_blocked_enabled(bool enabled) noexcept;
[[nodiscard]] bool blocked_enabled() noexcept;

/// RAII toggle for tests: forces the blocked path on/off, restoring the
/// previous setting on destruction. Not meant for concurrent use.
class ScopedBlockedKernels {
 public:
  explicit ScopedBlockedKernels(bool enabled) noexcept
      : previous_(blocked_enabled()) {
    set_blocked_enabled(enabled);
  }
  ~ScopedBlockedKernels() { set_blocked_enabled(previous_); }
  ScopedBlockedKernels(const ScopedBlockedKernels&) = delete;
  ScopedBlockedKernels& operator=(const ScopedBlockedKernels&) = delete;

 private:
  bool previous_;
};

/// Whether solvers route coverage evaluations through a spatial radius
/// index (mmph::spatial) instead of the full-population scan. The indexed
/// path is bit-identical to the scan (see spatial_index.hpp for the
/// contract), so this is purely a cost knob:
///   - kNone: never index — every eval scans all n points (blocked or not).
///   - kGrid: always index, even for tiny populations (the differential
///     corpus uses this to exercise the indexed path; above kGridMaxDim
///     dimensions the kd-tree stands in for the grid).
///   - kAuto (default): index only when it is expected to pay off — the
///     population is large enough to amortize the build
///     (>= kAutoIndexMinPoints), low-dimensional enough for the grid
///     (dim <= spatial::kGridMaxDim), and sparse enough that a radius
///     query visits a small slice of the population (see
///     kAutoMaxQueryFraction). See indexed_eval.hpp's
///     auto_index_profitable for the exact predicate.
enum class IndexMode {
  kNone,
  kGrid,
  kAuto,
};

/// Populations below this never index under kAuto: a full scan of a few
/// thousand points is cheaper than building the grid.
inline constexpr std::size_t kAutoIndexMinPoints = 4096;

/// Density guard for kAuto. A grid query gathers the 3^dim cell
/// neighborhood around the center — an L-inf box of side 3r — so the
/// expected fraction of the population visited per eval is roughly
/// prod_d min(1, 3r / extent_d) over the bounding-box extents. When that
/// fraction is large (dense workload: coverage balls comparable to the
/// whole box), gathering and merging the candidate list costs more than
/// the vectorized full scan it replaces, and indexing is a pessimization.
/// kAuto indexes only when the estimated fraction is at most this value.
inline constexpr double kAutoMaxQueryFraction = 0.125;

void set_index_mode(IndexMode mode) noexcept;
[[nodiscard]] IndexMode index_mode() noexcept;

[[nodiscard]] const char* index_mode_name(IndexMode mode) noexcept;
/// Parses "none" / "grid" / "auto" (the --index flag values).
[[nodiscard]] std::optional<IndexMode> parse_index_mode(
    std::string_view name) noexcept;

/// RAII toggle for tests, mirroring ScopedBlockedKernels.
class ScopedIndexMode {
 public:
  explicit ScopedIndexMode(IndexMode mode) noexcept : previous_(index_mode()) {
    set_index_mode(mode);
  }
  ~ScopedIndexMode() { set_index_mode(previous_); }
  ScopedIndexMode(const ScopedIndexMode&) = delete;
  ScopedIndexMode& operator=(const ScopedIndexMode&) = delete;

 private:
  IndexMode previous_;
};

/// Blocked equivalent of core::coverage_reward: g(c) = sum_i w_i min(u_i, y_i).
[[nodiscard]] double block_coverage_reward(const Problem& problem,
                                           geo::ConstVec center,
                                           std::span<const double> y);

/// Blocked equivalent of core::apply_center: commits the round, y_i -= z_i.
double block_apply_center(const Problem& problem, geo::ConstVec center,
                          std::span<double> y);

/// Index-list variants for spatial-index callers (IndexedActiveSet feeds
/// them a SpatialIndex query): evaluate only the points named by
/// \p indices, in order, accumulating term by term onto \p g.
/// Accumulate-into (rather than return-a-partial) keeps the floating-point
/// association identical to one per-point loop over the concatenated index
/// lists, so a caller feeding several spans gets bit-identical sums to the
/// unblocked path.
void block_coverage_reward(const Problem& problem, geo::ConstVec center,
                           std::span<const double> y,
                           std::span<const std::size_t> indices, double& g);
void block_apply_center(const Problem& problem, geo::ConstVec center,
                        std::span<double> y,
                        std::span<const std::size_t> indices, double& g);

/// A compacted view of the population holding only points whose residual is
/// still positive, stored SoA (packed coords / weights / residuals) so the
/// block kernels stream over survivors at full memory bandwidth.
///
/// Semantics: the set owns the residual state from construction on.
/// coverage_reward/apply_center match the full-population kernels exactly
/// (dropped points contribute exact zeros; survivor order is preserved), so
/// a solver that swaps its residual vector for an ActiveSet selects the
/// same centers. Compaction triggers automatically once at least 1/8 of the
/// scanned rows are exhausted; exact comparison against 0.0 (never an
/// epsilon) keeps arbitrarily small positive residuals in play.
class ActiveSet {
 public:
  /// Starts with every point active and residual 1 (a fresh round 1).
  explicit ActiveSet(const Problem& problem);

  /// Starts from an existing residual vector (points with y[i] == 0 are
  /// dropped immediately). \p y.size() must equal problem.size().
  ActiveSet(const Problem& problem, std::span<const double> y);

  /// Points still scanned (== active points between compactions plus
  /// not-yet-compacted exhausted ones).
  [[nodiscard]] std::size_t scan_size() const noexcept { return weights_.size(); }

  /// Points with residual > 0.
  [[nodiscard]] std::size_t active_count() const noexcept {
    return weights_.size() - exhausted_;
  }

  /// g(c) over the active points — equals block_coverage_reward against the
  /// equivalent full residual vector, bit for bit.
  [[nodiscard]] double coverage_reward(geo::ConstVec center) const;

  /// Commits a center against the internal residual state; returns the
  /// claimed reward and compacts when enough points became exhausted.
  double apply_center(geo::ConstVec center);

  /// Drops exhausted points now (idempotent; automatic in apply_center).
  void compact();

  /// Writes the equivalent full residual vector: 0 for exhausted points,
  /// the internal residual for active ones. \p y.size() == problem.size().
  void export_residual(std::span<double> y) const;

 private:
  void gather(std::span<const double> y);

  const Problem& problem_;
  std::vector<double> coords_;        // packed rows of active points
  std::vector<double> weights_;       // aligned with coords_ rows
  std::vector<double> residual_;      // aligned; the live y values
  std::vector<std::size_t> original_; // row -> original point index
  std::size_t exhausted_ = 0;         // rows with residual exactly 0
};

/// Shards an all-candidates gain scan across a ThreadPool. Results are
/// written to per-candidate slots (no shared accumulator), so the output is
/// identical to the serial scan regardless of worker count or scheduling.
///
/// A null pool means "run serially on the caller" — callers that may
/// themselves be executing on a pool worker (e.g. per-shard solves inside
/// ShardedSolver) must use that mode: submitting work to the pool you are
/// running on and blocking on it can deadlock once every worker waits.
class ParallelEvaluator {
 public:
  explicit ParallelEvaluator(par::ThreadPool* pool) noexcept : pool_(pool) {}

  /// gains[c] = coverage reward of pool[c] against \p y.
  [[nodiscard]] std::vector<double> pool_gains(
      const Problem& problem, const geo::PointSet& pool,
      std::span<const double> y) const;

  /// Generic deterministic map: out[i] = eval(i) for i in [0, count).
  /// \p eval must be safe to call concurrently from pool workers.
  template <typename Eval>
  [[nodiscard]] std::vector<double> map(std::size_t count, Eval&& eval) const {
    std::vector<double> out(count);
    if (pool_ == nullptr || pool_->thread_count() <= 1 || count < 2) {
      for (std::size_t i = 0; i < count; ++i) out[i] = eval(i);
      return out;
    }
    par::parallel_for(
        *pool_, 0, count, [&](std::size_t i) { out[i] = eval(i); },
        /*grain=*/0);
    return out;
  }

 private:
  par::ThreadPool* pool_;
};

}  // namespace mmph::core::kernels
