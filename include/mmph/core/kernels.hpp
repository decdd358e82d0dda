#pragma once

/// \file kernels.hpp
/// \brief Batched, SIMD-friendly reward kernels and the one coverage
/// evaluator every greedy scores and commits centers through.
///
/// The per-point reference loop (reward.hpp's reference_coverage_reward)
/// walks one point at a time through Metric::distance — a branchy call that
/// pays a sqrt even for points far outside the coverage ball. The block
/// kernels here stage distances for a fixed-size block of contiguous SoA
/// rows (norm- and dimension-specialized tight loops the compiler
/// auto-vectorizes), then fuse the coverage and residual math
/// (`w_i * min(u_i, y_i)`) in one pass over the block. An L2
/// squared-distance early-out means out-of-range points never reach sqrt.
/// core::coverage_reward and core::apply_center are these kernels over the
/// whole population.
///
/// Determinism contract: for the same problem and residual, the blocked
/// kernels produce *bit-identical* sums to the per-point reference loop —
/// terms are accumulated in ascending point order, each term is computed
/// with the same operations as `unit_coverage`, the early-out is guarded by
/// a relative margin so it never drops a point the reference loop keeps,
/// and skipped terms are exact +0.0 (adding them cannot change the sum).
///
/// The layer also provides:
///   - ActiveSet: the residual-owning evaluator. It picks a backend once,
///     at construction — the spatial radius index or the compacted blocked
///     scan — and either backend returns the full scan's sums bit for bit.
///     Its all-candidates call (the first round that lazy evaluation
///     cannot avoid) sweeps the index once when the candidates are the
///     problem's own rows, and maps candidate by candidate otherwise.
///   - ParallelEvaluator: shards such a map across a ThreadPool. Each
///     gain lands in its own slot of a dense vector, so results are
///     deterministic regardless of scheduling.

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/parallel/parallel_for.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::core::kernels {

/// Rows staged per block: 256 doubles of distance scratch (2 KiB) stays
/// resident in L1 alongside the coordinate, weight and residual streams.
inline constexpr std::size_t kBlockSize = 256;

/// Whether evaluators run on a spatial radius index (mmph::spatial)
/// instead of the compacted full-population scan. The index is
/// bit-identical to the scan (see spatial_index.hpp for the contract), so
/// this is purely a cost knob:
///   - kNone: never index — every eval scans the live points.
///   - kGrid: always index, even for tiny populations (the differential
///     corpus uses this to exercise the indexed path; above kGridMaxDim
///     dimensions the kd-tree stands in for the grid).
///   - kAuto (default): index only when it is expected to pay off — the
///     population is large enough to amortize the build
///     (>= kAutoIndexMinPoints), low-dimensional enough for the grid
///     (dim <= spatial::kGridMaxDim), and sparse enough that a radius
///     query visits a small slice of the population (see
///     kAutoMaxQueryFraction). auto_index_profitable is the exact
///     predicate.
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

/// RAII toggle for tests and benchmarks: sets the index mode, restoring
/// the previous one on destruction. Not meant for concurrent use.
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

/// The index policy, the one reader of index_mode(): kNone never indexes,
/// kGrid indexes any non-empty problem, kAuto indexes when
/// auto_index_profitable says so or when \p lent fits the problem — its
/// point count, dimension and radius match, so an index the caller already
/// carries over these rows costs no build.
[[nodiscard]] bool should_index(const Problem& problem,
                                const spatial::SpatialIndex* lent = nullptr);

/// The kAuto predicate: true when indexing \p problem is expected to beat
/// the full scan. Requires a large population (>= kAutoIndexMinPoints), a
/// grid-friendly dimension (<= spatial::kGridMaxDim), and
/// query_box_sparse. Dense workloads — coverage balls comparable to the
/// whole box — scan faster than they gather, so kAuto declines them; kGrid
/// still forces the index for such cases.
[[nodiscard]] bool auto_index_profitable(const Problem& problem);

/// The density clause alone: true when a radius query is estimated to
/// visit at most kAutoMaxQueryFraction of the points (the 3r query box
/// against the bounding box; one O(n) pass). core::SwapEvaluator applies
/// it at any n to choose between an owned index and a full scan.
[[nodiscard]] bool query_box_sparse(const Problem& problem);

/// Index-list kernels for spatial-index callers (ActiveSet's index backend
/// and core::SwapEvaluator feed them a SpatialIndex query): evaluate only
/// the points named by \p indices, in order, accumulating term by term
/// onto \p g. Accumulate-into (rather than return-a-partial) keeps the
/// floating-point association identical to one per-point loop over the
/// concatenated index lists, so a caller feeding several spans gets
/// bit-identical sums to the full scan.
void block_coverage_reward(const Problem& problem, geo::ConstVec center,
                           std::span<const double> y,
                           std::span<const std::size_t> indices, double& g);
void block_apply_center(const Problem& problem, geo::ConstVec center,
                        std::span<double> y,
                        std::span<const std::size_t> indices, double& g);

/// The residual-owning coverage evaluator. It holds the residual y from
/// construction on and picks its backend once, by should_index():
///   - the radius index: a lent index whose rows match the problem, or one
///     it builds. An eval runs the index-list kernels over the points
///     possibly within r of the center; apply_center masks every point
///     whose residual hit exactly 0 out of the index, so queries shrink as
///     coverage saturates.
///   - the compacted scan: packed SoA rows (coords / weights / residuals)
///     of the points whose residual is still positive, streamed by the
///     block kernels and recompacted once 1/8 of the rows are exhausted.
///     Exact comparison against 0.0 (never an epsilon) keeps arbitrarily
///     small positive residuals in play.
/// Both backends return core::coverage_reward / core::apply_center over
/// the full residual vector bit for bit: dropped and out-of-ball terms are
/// exact +0.0 and the survivors keep ascending order. The backend changes
/// cost, never a selection.
///
/// Thread-safety: coverage_reward and ball are safe to call concurrently;
/// apply_center and compact are not.
class ActiveSet {
 public:
  /// Starts every point at residual 1 (a fresh round 1). \p lent is an
  /// index the caller maintains across solves (e.g. PlacementService's
  /// carried grid); it is used when the mode allows indexing and its point
  /// count, dimension and radius match the problem (rows must correspond),
  /// and it is unmasked first. Otherwise the evaluator builds its own index
  /// or scans, as should_index() decides.
  explicit ActiveSet(const Problem& problem,
                     spatial::SpatialIndex* lent = nullptr);

  /// Starts from residual \p y (size problem.size()); points with y_i == 0
  /// start exhausted.
  ActiveSet(const Problem& problem, std::span<const double> y,
            spatial::SpatialIndex* lent = nullptr);

  /// Whether evaluations run on the radius index (else the compacted scan).
  [[nodiscard]] bool indexed() const noexcept { return index_ != nullptr; }

  /// Points with residual > 0.
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }

  /// The full residual vector, exhausted points exactly 0.0: bit for bit
  /// the y that core::apply_center leaves after the same commits.
  [[nodiscard]] std::span<const double> residual() const noexcept {
    return y_;
  }

  /// g(c) = sum_i w_i min(u_i(c), y_i) against the owned residual.
  [[nodiscard]] double coverage_reward(geo::ConstVec center) const;

  /// g(c) for every candidate, each bit for bit coverage_reward(c). When
  /// the index backend runs and \p candidates is the problem's own point
  /// set, one serial sweep visits the rows i in ascending order and adds
  /// row i's term to every candidate its walk returns: the index contract
  /// is symmetric (c within r of p_i iff p_i within r of c), so each g(c)
  /// receives exactly its nonzero terms, in the gather's ascending order.
  /// Candidates whose own residual is 0 are masked out of every walk and
  /// are scored one by one. Any other call maps coverage_reward over the
  /// candidates, across \p pool when one is given (see
  /// ParallelEvaluator).
  [[nodiscard]] std::vector<double> coverage_rewards(
      const geo::PointSet& candidates, par::ThreadPool* pool = nullptr) const;

  /// Commits a center: y_i -= z_i; returns the claimed reward.
  double apply_center(geo::ConstVec center);

  /// Ascending ids of a superset of the points that can earn reward from a
  /// disk at \p center: the index's ball query (written into \p scratch),
  /// or every point the scan still holds.
  [[nodiscard]] std::span<const std::size_t> ball(
      geo::ConstVec center, std::vector<std::size_t>& scratch) const;

  /// Drops exhausted rows from the scan now (idempotent; automatic in
  /// apply_center; the index backend masks them as they exhaust).
  void compact();

 private:
  const Problem& problem_;
  std::unique_ptr<spatial::SpatialIndex> owned_;
  spatial::SpatialIndex* index_ = nullptr;  ///< null: the compacted scan
  std::vector<double> y_;                   ///< full-length residual
  std::size_t active_ = 0;
  // Compacted scan backend: packed rows of the points not yet dropped.
  std::vector<double> coords_;
  std::vector<double> weights_;
  std::vector<double> packed_;         ///< their residuals (mirrored in y_)
  std::vector<std::size_t> original_;  ///< row -> point id, ascending
};

/// Shards a per-candidate map across a ThreadPool. Results are written to
/// per-candidate slots (no shared accumulator), so the output is identical
/// to the serial map regardless of worker count or scheduling.
///
/// A null pool means "run serially on the caller" — callers that may
/// themselves be executing on a pool worker (e.g. per-shard solves inside
/// ShardedSolver) must use that mode: submitting work to the pool you are
/// running on and blocking on it can deadlock once every worker waits.
class ParallelEvaluator {
 public:
  explicit ParallelEvaluator(par::ThreadPool* pool) noexcept : pool_(pool) {}

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
