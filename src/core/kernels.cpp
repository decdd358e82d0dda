#include "mmph/core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "mmph/core/reward.hpp"
#include "mmph/geometry/norms.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core::kernels {
namespace {

std::atomic<IndexMode> g_index_mode{IndexMode::kAuto};

enum class NormKind { kL1, kL2, kLinf, kLp };

NormKind to_kind(geo::Norm n) {
  switch (n) {
    case geo::Norm::kL1:
      return NormKind::kL1;
    case geo::Norm::kL2:
      return NormKind::kL2;
    case geo::Norm::kLinf:
      return NormKind::kLinf;
    case geo::Norm::kLp:
      return NormKind::kLp;
  }
  return NormKind::kL2;  // unreachable
}

struct Params {
  NormKind kind;
  double p;        // exponent for NormKind::kLp
  double radius;
  double r2_skip;  // radius^2 * kSkipMargin (L2 early-out threshold)
  bool binary;     // RewardShape::kBinary
};

Params make_params(const Problem& problem) {
  Params prm;
  prm.kind = to_kind(problem.metric().norm());
  prm.p = problem.metric().p();
  prm.radius = problem.radius();
  prm.r2_skip = prm.radius * prm.radius * geo::kSquaredSkipMargin;
  prm.binary = problem.reward_shape() == RewardShape::kBinary;
  return prm;
}

/// One point's distance (L2: *squared* distance) with the same operation
/// order as the geo:: distance kernels, so values are identical.
template <NormKind NK, int DIM>
inline double dist_one(const double* row, const double* c, std::size_t dim,
                       double p) {
  if constexpr (DIM > 0) dim = static_cast<std::size_t>(DIM);
  if constexpr (NK == NormKind::kL2) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double t = c[d] - row[d];
      s += t * t;
    }
    return s;
  } else if constexpr (NK == NormKind::kL1) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) s += std::fabs(c[d] - row[d]);
    return s;
  } else if constexpr (NK == NormKind::kLinf) {
    double m = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      m = std::max(m, std::fabs(c[d] - row[d]));
    }
    return m;
  } else {
    return geo::lp_distance(geo::ConstVec(c, dim), geo::ConstVec(row, dim), p);
  }
}

/// Stage 1: distances for a block of contiguous rows. The fixed per-call
/// trip counts (DIM and cnt <= kBlockSize) give the compiler straight-line
/// loops over contiguous streams to vectorize.
template <NormKind NK, int DIM>
inline void stage_block(const double* rows, std::size_t cnt, std::size_t dim,
                        const double* c, double p, double* dist) {
  if constexpr (DIM == 2) {
    const double c0 = c[0], c1 = c[1];
    for (std::size_t i = 0; i < cnt; ++i) {
      const double* row = rows + 2 * i;
      if constexpr (NK == NormKind::kL2) {
        const double d0 = c0 - row[0], d1 = c1 - row[1];
        double s = d0 * d0;
        s += d1 * d1;
        dist[i] = s;
      } else if constexpr (NK == NormKind::kL1) {
        double s = std::fabs(c0 - row[0]);
        s += std::fabs(c1 - row[1]);
        dist[i] = s;
      } else if constexpr (NK == NormKind::kLinf) {
        dist[i] = std::max(std::max(0.0, std::fabs(c0 - row[0])),
                           std::fabs(c1 - row[1]));
      } else {
        dist[i] = dist_one<NK, 2>(row, c, 2, p);
      }
    }
  } else if constexpr (DIM == 3) {
    const double c0 = c[0], c1 = c[1], c2 = c[2];
    for (std::size_t i = 0; i < cnt; ++i) {
      const double* row = rows + 3 * i;
      if constexpr (NK == NormKind::kL2) {
        const double d0 = c0 - row[0], d1 = c1 - row[1], d2 = c2 - row[2];
        double s = d0 * d0;
        s += d1 * d1;
        s += d2 * d2;
        dist[i] = s;
      } else if constexpr (NK == NormKind::kL1) {
        double s = std::fabs(c0 - row[0]);
        s += std::fabs(c1 - row[1]);
        s += std::fabs(c2 - row[2]);
        dist[i] = s;
      } else if constexpr (NK == NormKind::kLinf) {
        double m = std::max(0.0, std::fabs(c0 - row[0]));
        m = std::max(m, std::fabs(c1 - row[1]));
        m = std::max(m, std::fabs(c2 - row[2]));
        dist[i] = m;
      } else {
        dist[i] = dist_one<NK, 3>(row, c, 3, p);
      }
    }
  } else {
    for (std::size_t i = 0; i < cnt; ++i) {
      dist[i] = dist_one<NK, 0>(rows + i * dim, c, dim, p);
    }
  }
}

/// Stage 2: distances -> unit coverages, in place. Out-of-range points get
/// a non-positive u; the accumulation stage clamps, so the exact sentinel
/// never matters. L2 pays the sqrt only inside the early-out margin.
template <NormKind NK>
inline void dist_to_u(double* dist, std::size_t cnt, const Params& prm) {
  if constexpr (NK == NormKind::kL2) {
    if (prm.binary) {
      for (std::size_t i = 0; i < cnt; ++i) {
        const double d2 = dist[i];
        dist[i] = (d2 > prm.r2_skip || std::sqrt(d2) > prm.radius) ? -1.0
                                                                   : 1.0;
      }
    } else {
      for (std::size_t i = 0; i < cnt; ++i) {
        const double d2 = dist[i];
        dist[i] =
            d2 > prm.r2_skip ? -1.0 : 1.0 - std::sqrt(d2) / prm.radius;
      }
    }
  } else {
    if (prm.binary) {
      for (std::size_t i = 0; i < cnt; ++i) {
        dist[i] = dist[i] <= prm.radius ? 1.0 : -1.0;
      }
    } else {
      for (std::size_t i = 0; i < cnt; ++i) {
        dist[i] = 1.0 - dist[i] / prm.radius;
      }
    }
  }
}

/// Stage 3 + driver over contiguous rows [0, n). Accumulates onto \p g
/// term by term in ascending point order — the same association as the
/// per-point reference loop, so sums are bit-identical (skipped points
/// contribute exact +0.0, which cannot change a non-negative sum).
template <NormKind NK, int DIM, bool Apply>
inline void run_range(const double* rows, const double* w, double* y,
                      std::size_t n, std::size_t dim, const double* c,
                      const Params& prm, double& g) {
  double dist[kBlockSize];
  for (std::size_t base = 0; base < n; base += kBlockSize) {
    const std::size_t cnt = std::min(kBlockSize, n - base);
    stage_block<NK, DIM>(rows + base * dim, cnt, dim, c, prm.p, dist);
    dist_to_u<NK>(dist, cnt, prm);
    const double* wb = w + base;
    double* yb = y + base;
    for (std::size_t i = 0; i < cnt; ++i) {
      double z = std::min(dist[i], yb[i]);
      z = z > 0.0 ? z : 0.0;
      if constexpr (Apply) yb[i] -= z;
      g += wb[i] * z;
    }
  }
}

/// Driver over an explicit index list (spatial-index cell ranges). Same
/// math and same accumulation association as the reference loop over the
/// same indices.
template <NormKind NK, int DIM, bool Apply>
inline void run_indexed(const double* rows, const double* w, double* y,
                        std::size_t dim, const double* c, const Params& prm,
                        const std::size_t* idx, std::size_t m, double& g) {
  double dist[kBlockSize];
  for (std::size_t base = 0; base < m; base += kBlockSize) {
    const std::size_t cnt = std::min(kBlockSize, m - base);
    const std::size_t* ib = idx + base;
    for (std::size_t i = 0; i < cnt; ++i) {
      dist[i] = dist_one<NK, DIM>(rows + ib[i] * dim, c, dim, prm.p);
    }
    dist_to_u<NK>(dist, cnt, prm);
    for (std::size_t i = 0; i < cnt; ++i) {
      const std::size_t j = ib[i];
      double z = std::min(dist[i], y[j]);
      z = z > 0.0 ? z : 0.0;
      if constexpr (Apply) y[j] -= z;
      g += w[j] * z;
    }
  }
}

/// The first-round sweep (ActiveSet::coverage_rewards): for each live row
/// i in ascending order, row i's term at every candidate c its walk
/// returns, with run_indexed's expressions (row p_i, center p_c), so g[c]
/// accumulates the terms of coverage_reward(p_c) in the same order.
template <NormKind NK, int DIM>
void sweep_rows(const double* rows, const double* w, const double* y,
                std::size_t n, std::size_t dim, const Params& prm,
                const spatial::SpatialIndex& index, double* g) {
  std::vector<std::size_t> ids;
  double u[kBlockSize];
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] == 0.0) continue;  // masked: every term of row i is +0.0
    const double* row = rows + i * dim;
    index.walk(geo::ConstVec(row, dim), ids);
    for (std::size_t base = 0; base < ids.size(); base += kBlockSize) {
      const std::size_t cnt = std::min(kBlockSize, ids.size() - base);
      const std::size_t* cb = ids.data() + base;
      for (std::size_t j = 0; j < cnt; ++j) {
        u[j] = dist_one<NK, DIM>(row, rows + cb[j] * dim, dim, prm.p);
      }
      dist_to_u<NK>(u, cnt, prm);
      for (std::size_t j = 0; j < cnt; ++j) {
        double z = std::min(u[j], y[i]);
        z = z > 0.0 ? z : 0.0;
        g[cb[j]] += w[i] * z;
      }
    }
  }
}

/// Runs \p fn.template operator()<NK, DIM>(dim) for the problem's norm and
/// dimension: 2 and 3 are specialized (DIM and the argument are constants),
/// DIM = 0 stands for any other.
template <typename Fn>
void with_kernel(const Params& prm, std::size_t dim, Fn&& fn) {
  const auto by_dim = [&]<NormKind NK>() {
    switch (dim) {
      case 2:
        fn.template operator()<NK, 2>(std::size_t{2});
        return;
      case 3:
        fn.template operator()<NK, 3>(std::size_t{3});
        return;
      default:
        fn.template operator()<NK, 0>(dim);
        return;
    }
  };
  switch (prm.kind) {
    case NormKind::kL1:
      by_dim.template operator()<NormKind::kL1>();
      return;
    case NormKind::kL2:
      by_dim.template operator()<NormKind::kL2>();
      return;
    case NormKind::kLinf:
      by_dim.template operator()<NormKind::kLinf>();
      return;
    case NormKind::kLp:
      by_dim.template operator()<NormKind::kLp>();
      return;
  }
}

/// Accumulates the rows [0, n) onto \p g (Apply: and commits into \p y).
template <bool Apply>
void dispatch(const double* rows, const double* w, double* y, std::size_t n,
              std::size_t dim, const double* c, const Params& prm, double& g) {
  with_kernel(prm, dim, [&]<NormKind NK, int DIM>(std::size_t d) {
    run_range<NK, DIM, Apply>(rows, w, y, n, d, c, prm, g);
  });
}

/// Accumulates the rows named by \p idx onto \p g (Apply: and commits).
template <bool Apply>
void dispatch_indexed(const double* rows, const double* w, double* y,
                      std::size_t dim, const double* c, const Params& prm,
                      const std::size_t* idx, std::size_t m, double& g) {
  with_kernel(prm, dim, [&]<NormKind NK, int DIM>(std::size_t d) {
    run_indexed<NK, DIM, Apply>(rows, w, y, d, c, prm, idx, m, g);
  });
}

/// Whether \p lent can stand in for an index built over \p problem's rows.
bool lent_fits(const Problem& problem, const spatial::SpatialIndex* lent) {
  return lent != nullptr && problem.size() > 0 &&
         lent->size() == problem.size() && lent->dim() == problem.dim() &&
         lent->radius() == problem.radius();
}

}  // namespace

void set_index_mode(IndexMode mode) noexcept {
  g_index_mode.store(mode, std::memory_order_relaxed);
}

IndexMode index_mode() noexcept {
  return g_index_mode.load(std::memory_order_relaxed);
}

const char* index_mode_name(IndexMode mode) noexcept {
  switch (mode) {
    case IndexMode::kNone:
      return "none";
    case IndexMode::kGrid:
      return "grid";
    case IndexMode::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<IndexMode> parse_index_mode(std::string_view name) noexcept {
  if (name == "none") return IndexMode::kNone;
  if (name == "grid") return IndexMode::kGrid;
  if (name == "auto") return IndexMode::kAuto;
  return std::nullopt;
}

bool should_index(const Problem& problem, const spatial::SpatialIndex* lent) {
  switch (index_mode()) {
    case IndexMode::kNone:
      return false;
    case IndexMode::kGrid:
      return problem.size() > 0;
    case IndexMode::kAuto:
      return lent_fits(problem, lent) || auto_index_profitable(problem);
  }
  return false;
}

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

void block_coverage_reward(const Problem& problem, geo::ConstVec center,
                           std::span<const double> y,
                           std::span<const std::size_t> indices, double& g) {
  MMPH_ASSERT(y.size() == problem.size(), "block coverage: residual size");
  const Params prm = make_params(problem);
  dispatch_indexed<false>(problem.points().raw().data(),
                          problem.weights().data(),
                          const_cast<double*>(y.data()), problem.dim(),
                          center.data(), prm, indices.data(), indices.size(),
                          g);
}

void block_apply_center(const Problem& problem, geo::ConstVec center,
                        std::span<double> y,
                        std::span<const std::size_t> indices, double& g) {
  MMPH_ASSERT(y.size() == problem.size(), "block apply: residual size");
  const Params prm = make_params(problem);
  dispatch_indexed<true>(problem.points().raw().data(),
                         problem.weights().data(), y.data(), problem.dim(),
                         center.data(), prm, indices.data(), indices.size(),
                         g);
}

ActiveSet::ActiveSet(const Problem& problem, spatial::SpatialIndex* lent)
    : ActiveSet(problem, fresh_residual(problem), lent) {}

ActiveSet::ActiveSet(const Problem& problem, std::span<const double> y,
                     spatial::SpatialIndex* lent)
    : problem_(problem), y_(y.begin(), y.end()) {
  MMPH_REQUIRE(y.size() == problem.size(), "ActiveSet: residual size");
  if (should_index(problem, lent)) {
    if (lent_fits(problem, lent)) {
      // A lent index may carry masks from its previous user.
      index_ = lent;
      index_->unmask_all();
    } else {
      owned_ = spatial::make_index(problem.points(), problem.radius(),
                                   problem.metric());
      index_ = owned_.get();
    }
    for (std::size_t i = 0; i < y_.size(); ++i) {
      if (y_[i] == 0.0) {
        index_->mask(i);
      } else {
        ++active_;
      }
    }
    return;
  }
  const std::size_t dim = problem.dim();
  const double* rows = problem.points().raw().data();
  for (std::size_t i = 0; i < y_.size(); ++i) {
    if (y_[i] == 0.0) continue;
    coords_.insert(coords_.end(), rows + i * dim, rows + (i + 1) * dim);
    weights_.push_back(problem.weight(i));
    packed_.push_back(y_[i]);
    original_.push_back(i);
  }
  active_ = original_.size();
}

double ActiveSet::coverage_reward(geo::ConstVec center) const {
  MMPH_ASSERT(center.size() == problem_.dim(), "ActiveSet: center dim");
  double g = 0.0;
  if (index_ != nullptr) {
    thread_local std::vector<std::size_t> ids;
    index_->query(center, ids);
    block_coverage_reward(problem_, center, y_, ids, g);
    return g;
  }
  const Params prm = make_params(problem_);
  dispatch<false>(coords_.data(), weights_.data(),
                  const_cast<double*>(packed_.data()), weights_.size(),
                  problem_.dim(), center.data(), prm, g);
  return g;
}

std::vector<double> ActiveSet::coverage_rewards(
    const geo::PointSet& candidates, par::ThreadPool* pool) const {
  if (index_ == nullptr || &candidates != &problem_.points()) {
    return ParallelEvaluator(pool).map(candidates.size(), [&](std::size_t c) {
      return coverage_reward(candidates[c]);
    });
  }
  // A nonzero term needs dist(p_i, p_c) <= r. The distance is symmetric
  // and a walk, like a query, returns a superset of the closed ball, so c
  // is in row i's walk whenever i is in c's own query with a nonzero
  // term. Every other term is exact +0.0, and each g[c] receives its
  // terms in ascending i, the order of the gather it replaces.
  std::vector<double> g(candidates.size(), 0.0);
  const Params prm = make_params(problem_);
  with_kernel(prm, problem_.dim(), [&]<NormKind NK, int DIM>(std::size_t d) {
    sweep_rows<NK, DIM>(problem_.points().raw().data(),
                        problem_.weights().data(), y_.data(), y_.size(), d,
                        prm, *index_, g.data());
  });
  // Exhausted rows are masked out of every walk, so as candidates they
  // take their own query.
  if (active_ < y_.size()) {
    for (std::size_t c = 0; c < g.size(); ++c) {
      if (y_[c] == 0.0) g[c] = coverage_reward(candidates[c]);
    }
  }
  return g;
}

double ActiveSet::apply_center(geo::ConstVec center) {
  MMPH_ASSERT(center.size() == problem_.dim(), "ActiveSet: center dim");
  double g = 0.0;
  if (index_ != nullptr) {
    thread_local std::vector<std::size_t> ids;
    index_->query(center, ids);
    block_apply_center(problem_, center, y_, ids, g);
    // Queries return only unmasked points, each still positive.
    for (const std::size_t id : ids) {
      if (y_[id] == 0.0) {
        index_->mask(id);
        --active_;
      }
    }
    return g;
  }
  const Params prm = make_params(problem_);
  dispatch<true>(coords_.data(), weights_.data(), packed_.data(),
                 weights_.size(), problem_.dim(), center.data(), prm, g);
  std::size_t live = 0;
  for (std::size_t row = 0; row < packed_.size(); ++row) {
    y_[original_[row]] = packed_[row];
    live += packed_[row] != 0.0 ? 1 : 0;
  }
  active_ = live;
  // Compact once 1/8 of the scan is dead weight; cheap relative to the
  // scans it saves, and sums are unaffected (dropped terms are +0.0).
  const std::size_t exhausted = packed_.size() - live;
  if (exhausted > 0 && exhausted * 8 >= packed_.size()) compact();
  return g;
}

std::span<const std::size_t> ActiveSet::ball(
    geo::ConstVec center, std::vector<std::size_t>& scratch) const {
  if (index_ == nullptr) return original_;
  index_->query(center, scratch);
  return scratch;
}

void ActiveSet::compact() {
  if (active_ == packed_.size()) return;
  const std::size_t dim = problem_.dim();
  std::size_t keep = 0;
  for (std::size_t row = 0; row < packed_.size(); ++row) {
    if (packed_[row] == 0.0) continue;
    if (keep != row) {
      std::copy(coords_.begin() + static_cast<std::ptrdiff_t>(row * dim),
                coords_.begin() + static_cast<std::ptrdiff_t>((row + 1) * dim),
                coords_.begin() + static_cast<std::ptrdiff_t>(keep * dim));
      weights_[keep] = weights_[row];
      packed_[keep] = packed_[row];
      original_[keep] = original_[row];
    }
    ++keep;
  }
  coords_.resize(keep * dim);
  weights_.resize(keep);
  packed_.resize(keep);
  original_.resize(keep);
}

}  // namespace mmph::core::kernels

namespace mmph::core {

double coverage_reward(const Problem& problem, geo::ConstVec center,
                       std::span<const double> y) {
  MMPH_ASSERT(y.size() == problem.size(), "coverage_reward: residual size");
  MMPH_ASSERT(center.size() == problem.dim(), "coverage_reward: center dim");
  const kernels::Params prm = kernels::make_params(problem);
  double g = 0.0;
  kernels::dispatch<false>(problem.points().raw().data(),
                           problem.weights().data(),
                           const_cast<double*>(y.data()), problem.size(),
                           problem.dim(), center.data(), prm, g);
  return g;
}

double apply_center(const Problem& problem, geo::ConstVec center,
                    std::span<double> y) {
  MMPH_ASSERT(y.size() == problem.size(), "apply_center: residual size");
  MMPH_ASSERT(center.size() == problem.dim(), "apply_center: center dim");
  const kernels::Params prm = kernels::make_params(problem);
  double g = 0.0;
  kernels::dispatch<true>(problem.points().raw().data(),
                          problem.weights().data(), y.data(), problem.size(),
                          problem.dim(), center.data(), prm, g);
  return g;
}

}  // namespace mmph::core
