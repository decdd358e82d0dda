#include "mmph/core/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "mmph/core/reward.hpp"
#include "mmph/geometry/norms.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core::kernels {
namespace {

std::atomic<bool> g_blocked_enabled{true};
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

Params make_params(const geo::Metric& metric, double radius,
                   RewardShape shape) {
  Params prm;
  prm.kind = to_kind(metric.norm());
  prm.p = metric.p();
  prm.radius = radius;
  prm.r2_skip = radius * radius * geo::kSquaredSkipMargin;
  prm.binary = shape == RewardShape::kBinary;
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

template <NormKind NK, bool Apply>
void dispatch_dim(const double* rows, const double* w, double* y,
                  std::size_t n, std::size_t dim, const double* c,
                  const Params& prm, double& g) {
  switch (dim) {
    case 2:
      run_range<NK, 2, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
    case 3:
      run_range<NK, 3, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
    default:
      run_range<NK, 0, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
  }
}

template <bool Apply>
void dispatch(const double* rows, const double* w, double* y, std::size_t n,
              std::size_t dim, const double* c, const Params& prm, double& g) {
  switch (prm.kind) {
    case NormKind::kL1:
      dispatch_dim<NormKind::kL1, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
    case NormKind::kL2:
      dispatch_dim<NormKind::kL2, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
    case NormKind::kLinf:
      dispatch_dim<NormKind::kLinf, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
    case NormKind::kLp:
      dispatch_dim<NormKind::kLp, Apply>(rows, w, y, n, dim, c, prm, g);
      return;
  }
}

template <NormKind NK, bool Apply>
void dispatch_indexed_dim(const double* rows, const double* w, double* y,
                          std::size_t dim, const double* c, const Params& prm,
                          const std::size_t* idx, std::size_t m, double& g) {
  switch (dim) {
    case 2:
      run_indexed<NK, 2, Apply>(rows, w, y, dim, c, prm, idx, m, g);
      return;
    case 3:
      run_indexed<NK, 3, Apply>(rows, w, y, dim, c, prm, idx, m, g);
      return;
    default:
      run_indexed<NK, 0, Apply>(rows, w, y, dim, c, prm, idx, m, g);
      return;
  }
}

template <bool Apply>
void dispatch_indexed(const double* rows, const double* w, double* y,
                      std::size_t dim, const double* c, const Params& prm,
                      const std::size_t* idx, std::size_t m, double& g) {
  switch (prm.kind) {
    case NormKind::kL1:
      dispatch_indexed_dim<NormKind::kL1, Apply>(rows, w, y, dim, c, prm, idx,
                                                 m, g);
      return;
    case NormKind::kL2:
      dispatch_indexed_dim<NormKind::kL2, Apply>(rows, w, y, dim, c, prm, idx,
                                                 m, g);
      return;
    case NormKind::kLinf:
      dispatch_indexed_dim<NormKind::kLinf, Apply>(rows, w, y, dim, c, prm,
                                                   idx, m, g);
      return;
    case NormKind::kLp:
      dispatch_indexed_dim<NormKind::kLp, Apply>(rows, w, y, dim, c, prm, idx,
                                                 m, g);
      return;
  }
}

}  // namespace

void set_blocked_enabled(bool enabled) noexcept {
  g_blocked_enabled.store(enabled, std::memory_order_relaxed);
}

bool blocked_enabled() noexcept {
  return g_blocked_enabled.load(std::memory_order_relaxed);
}

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

double block_coverage_reward(const Problem& problem, geo::ConstVec center,
                             std::span<const double> y) {
  MMPH_ASSERT(y.size() == problem.size(), "block coverage: residual size");
  MMPH_ASSERT(center.size() == problem.dim(), "block coverage: center dim");
  const Params prm =
      make_params(problem.metric(), problem.radius(), problem.reward_shape());
  double g = 0.0;
  dispatch<false>(problem.points().raw().data(), problem.weights().data(),
                  const_cast<double*>(y.data()), problem.size(),
                  problem.dim(), center.data(), prm, g);
  return g;
}

double block_apply_center(const Problem& problem, geo::ConstVec center,
                          std::span<double> y) {
  MMPH_ASSERT(y.size() == problem.size(), "block apply: residual size");
  MMPH_ASSERT(center.size() == problem.dim(), "block apply: center dim");
  const Params prm =
      make_params(problem.metric(), problem.radius(), problem.reward_shape());
  double g = 0.0;
  dispatch<true>(problem.points().raw().data(), problem.weights().data(),
                 y.data(), problem.size(), problem.dim(), center.data(), prm,
                 g);
  return g;
}

void block_coverage_reward(const Problem& problem, geo::ConstVec center,
                           std::span<const double> y,
                           std::span<const std::size_t> indices, double& g) {
  MMPH_ASSERT(y.size() == problem.size(), "block coverage: residual size");
  const Params prm =
      make_params(problem.metric(), problem.radius(), problem.reward_shape());
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
  const Params prm =
      make_params(problem.metric(), problem.radius(), problem.reward_shape());
  dispatch_indexed<true>(problem.points().raw().data(),
                         problem.weights().data(), y.data(), problem.dim(),
                         center.data(), prm, indices.data(), indices.size(),
                         g);
}

ActiveSet::ActiveSet(const Problem& problem) : problem_(problem) {
  gather(std::vector<double>(problem.size(), 1.0));
}

ActiveSet::ActiveSet(const Problem& problem, std::span<const double> y)
    : problem_(problem) {
  MMPH_REQUIRE(y.size() == problem.size(), "ActiveSet: residual size");
  gather(y);
}

void ActiveSet::gather(std::span<const double> y) {
  const std::size_t n = problem_.size();
  const std::size_t dim = problem_.dim();
  const double* rows = problem_.points().raw().data();
  coords_.clear();
  weights_.clear();
  residual_.clear();
  original_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] == 0.0) continue;
    coords_.insert(coords_.end(), rows + i * dim, rows + (i + 1) * dim);
    weights_.push_back(problem_.weight(i));
    residual_.push_back(y[i]);
    original_.push_back(i);
  }
  exhausted_ = 0;
}

double ActiveSet::coverage_reward(geo::ConstVec center) const {
  MMPH_ASSERT(center.size() == problem_.dim(), "ActiveSet: center dim");
  const Params prm = make_params(problem_.metric(), problem_.radius(),
                                 problem_.reward_shape());
  double g = 0.0;
  dispatch<false>(coords_.data(), weights_.data(),
                  const_cast<double*>(residual_.data()), weights_.size(),
                  problem_.dim(), center.data(), prm, g);
  return g;
}

double ActiveSet::apply_center(geo::ConstVec center) {
  MMPH_ASSERT(center.size() == problem_.dim(), "ActiveSet: center dim");
  const Params prm = make_params(problem_.metric(), problem_.radius(),
                                 problem_.reward_shape());
  double g = 0.0;
  dispatch<true>(coords_.data(), weights_.data(), residual_.data(),
                 weights_.size(), problem_.dim(), center.data(), prm, g);
  std::size_t zeros = 0;
  for (const double v : residual_) zeros += v == 0.0 ? 1 : 0;
  exhausted_ = zeros;
  // Compact once 1/8 of the scan is dead weight; cheap relative to the
  // scans it saves, and sums are unaffected (dropped terms are +0.0).
  if (exhausted_ > 0 && exhausted_ * 8 >= weights_.size()) compact();
  return g;
}

void ActiveSet::compact() {
  if (exhausted_ == 0) return;
  const std::size_t dim = problem_.dim();
  std::size_t keep = 0;
  for (std::size_t row = 0; row < weights_.size(); ++row) {
    if (residual_[row] == 0.0) continue;
    if (keep != row) {
      std::copy(coords_.begin() + static_cast<std::ptrdiff_t>(row * dim),
                coords_.begin() + static_cast<std::ptrdiff_t>((row + 1) * dim),
                coords_.begin() + static_cast<std::ptrdiff_t>(keep * dim));
      weights_[keep] = weights_[row];
      residual_[keep] = residual_[row];
      original_[keep] = original_[row];
    }
    ++keep;
  }
  coords_.resize(keep * dim);
  weights_.resize(keep);
  residual_.resize(keep);
  original_.resize(keep);
  exhausted_ = 0;
}

void ActiveSet::export_residual(std::span<double> y) const {
  MMPH_REQUIRE(y.size() == problem_.size(), "ActiveSet: residual size");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t row = 0; row < weights_.size(); ++row) {
    y[original_[row]] = residual_[row];
  }
}

std::vector<double> ParallelEvaluator::pool_gains(
    const Problem& problem, const geo::PointSet& pool,
    std::span<const double> y) const {
  return map(pool.size(), [&](std::size_t c) {
    return core::coverage_reward(problem, pool[c], y);
  });
}

}  // namespace mmph::core::kernels
