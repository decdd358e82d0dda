#include "mmph/core/gain_cache.hpp"

#include <algorithm>

#include "mmph/support/assert.hpp"

namespace mmph::core {

void GainCache::touch(geo::ConstVec p) {
  positions_.insert(positions_.end(), p.begin(), p.end());
  ++touched_;
}

void GainCache::insert(geo::ConstVec p) {
  if (empty()) return;
  gain_.push_back(0.0);
  stale_.push_back(1);
  touch(p);
}

void GainCache::swap_remove(std::size_t row, geo::ConstVec p,
                            geo::ConstVec last) {
  if (empty()) return;
  MMPH_REQUIRE(row < size(), "GainCache: swap_remove row out of range");
  if (size() == 1) {
    clear();
    return;
  }
  const std::size_t back = size() - 1;
  gain_[row] = gain_[back];
  stale_[row] = stale_[back];
  gain_.pop_back();
  stale_.pop_back();
  touch(p);
  // The relocated row's new id reorders every ball that holds it.
  if (row != back) touch(last);
}

void GainCache::update(std::size_t row, geo::ConstVec from, geo::ConstVec to) {
  if (empty()) return;
  MMPH_REQUIRE(row < size(), "GainCache: update row out of range");
  stale_[row] = 1;
  touch(from);
  touch(to);
}

void GainCache::clear() noexcept {
  gain_.clear();
  stale_.clear();
  centers_.clear();
  positions_.clear();
  touched_ = 0;
}

void GainCache::prepare(const geo::PointSet& points,
                        const geo::PointSet& centers,
                        const spatial::SpatialIndex& index,
                        const geo::Metric& metric, double radius) {
  if (empty() || !std::equal(centers_.begin(), centers_.end(),
                             centers.raw().begin(), centers.raw().end())) {
    gain_.assign(points.size(), 0.0);
    stale_.assign(points.size(), 1);
  } else {
    MMPH_REQUIRE(size() == points.size(),
                 "GainCache: rows out of step with the population");
    const std::size_t dim = points.dim();
    MMPH_REQUIRE(positions_.size() == touched_ * dim,
                 "GainCache: touched position dimension mismatch");
    // u_i(c) > 0 needs d(c, p_i) <= r; the slack covers distance rounding.
    const double reach = radius * (1.0 + 1e-9);
    for (std::size_t t = 0; t < touched_; ++t) {
      const geo::ConstVec p(positions_.data() + t * dim, dim);
      index.query(p, ids_);
      for (const std::size_t i : ids_) {
        if (metric.distance(points[i], p) <= reach) stale_[i] = 1;
      }
    }
  }
  positions_.clear();
  touched_ = 0;
}

void GainCache::settle(const geo::PointSet& centers) {
  if (empty()) return;
  centers_.assign(centers.raw().begin(), centers.raw().end());
}

}  // namespace mmph::core
