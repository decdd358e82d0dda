#include "mmph/core/swap_evaluator.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "mmph/core/kernels.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::core {

namespace {

/// w_i · (min(total − u_old + u_new, 1) − min(total, 1)): point i's share of
/// a swap's delta, where total is its current uncapped coverage.
double capped_change(double weight, double total, double u_old,
                     double u_new) {
  return weight * (std::min(total - u_old + u_new, 1.0) - std::min(total, 1.0));
}

}  // namespace

SwapEvaluator::SwapEvaluator(const Problem& problem,
                             const geo::PointSet& centers,
                             spatial::SpatialIndex* index)
    : problem_(problem), centers_(centers), index_(index) {
  MMPH_REQUIRE(centers_.dim() == problem.dim(),
               "SwapEvaluator: center dimension mismatch");
  MMPH_REQUIRE(!centers_.empty(), "SwapEvaluator: empty center set");
  if (index_ != nullptr) {
    MMPH_REQUIRE(index_->size() == problem.size() &&
                     index_->dim() == problem.dim() &&
                     index_->radius() == problem.radius(),
                 "SwapEvaluator: lent index does not match the problem");
    // A prior indexed solve may have masked residual-exhausted points;
    // delta evaluation needs the whole population visible.
    index_->unmask_all();
  } else if (kernels::query_box_sparse(problem)) {
    owned_ = spatial::make_index(problem.points(), problem.radius(),
                                 problem.metric());
    index_ = owned_.get();
  }

  const std::size_t n = problem_.size();
  slots_.resize(centers_.size());
  totals_.assign(n, 0.0);
  for (std::size_t j = 0; j < centers_.size(); ++j) {
    const geo::ConstVec c = centers_[j];
    Slot& slot = slots_[j];
    const auto cover = [&](std::size_t i) {
      const double u = unit_coverage(problem_, c, i);
      if (u > 0.0) {
        slot.ids.push_back(i);
        slot.units.push_back(u);
        totals_[i] += u;
      }
    };
    if (index_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) cover(i);
    } else {
      index_->query(c, ball_);
      for (const std::size_t i : ball_) cover(i);
    }
  }
  // The starting value. With an index it sums the covered rows in
  // ascending order: every other row's total is exactly 0 and would add
  // exact +0.0, so this is exact_value() bit for bit without its O(n)
  // pass. A scan has made k O(n) passes already, and its slots may hold
  // more ids than there are rows, so it sums every row.
  if (index_ == nullptr) {
    value_ = exact_value();
    return;
  }
  touched_.clear();
  for (const Slot& slot : slots_) {
    touched_.insert(touched_.end(), slot.ids.begin(), slot.ids.end());
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const std::size_t i : touched_) {
    value_ += problem_.weight(i) * std::min(totals_[i], 1.0);
  }
}

double SwapEvaluator::exact_value() const {
  double f = 0.0;
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    f += problem_.weight(i) * std::min(totals_[i], 1.0);
  }
  return f;
}

template <typename Fn>
void SwapEvaluator::for_each_touched(std::size_t j, geo::ConstVec candidate,
                                     Fn&& fn) const {
  MMPH_REQUIRE(j < centers_.size(), "SwapEvaluator: center index");
  const Slot& slot = slots_[j];
  if (index_ == nullptr) {
    // Full scan. Slot j's coverage is scattered into one dense row, reused
    // by every candidate tried against slot j, so the scan stays a
    // branch-free stream over [0, n).
    if (dense_slot_ != j) {
      dense_.assign(problem_.size(), 0.0);
      for (std::size_t p = 0; p < slot.ids.size(); ++p) {
        dense_[slot.ids[p]] = slot.units[p];
      }
      dense_slot_ = j;
    }
    for (std::size_t i = 0; i < problem_.size(); ++i) {
      fn(i, dense_[i], unit_coverage(problem_, candidate, i));
    }
    return;
  }
  // Slot j's nonzero ids cover ball(c_j); the query covers ball(candidate).
  // Both lists are strictly ascending, so the merged union is too.
  index_->query(candidate, ball_);
  touched_.clear();
  std::set_union(slot.ids.begin(), slot.ids.end(), ball_.begin(), ball_.end(),
                 std::back_inserter(touched_));
  std::size_t next = 0;  // cursor into slot j's ids
  for (const std::size_t i : touched_) {
    double u_old = 0.0;
    if (next < slot.ids.size() && slot.ids[next] == i) {
      u_old = slot.units[next++];
    }
    fn(i, u_old, unit_coverage(problem_, candidate, i));
  }
}

double SwapEvaluator::delta_for_swap(std::size_t j,
                                     geo::ConstVec candidate) const {
  double delta = 0.0;
  for_each_touched(j, candidate, [&](std::size_t i, double u_old,
                                     double u_new) {
    delta += capped_change(problem_.weight(i), totals_[i], u_old, u_new);
  });
  return delta;
}

void SwapEvaluator::commit_swap(std::size_t j, geo::ConstVec candidate) {
  next_.ids.clear();
  next_.units.clear();
  double delta = 0.0;
  for_each_touched(j, candidate, [&](std::size_t i, double u_old,
                                     double u_new) {
    delta += capped_change(problem_.weight(i), totals_[i], u_old, u_new);
    // One update, not -= then +=: the rounding must match every earlier
    // run of this search.
    totals_[i] += u_new - u_old;
    if (u_new > 0.0) {
      next_.ids.push_back(i);
      next_.units.push_back(u_new);
    }
  });
  std::swap(slots_[j], next_);
  if (dense_slot_ == j) dense_slot_ = kNoSlot;
  geo::assign(centers_.mutable_point(j), candidate);
  value_ += delta;
}

double SwapEvaluator::add_gain(geo::ConstVec candidate) const {
  double gain = 0.0;
  const auto term = [&](std::size_t i) {
    gain += capped_change(problem_.weight(i), totals_[i], 0.0,
                          unit_coverage(problem_, candidate, i));
  };
  if (index_ == nullptr) {
    for (std::size_t i = 0; i < problem_.size(); ++i) term(i);
  } else {
    index_->query(candidate, ball_);
    for (const std::size_t i : ball_) term(i);
  }
  return gain;
}

double SwapEvaluator::removal_loss(std::size_t j) const {
  MMPH_REQUIRE(j < centers_.size(), "SwapEvaluator: center index");
  const Slot& slot = slots_[j];
  double loss = 0.0;
  for (std::size_t p = 0; p < slot.ids.size(); ++p) {
    const std::size_t i = slot.ids[p];
    loss -= capped_change(problem_.weight(i), totals_[i], slot.units[p], 0.0);
  }
  return loss;
}

Solution SwapEvaluator::account() const {
  Solution out;
  out.centers = centers_;
  out.residual = fresh_residual(problem_);
  for (std::size_t j = 0; j < centers_.size(); ++j) {
    double g = 0.0;
    if (index_ == nullptr) {
      g = apply_center(problem_, centers_[j], out.residual);
    } else {
      index_->query(centers_[j], ball_);
      kernels::block_apply_center(problem_, centers_[j], out.residual, ball_,
                                  g);
    }
    out.round_rewards.push_back(g);
    out.total_reward += g;
  }
  return out;
}

}  // namespace mmph::core
