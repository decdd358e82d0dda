#pragma once

/// \file warm_start.hpp
/// \brief Warm-started replanning across simulation slots.
///
/// Under slow interest drift, consecutive slots' optimal center sets are
/// close, so re-running a full greedy every slot wastes work. The warm-
/// start planner keeps the previous slot's centers and refines them with
/// one core::polish run (pure swap sweeps over the current input points);
/// when there is no history — or k changed — it falls back to the cold
/// solver. The broadcast_scheduler example and simulator tests show it
/// tracks cold greedy quality at a fraction of the cost under mild drift.
///
/// A WarmStartPlanner is *stateful* across slots; create one per
/// simulation run and wrap it with factory() for BroadcastSimulator.

#include <memory>
#include <optional>

#include "mmph/core/solver.hpp"
#include "mmph/sim/simulator.hpp"

namespace mmph::sim {

class WarmStartPlanner {
 public:
  /// \p cold builds the from-scratch solver for a slot's Problem (used on
  /// the first slot and whenever history is unusable).
  /// \p max_sweeps bounds the refinement passes per slot.
  explicit WarmStartPlanner(SolverFactory cold, std::size_t max_sweeps = 2);

  /// Plans one slot: refine the previous centers, or cold-solve.
  [[nodiscard]] core::Solution plan(const core::Problem& problem,
                                    std::size_t k);

  /// Adapts the planner to the BroadcastSimulator's SolverFactory shape.
  /// The returned factory shares this planner; the planner must outlive
  /// every solver the factory produces.
  [[nodiscard]] SolverFactory factory();

  /// Forgets history (e.g. after a handover); next plan() cold-solves.
  void reset() noexcept { previous_.reset(); }

  [[nodiscard]] std::uint64_t cold_solves() const noexcept {
    return cold_solves_;
  }
  [[nodiscard]] std::uint64_t warm_solves() const noexcept {
    return warm_solves_;
  }

 private:
  SolverFactory cold_;
  std::size_t max_sweeps_;
  std::optional<geo::PointSet> previous_;
  std::uint64_t cold_solves_ = 0;
  std::uint64_t warm_solves_ = 0;
};

}  // namespace mmph::sim
