// Local-search polish throughput and quality lift. For each instance size
// the scenario runs the production pipeline once, in two boxes: the dense
// 4x4 box of the paper (coverage balls span much of the population, so
// evals/s must fall with n) and a constant-density box of 10 users per
// unit² (side sqrt(n / 10), the polish-ls workload's density), where a
// ball holds about the same users at every n and evals/s should stay
// flat:
//
//   lazy      k rounds of LazyGreedySolver — the seed the polish tier
//             starts from (and the greedy reference the certified bounds
//             need);
//   ls        core::polish(lazy) by shift/swap local search riding the
//             spatial index for delta evaluation;
//   bounds    certified_upper_bounds over the same candidate domain — the
//             absolute ceiling both values are reported against.
//
// Reported per size: both objective values, their fraction of the
// certified bound (quality), polish wall time, and the LsStats counters
// that put a denominator under the time: exact evals (of which far
// evals are disjoint-ball pairs), pairs skipped (decided on cached gains,
// only where an index gathers the balls — the d10 rows — or tried
// already at the same state), gain sums, moves and sweeps. The run
// self-checks the quality-tier invariants — ls >= lazy exactly, and
// ls <= certified bound — and exits nonzero on violation.
//
// The warm_nN_d10 rows replay a serving slot loop at 10 users per unit²
// (weights 1..5): 20 slots of churn (1% of n per slot, 0.5% at 100k;
// joins, leaves and moves in turn), each followed by a polish of the
// previous slot's placement. The population mirrors its row operations
// into a carried grid and a core::GainCache, as the kLs service does.
// Every slot is polished twice from the same seed, with the carried
// gains and without; both must agree bitwise (centers, total, round
// rewards, residual) and on every counter but gain_sums, or the run
// exits nonzero. Reported: per-slot p50 of both polishes, and the
// summed gain sums, evals, skipped and moves.
//
//   ./perf_ls --k 8 --out BENCH_ls.json [--max-n N]   # skip rows above N

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "box.hpp"
#include "mmph/core/gain_cache.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/io/args.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/uniform_grid.hpp"

namespace {

using namespace mmph;
using Clock = std::chrono::steady_clock;

/// Users per unit² of the constant-density rows.
constexpr double kDensity = 10.0;

struct ScenarioResult {
  std::string key;
  std::size_t n = 0;
  std::size_t k = 0;
  double box_side = 0.0;
  double lazy_value = 0.0;
  double ls_value = 0.0;
  double bound = 0.0;
  double lazy_seconds = 0.0;
  double ls_seconds = 0.0;
  core::LsStats stats;

  [[nodiscard]] double lazy_quality() const {
    return bound > 0.0 ? lazy_value / bound : 0.0;
  }
  [[nodiscard]] double ls_quality() const {
    return bound > 0.0 ? ls_value / bound : 0.0;
  }
  [[nodiscard]] double evals_per_sec() const {
    return ls_seconds > 0.0
               ? static_cast<double>(stats.evals) / ls_seconds
               : 0.0;
  }
};

ScenarioResult run_size(std::string key, std::size_t n, std::size_t k,
                        double box_side, std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = 2;
  spec.box_side = box_side;
  spec.weights = rnd::WeightScheme::kZipf;
  rnd::Rng rng(seed);
  const core::Problem problem = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());

  ScenarioResult result;
  result.key = std::move(key);
  result.n = n;
  result.k = k;
  result.box_side = box_side;

  const core::LazyGreedySolver lazy_solver;
  const auto lazy_start = Clock::now();
  const core::Solution lazy = lazy_solver.solve(problem, k);
  result.lazy_seconds =
      std::chrono::duration<double>(Clock::now() - lazy_start).count();
  result.lazy_value = lazy.total_reward;

  const auto ls_start = Clock::now();
  const core::Solution polished =
      core::polish(problem, lazy, problem.points(), {}, &result.stats);
  result.ls_seconds =
      std::chrono::duration<double>(Clock::now() - ls_start).count();
  result.ls_value = polished.total_reward;

  const ls::UpperBounds bounds =
      ls::certified_upper_bounds(problem, k, lazy, problem.points());
  result.bound = bounds.best();
  return result;
}

std::string scenario_json(const ScenarioResult& r) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "  \"%s\": {\"n\": %zu, \"k\": %zu, \"box_side\": %.4f, "
      "\"lazy_value\": %.6f, "
      "\"ls_value\": %.6f, \"bound\": %.6f, \"lazy_quality\": %.4f, "
      "\"ls_quality\": %.4f, \"lazy_seconds\": %.4f, \"ls_seconds\": %.4f, "
      "\"ls_evals\": %llu, \"ls_far_evals\": %llu, \"ls_skipped\": %llu, "
      "\"ls_gain_sums\": %llu, \"ls_moves\": %llu, \"ls_sweeps\": %zu, "
      "\"evals_per_sec\": %.0f}",
      r.key.c_str(), r.n, r.k, r.box_side, r.lazy_value, r.ls_value, r.bound, r.lazy_quality(),
      r.ls_quality(), r.lazy_seconds, r.ls_seconds,
      static_cast<unsigned long long>(r.stats.evals),
      static_cast<unsigned long long>(r.stats.far_evals),
      static_cast<unsigned long long>(r.stats.skipped),
      static_cast<unsigned long long>(r.stats.gain_sums),
      static_cast<unsigned long long>(r.stats.moves), r.stats.sweeps,
      r.evals_per_sec());
  return buf;
}

/// A population under churn, kept the way the service keeps its store:
/// appended joins, swap-removed leaves, moves in place, each mirrored
/// into a carried grid and a carried GainCache.
class ChurningPopulation {
 public:
  ChurningPopulation(std::size_t n, double side, rnd::Pcg64& rng)
      : side_(side), rng_(rng) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p[2] = {side_ * rng_.next_double(),
                           side_ * rng_.next_double()};
      coords_.insert(coords_.end(), p, p + 2);
      weights_.push_back(random_weight());
    }
    grid_ = std::make_unique<spatial::UniformGridIndex>(points(), 1.0);
  }

  [[nodiscard]] geo::PointSet points() const { return {2, coords_}; }
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }
  [[nodiscard]] spatial::UniformGridIndex& grid() { return *grid_; }
  [[nodiscard]] core::GainCache& gains() { return gains_; }

  /// Mutation number \p m: a join, a leave or a move, in turn.
  void mutate(std::uint64_t m) {
    const std::size_t n = weights_.size();
    if (m % 3 == 0) {
      const double p[2] = {side_ * rng_.next_double(),
                           side_ * rng_.next_double()};
      coords_.insert(coords_.end(), p, p + 2);
      weights_.push_back(random_weight());
      grid_->add(geo::ConstVec(p, 2));
      gains_.insert(geo::ConstVec(p, 2));
    } else if (m % 3 == 1) {
      const std::size_t row = rng_.next_below(n);
      const std::size_t last = n - 1;
      gains_.swap_remove(row, at(row), at(last));
      grid_->swap_remove(row);
      std::copy_n(coords_.begin() + static_cast<std::ptrdiff_t>(2 * last), 2,
                  coords_.begin() + static_cast<std::ptrdiff_t>(2 * row));
      weights_[row] = weights_[last];
      coords_.resize(2 * last);
      weights_.pop_back();
    } else {
      // A step of up to one radius per axis, kept inside the box.
      const std::size_t row = rng_.next_below(n);
      double p[2];
      for (std::size_t d = 0; d < 2; ++d) {
        p[d] = std::clamp(coords_[2 * row + d] + 2.0 * rng_.next_double() - 1.0,
                          0.0, side_);
      }
      gains_.update(row, at(row), geo::ConstVec(p, 2));
      grid_->update(row, geo::ConstVec(p, 2));
      std::copy_n(p, 2, coords_.begin() + static_cast<std::ptrdiff_t>(2 * row));
    }
  }

 private:
  [[nodiscard]] geo::ConstVec at(std::size_t row) const {
    return geo::ConstVec(coords_.data() + 2 * row, 2);
  }
  double random_weight() {
    return static_cast<double>(1 + rng_.next_below(5));
  }

  double side_;
  rnd::Pcg64& rng_;
  std::vector<double> coords_;
  std::vector<double> weights_;
  std::unique_ptr<spatial::UniformGridIndex> grid_;
  core::GainCache gains_;
};

struct WarmResult {
  std::string key;
  std::size_t n = 0;
  std::size_t slots = 0;
  std::size_t mutations_per_slot = 0;
  std::vector<double> carried_ms;  ///< per-slot polish with carried gains
  std::vector<double> fresh_ms;    ///< per-slot polish without
  std::uint64_t carried_gain_sums = 0;
  std::uint64_t fresh_gain_sums = 0;
  std::uint64_t evals = 0;
  std::uint64_t skipped = 0;
  std::uint64_t moves = 0;
  std::string mismatch;  ///< first disagreement; empty when none
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool same_bits(const core::Solution& a, const core::Solution& b) {
  return a.total_reward == b.total_reward &&
         a.round_rewards == b.round_rewards && a.residual == b.residual &&
         std::equal(a.centers.raw().begin(), a.centers.raw().end(),
                    b.centers.raw().begin(), b.centers.raw().end());
}

bool same_counters(const core::LsStats& a, const core::LsStats& b) {
  return a.evals == b.evals && a.far_evals == b.far_evals &&
         a.skipped == b.skipped && a.moves == b.moves &&
         a.shift_moves == b.shift_moves && a.swap_moves == b.swap_moves &&
         a.sweeps == b.sweeps && a.improved == b.improved &&
         a.converged == b.converged && a.aborted == b.aborted;
}

WarmResult run_warm(std::string key, std::size_t n, std::size_t k,
                    std::size_t mutations_per_slot, std::size_t slots,
                    std::uint64_t seed) {
  WarmResult result;
  result.key = std::move(key);
  result.n = n;
  result.slots = slots;
  result.mutations_per_slot = mutations_per_slot;
  rnd::Pcg64 rng(seed);
  ChurningPopulation population(n, std::sqrt(static_cast<double>(n) / kDensity),
                                rng);
  const auto problem_now = [&population] {
    return core::Problem(population.points(), population.weights(), 1.0,
                         geo::l2_metric());
  };

  // The full solve the slots warm-start from; its polish fills the cache.
  geo::PointSet served(2);
  {
    const core::Problem problem = problem_now();
    const core::Solution seed_solution =
        core::LazyGreedySolver().solve(problem, k);
    served = core::polish(problem, seed_solution, problem.points(), {},
                          nullptr, &population.grid(), &population.gains())
                 .centers;
  }
  std::uint64_t mutation = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (std::size_t m = 0; m < mutations_per_slot; ++m) {
      population.mutate(mutation++);
    }
    const core::Problem problem = problem_now();
    core::LsStats carried_stats;
    core::LsStats fresh_stats;
    const auto t0 = Clock::now();
    const core::Solution carried =
        core::polish(problem, served, problem.points(), {}, &carried_stats,
                     &population.grid(), &population.gains());
    const auto t1 = Clock::now();
    const core::Solution fresh =
        core::polish(problem, served, problem.points(), {}, &fresh_stats,
                     &population.grid());
    const auto t2 = Clock::now();
    result.carried_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    result.fresh_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    result.carried_gain_sums += carried_stats.gain_sums;
    result.fresh_gain_sums += fresh_stats.gain_sums;
    result.evals += carried_stats.evals;
    result.skipped += carried_stats.skipped;
    result.moves += carried_stats.moves;
    if (result.mismatch.empty() && !same_bits(carried, fresh)) {
      result.mismatch = "placement differs at slot " + std::to_string(slot);
    }
    if (result.mismatch.empty() && !same_counters(carried_stats, fresh_stats)) {
      result.mismatch = "counters differ at slot " + std::to_string(slot);
    }
    served = carried.centers;
  }
  return result;
}

std::string warm_json(const WarmResult& r) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "  \"%s\": {\"n\": %zu, \"slots\": %zu, \"mutations_per_slot\": %zu, "
      "\"carried_p50_ms\": %.3f, \"fresh_p50_ms\": %.3f, "
      "\"speedup\": %.2f, \"carried_gain_sums\": %llu, "
      "\"fresh_gain_sums\": %llu, \"ls_evals\": %llu, "
      "\"ls_skipped\": %llu, \"ls_moves\": %llu}",
      r.key.c_str(), r.n, r.slots, r.mutations_per_slot, median(r.carried_ms),
      median(r.fresh_ms), median(r.fresh_ms) / median(r.carried_ms),
      static_cast<unsigned long long>(r.carried_gain_sums),
      static_cast<unsigned long long>(r.fresh_gain_sums),
      static_cast<unsigned long long>(r.evals),
      static_cast<unsigned long long>(r.skipped),
      static_cast<unsigned long long>(r.moves));
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const auto k = static_cast<std::size_t>(args.get_int("k", 8));
  const std::string out_path = args.get_string("out", "BENCH_ls.json");
  const auto max_n =
      static_cast<std::size_t>(args.get_int("max-n", 100000));
  args.finish();

  // Dense 4x4 rows first, then the same sizes at constant density.
  struct Row {
    std::string key;
    std::size_t n;
    double box_side;
  };
  const std::size_t sizes[] = {2000, 10000, 20000};
  const auto key = [](std::size_t n, const char* suffix) {
    std::string out = "n";
    out += std::to_string(n);
    out += suffix;
    return out;
  };
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    if (n <= max_n) rows.push_back({key(n, ""), n, 4.0});
  }
  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    rows.push_back({key(n, "_d10"), n,
                    std::sqrt(static_cast<double>(n) / kDensity)});
  }

  std::vector<ScenarioResult> results;
  bool ok = true;
  for (const Row& row : rows) {
    const ScenarioResult r =
        run_size(row.key, row.n, k, row.box_side, 2011 + row.n);
    std::printf("%-10s box %6.2f lazy %.4f (%.1f%% of bound) in %.3fs | "
                "ls %.4f (%.1f%% of bound) in %.3fs, %llu evals "
                "(%0.f/s, %llu far), %llu skipped, %llu moves, %zu "
                "sweeps%s\n",
                r.key.c_str(), r.box_side, r.lazy_value,
                100.0 * r.lazy_quality(), r.lazy_seconds, r.ls_value,
                100.0 * r.ls_quality(), r.ls_seconds,
                static_cast<unsigned long long>(r.stats.evals),
                r.evals_per_sec(),
                static_cast<unsigned long long>(r.stats.far_evals),
                static_cast<unsigned long long>(r.stats.skipped),
                static_cast<unsigned long long>(r.stats.moves),
                r.stats.sweeps, r.stats.aborted ? "  [ABORTED]" : "");
    // The quality-tier invariants, enforced here too: polish never loses
    // to its seed (structural), and never clears the certified ceiling.
    if (r.ls_value < r.lazy_value) {
      std::fprintf(stderr, "perf_ls: ls < lazy at %s\n", r.key.c_str());
      ok = false;
    }
    if (r.ls_value > r.bound * (1.0 + 1e-9)) {
      std::fprintf(stderr, "perf_ls: ls above certified bound at %s\n",
                   r.key.c_str());
      ok = false;
    }
    results.push_back(r);
  }

  // Warm slots: (n, mutations per slot) at 1% / 1% / 0.5% churn.
  constexpr std::size_t kWarmSlots = 20;
  const std::pair<std::size_t, std::size_t> warm_rows[] = {
      {2500, 25}, {20000, 200}, {100000, 500}};
  std::vector<WarmResult> warm;
  for (const auto& [n, per_slot] : warm_rows) {
    if (n > max_n) continue;
    const WarmResult r = run_warm("warm_" + key(n, "_d10"), n, k, per_slot,
                                  kWarmSlots, 2011 + n);
    std::printf("%-16s %zu slots x %zu mutations | polish p50 %.2f ms "
                "carried, %.2f ms fresh (%.2fx) | gain sums %llu vs %llu, "
                "%llu evals, %llu skipped, %llu moves%s\n",
                r.key.c_str(), r.slots, r.mutations_per_slot,
                median(r.carried_ms), median(r.fresh_ms),
                median(r.fresh_ms) / median(r.carried_ms),
                static_cast<unsigned long long>(r.carried_gain_sums),
                static_cast<unsigned long long>(r.fresh_gain_sums),
                static_cast<unsigned long long>(r.evals),
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.moves),
                r.mismatch.empty() ? "" : "  [MISMATCH]");
    if (!r.mismatch.empty()) {
      std::fprintf(stderr, "perf_ls: carried gains diverged at %s: %s\n",
                   r.key.c_str(), r.mismatch.c_str());
      ok = false;
    }
    warm.push_back(r);
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"ls\",\n  \"scenario\": "
         "\"lazy greedy seed polished by shift/swap local search, values "
         "against the certified upper bound (2d, l2, zipf weights); nN rows "
         "in the dense 4x4 box, nN_d10 rows at 10 users per unit^2 "
         "(box side sqrt(n/10)); warm_nN_d10 rows: 20 churn slots at 10 "
         "users per unit^2 (weights 1..5), each polished from the previous "
         "placement with carried gains and without (lent grid)\",\n"
      << "  \"box\": " << bench::box_json() << ",\n"
      << "  \"config\": {\"k\": " << k << ", \"density\": " << kDensity
      << ", \"max_n\": " << max_n << "},\n";
  std::vector<std::string> entries;
  for (const ScenarioResult& r : results) entries.push_back(scenario_json(r));
  for (const WarmResult& r : warm) entries.push_back(warm_json(r));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << entries[i] << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_ls: %s\n", e.what());
  return 1;
}
