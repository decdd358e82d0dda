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
// evals are disjoint-ball pairs), pairs skipped on cached gains (only
// where an index gathers the balls: the d10 rows; the dense rows scan and
// skip none), moves and sweeps. The run
// self-checks the quality-tier invariants — ls >= lazy exactly, and
// ls <= certified bound — and exits nonzero on violation.
//
//   ./perf_ls --k 8 --out BENCH_ls.json

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "box.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/io/args.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/random/workload.hpp"

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
      "\"ls_moves\": %llu, \"ls_sweeps\": %zu, \"evals_per_sec\": %.0f}",
      r.key.c_str(), r.n, r.k, r.box_side, r.lazy_value, r.ls_value, r.bound, r.lazy_quality(),
      r.ls_quality(), r.lazy_seconds, r.ls_seconds,
      static_cast<unsigned long long>(r.stats.evals),
      static_cast<unsigned long long>(r.stats.far_evals),
      static_cast<unsigned long long>(r.stats.skipped),
      static_cast<unsigned long long>(r.stats.moves), r.stats.sweeps,
      r.evals_per_sec());
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const auto k = static_cast<std::size_t>(args.get_int("k", 8));
  const std::string out_path = args.get_string("out", "BENCH_ls.json");
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
  for (const std::size_t n : sizes) rows.push_back({key(n, ""), n, 4.0});
  for (const std::size_t n : sizes) {
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

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"ls\",\n  \"scenario\": "
         "\"lazy greedy seed polished by shift/swap local search, values "
         "against the certified upper bound (2d, l2, zipf weights); nN rows "
         "in the dense 4x4 box, nN_d10 rows at 10 users per unit^2 "
         "(box side sqrt(n/10))\",\n"
      << "  \"box\": " << bench::box_json() << ",\n"
      << "  \"config\": {\"k\": " << k << ", \"density\": " << kDensity
      << "},\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << scenario_json(results[i]) << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_ls: %s\n", e.what());
  return 1;
}
