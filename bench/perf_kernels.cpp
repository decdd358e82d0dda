// Scalar vs. blocked vs. blocked+active-set vs. parallel-init evaluation
// cost for the coverage reward (the inner loop of every greedy solver).
// "scalar" is core::reference_coverage_reward, the per-point reference
// loop; "blocked" is core::coverage_reward; "+active" is the evaluator
// (kernels::ActiveSet) on its compacted-scan backend.
//
// Unlike the google-benchmark perf_* binaries this is a plain timed repro:
// it emits a machine-readable BENCH_kernels.json (n, variant, ns/eval,
// speedup vs. scalar) so CI and the tutorial can diff numbers across
// machines, and it self-checks the blocked kernels' and the evaluator's
// sums against the reference loop before timing, so a kernel regression
// fails the run instead of producing fast garbage. The spatial section
// also times the indexed first round both ways — one query per candidate
// against ActiveSet::coverage_rewards' sweep — and fails on any bitwise
// difference between them.
//
//   ./perf_kernels --n 1000,10000,100000 --out BENCH_kernels.json
//
// Scenario per n: clustered 2-D L2 workload (the paper's hardest-covered
// placement), radius 1.0, linear reward; the residual is taken mid-solve
// (after k lazy-greedy rounds) so the active-set variant sees the partial
// exhaustion it is designed to exploit.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/io/args.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "box.hpp"

namespace {

using namespace mmph;
using Clock = std::chrono::steady_clock;

struct Row {
  std::size_t n;
  std::string variant;
  double ns_per_eval;
  double speedup;  // vs. the scalar baseline at the same n
};

/// One constant-density point of the indexed-vs-blocked sweep.
struct SpatialRow {
  std::size_t n;
  double box_side;
  double build_seconds;            // grid construction over n points
  double blocked_ns;               // O(n) full-scan eval, ns per eval
  double indexed_ns;               // O(points-in-ball) eval, ns per eval
  double touched_per_eval;         // mean points the index returned per eval
  double first_round_mapped_seconds;  // all n candidates, one query each
  double first_round_sweep_seconds;   // all n candidates, one sweep
  double lazy_indexed_seconds;     // lazy greedy k end to end, grid on
  double lazy_blocked_seconds;     // measured only when affordable, else -1
  double lazy_blocked_projected;   // first-round-scan projection: n evals
};

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Times \p body (one pass = \p evals evaluations) until ~0.2 s elapsed;
/// returns ns per evaluation. \p body returns a checksum kept live so the
/// compiler cannot delete the loop.
template <typename Body>
double time_ns_per_eval(std::size_t evals, Body&& body) {
  double sink = 0.0;
  // Warm-up pass (faults pages, warms caches).
  sink += body();
  std::size_t passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.2 && passes < 1000) {
    sink += body();
    ++passes;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  if (sink == -1.0) std::printf("unreachable\n");  // keep `sink` live
  return elapsed * 1e9 / (static_cast<double>(passes) *
                          static_cast<double>(evals));
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const std::string n_csv = args.get_string("n", "1000,10000,100000");
  // Constant-density sweep sizes for the spatial coverage index
  // (box_side grows with sqrt(n), so points-per-ball stays fixed while n
  // explodes). "0" skips the sweep.
  const std::string spatial_csv = args.get_string("spatial-n", "20000");
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const std::size_t candidates_cap =
      static_cast<std::size_t>(args.get_int("candidates", 512));
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  args.finish();

  std::vector<Row> rows;
  for (const std::size_t n : parse_sizes(n_csv)) {
    rnd::WorkloadSpec spec;
    spec.n = n;
    spec.dim = 2;
    spec.placement = rnd::Placement::kClustered;
    spec.clusters = 8;
    rnd::Rng rng(seed);
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), /*radius=*/1.0, geo::l2_metric());

    // Mid-solve residual: what the evaluation loop actually sees after the
    // first k rounds have claimed the dense clusters.
    const std::vector<double> y_mid =
        core::LazyGreedySolver().solve(problem, std::min(k, n)).residual;

    // Candidate centers: an even stride through the population.
    const std::size_t cand = std::min(candidates_cap, n);
    std::vector<std::size_t> cand_idx(cand);
    for (std::size_t c = 0; c < cand; ++c) cand_idx[c] = c * (n / cand);

    // The evaluator on its scan backend, started from the same residual.
    const core::kernels::ScopedIndexMode scan_only(
        core::kernels::IndexMode::kNone);
    const core::kernels::ActiveSet active(problem, y_mid);

    // Self-check before timing: the blocked kernel and the evaluator must
    // agree with the per-point reference loop on this exact workload.
    for (std::size_t c = 0; c < std::min<std::size_t>(cand, 32); ++c) {
      const geo::ConstVec center = problem.point(cand_idx[c]);
      const double ref =
          core::reference_coverage_reward(problem, center, y_mid);
      const double blocked = core::coverage_reward(problem, center, y_mid);
      const double evaluated = active.coverage_reward(center);
      for (const double got : {blocked, evaluated}) {
        if (std::fabs(got - ref) > 1e-9 * (1.0 + std::fabs(ref))) {
          std::fprintf(stderr,
                       "FAIL: kernels disagree with the reference loop at "
                       "n=%zu candidate=%zu (blocked=%.17g evaluator=%.17g "
                       "reference=%.17g)\n",
                       n, c, blocked, evaluated, ref);
          return 1;
        }
      }
    }

    const double scalar_ns = time_ns_per_eval(cand, [&] {
      double acc = 0.0;
      for (const std::size_t i : cand_idx) {
        acc += core::reference_coverage_reward(problem, problem.point(i),
                                               y_mid);
      }
      return acc;
    });
    rows.push_back({n, "scalar", scalar_ns, 1.0});

    const double blocked_ns = time_ns_per_eval(cand, [&] {
      double acc = 0.0;
      for (const std::size_t i : cand_idx) {
        acc += core::coverage_reward(problem, problem.point(i), y_mid);
      }
      return acc;
    });
    rows.push_back({n, "blocked", blocked_ns, scalar_ns / blocked_ns});

    const double active_ns = time_ns_per_eval(cand, [&] {
      double acc = 0.0;
      for (const std::size_t i : cand_idx) {
        acc += active.coverage_reward(problem.point(i));
      }
      return acc;
    });
    rows.push_back({n, "blocked+active", active_ns, scalar_ns / active_ns});

    // First-round scan: serial vs. sharded across the global pool (the
    // LazyGreedySolver(pool) init path). Same blocked+active evaluation
    // per candidate, so the delta is pure scheduling.
    const core::kernels::ParallelEvaluator serial(nullptr);
    const core::kernels::ParallelEvaluator parallel(&par::ThreadPool::global());
    const auto scan = [&](const core::kernels::ParallelEvaluator& ev) {
      const std::vector<double> gains = ev.map(
          cand, [&](std::size_t c) {
            return active.coverage_reward(problem.point(cand_idx[c]));
          });
      double acc = 0.0;
      for (const double g : gains) acc += g;
      return acc;
    };
    const double serial_scan_ns = time_ns_per_eval(cand, [&] { return scan(serial); });
    const double par_scan_ns = time_ns_per_eval(cand, [&] { return scan(parallel); });
    rows.push_back({n, "parallel-init", par_scan_ns,
                    serial_scan_ns / par_scan_ns});

    std::printf("n=%-8zu scalar %9.1f ns/eval | blocked %9.1f (%4.2fx) | "
                "+active %9.1f (%4.2fx) | parallel-init %9.1f (%4.2fx)\n",
                n, scalar_ns, blocked_ns, scalar_ns / blocked_ns, active_ns,
                scalar_ns / active_ns, par_scan_ns,
                serial_scan_ns / par_scan_ns);
  }

  // --- spatial coverage-index sweep: solve cost vs density, not n ---------
  //
  // Uniform 2-D L2 box scaled so density is constant (~10 points per unit
  // area => ~31 points per radius-1 ball at every n). The blocked path
  // pays O(n) per evaluation; the grid path pays O(points-in-ball). The
  // indexed evaluator is self-checked bitwise against the blocked kernel
  // before anything is timed. Blocked end-to-end lazy greedy is measured
  // only while affordable (n <= 100k: it is already ~n^2); above that the
  // first-round scan alone (n evals at the measured blocked rate) is
  // reported as a lower-bound projection.
  std::vector<SpatialRow> spatial_rows;
  for (const std::size_t n : parse_sizes(spatial_csv)) {
    if (n == 0) continue;
    rnd::WorkloadSpec spec;
    spec.n = n;
    spec.dim = 2;
    spec.box_side = std::sqrt(static_cast<double>(n) / 10.0);
    rnd::Rng rng(seed);
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), /*radius=*/1.0, geo::l2_metric());

    const auto build_start = Clock::now();
    const std::unique_ptr<spatial::SpatialIndex> grid =
        spatial::make_index(problem.points(), problem.radius(),
                            problem.metric());
    const double build_seconds =
        std::chrono::duration<double>(Clock::now() - build_start).count();

    // The evaluator on each backend: the grid (lent), then the scan.
    std::optional<core::kernels::ActiveSet> indexed;
    std::optional<core::kernels::ActiveSet> active;
    {
      const core::kernels::ScopedIndexMode grid_on(
          core::kernels::IndexMode::kGrid);
      indexed.emplace(problem, grid.get());
      const core::kernels::ScopedIndexMode scan_only(
          core::kernels::IndexMode::kNone);
      active.emplace(problem);
    }
    if (!indexed->indexed()) {
      std::fprintf(stderr, "FAIL: spatial index refused n=%zu\n", n);
      return 1;
    }

    const std::size_t cand = std::min<std::size_t>(n <= 1000000 ? 256 : 64, n);
    std::vector<std::size_t> cand_idx(cand);
    for (std::size_t c = 0; c < cand; ++c) cand_idx[c] = c * (n / cand);

    // Bitwise self-check: the indexed evaluation is an acceleration of the
    // blocked one, not an approximation — exact equality or fail — and
    // both match the reference loop.
    const std::vector<double> ones(n, 1.0);
    for (std::size_t c = 0; c < std::min<std::size_t>(cand, 32); ++c) {
      const geo::ConstVec center = problem.point(cand_idx[c]);
      const double got = indexed->coverage_reward(center);
      const double scan = active->coverage_reward(center);
      const double ref =
          core::reference_coverage_reward(problem, center, ones);
      if (got != scan || std::fabs(got - ref) > 1e-9 * (1.0 + ref)) {
        std::fprintf(stderr,
                     "FAIL: indexed eval diverges at n=%zu candidate=%zu "
                     "(indexed=%.17g blocked=%.17g reference=%.17g)\n",
                     n, c, got, scan, ref);
        return 1;
      }
    }

    const double blocked_ns = time_ns_per_eval(cand, [&] {
      double acc = 0.0;
      for (const std::size_t i : cand_idx) {
        acc += active->coverage_reward(problem.point(i));
      }
      return acc;
    });

    const spatial::IndexStats stats_before = grid->stats();
    const double indexed_ns = time_ns_per_eval(cand, [&] {
      double acc = 0.0;
      for (const std::size_t i : cand_idx) {
        acc += indexed->coverage_reward(problem.point(i));
      }
      return acc;
    });
    const spatial::IndexStats stats_after = grid->stats();
    const double touched_per_eval =
        static_cast<double>(stats_after.points_touched -
                            stats_before.points_touched) /
        static_cast<double>(stats_after.queries - stats_before.queries);

    // The indexed first round both ways: one query per candidate (the map
    // the merge pass still runs over its pool), then the sweep
    // LazyGreedySolver runs over its own rows. Bitwise equal, or the run
    // fails.
    const core::kernels::ParallelEvaluator serial_map(nullptr);
    const auto mapped_start = Clock::now();
    const std::vector<double> mapped = serial_map.map(n, [&](std::size_t c) {
      return indexed->coverage_reward(problem.point(c));
    });
    const double first_round_mapped_seconds =
        std::chrono::duration<double>(Clock::now() - mapped_start).count();
    const auto sweep_start = Clock::now();
    const std::vector<double> swept =
        indexed->coverage_rewards(problem.points());
    const double first_round_sweep_seconds =
        std::chrono::duration<double>(Clock::now() - sweep_start).count();
    for (std::size_t c = 0; c < n; ++c) {
      if (swept[c] != mapped[c]) {
        std::fprintf(stderr,
                     "FAIL: first-round sweep diverges at n=%zu "
                     "candidate=%zu (sweep=%.17g mapped=%.17g)\n",
                     n, c, swept[c], mapped[c]);
        return 1;
      }
    }

    const std::size_t kk = std::min(k, n);
    const auto lazy_start = Clock::now();
    core::Solution lazy_indexed;
    {
      const core::kernels::ScopedIndexMode grid_on(
          core::kernels::IndexMode::kGrid);
      lazy_indexed = core::LazyGreedySolver().solve(problem, kk);
    }
    const double lazy_indexed_seconds =
        std::chrono::duration<double>(Clock::now() - lazy_start).count();

    double lazy_blocked_seconds = -1.0;
    if (n <= 100000) {
      const core::kernels::ScopedIndexMode off(core::kernels::IndexMode::kNone);
      const auto blocked_start = Clock::now();
      const core::Solution lazy_blocked =
          core::LazyGreedySolver().solve(problem, kk);
      lazy_blocked_seconds =
          std::chrono::duration<double>(Clock::now() - blocked_start).count();
      if (lazy_blocked.total_reward != lazy_indexed.total_reward) {
        std::fprintf(stderr,
                     "FAIL: indexed lazy greedy diverges at n=%zu "
                     "(indexed=%.17g blocked=%.17g)\n",
                     n, lazy_indexed.total_reward, lazy_blocked.total_reward);
        return 1;
      }
    }
    const double lazy_blocked_projected =
        blocked_ns * static_cast<double>(n) / 1e9;

    spatial_rows.push_back({n, spec.box_side, build_seconds, blocked_ns,
                            indexed_ns, touched_per_eval,
                            first_round_mapped_seconds,
                            first_round_sweep_seconds, lazy_indexed_seconds,
                            lazy_blocked_seconds, lazy_blocked_projected});
    std::printf(
        "spatial n=%-9zu box=%7.1f build %6.2fs | blocked %10.1f ns/eval | "
        "indexed %8.1f ns/eval (%6.1fx, %4.1f pts) | first round mapped "
        "%6.3fs sweep %6.3fs | lazy k=%zu grid %7.2fs blocked %s\n",
        n, spec.box_side, build_seconds, blocked_ns, indexed_ns,
        blocked_ns / indexed_ns, touched_per_eval, first_round_mapped_seconds,
        first_round_sweep_seconds, kk, lazy_indexed_seconds,
        lazy_blocked_seconds >= 0.0
            ? (std::to_string(lazy_blocked_seconds) + "s").c_str()
            : (">= " + std::to_string(lazy_blocked_projected) +
               "s (projected scan)")
                  .c_str());
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"kernels\",\n  \"box\": " << bench::box_json()
      << ",\n  \"scenario\": "
         "\"clustered 2-D L2, radius 1.0, linear reward, mid-solve residual\","
         "\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"variant\": \"" << r.variant
        << "\", \"ns_per_eval\": " << r.ns_per_eval
        << ", \"speedup\": " << r.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"spatial_scenario\": \"uniform 2-D L2, radius 1.0, constant "
         "density ~10 points per unit area (box_side = sqrt(n/10)), fresh "
         "residual; first round = all n candidates scored once, one query "
         "each (mapped, serial) or one sweep; lazy greedy k=16 end to end "
         "(its first round is the sweep); blocked end-to-end "
         "measured only for n <= 100k, projected above (first-round scan "
         "= n evals at the measured blocked rate, a lower bound)\",\n";
  out << "  \"spatial\": [\n";
  for (std::size_t i = 0; i < spatial_rows.size(); ++i) {
    const SpatialRow& s = spatial_rows[i];
    out << "    {\"n\": " << s.n << ", \"box_side\": " << s.box_side
        << ", \"grid_build_seconds\": " << s.build_seconds
        << ", \"blocked_ns_per_eval\": " << s.blocked_ns
        << ", \"indexed_ns_per_eval\": " << s.indexed_ns
        << ", \"eval_speedup\": " << s.blocked_ns / s.indexed_ns
        << ", \"points_touched_per_eval\": " << s.touched_per_eval
        << ", \"first_round_mapped_seconds\": " << s.first_round_mapped_seconds
        << ", \"first_round_sweep_seconds\": " << s.first_round_sweep_seconds
        << ", \"lazy_indexed_seconds\": " << s.lazy_indexed_seconds
        << ", \"lazy_blocked_seconds\": ";
    if (s.lazy_blocked_seconds >= 0.0) {
      out << s.lazy_blocked_seconds;
    } else {
      out << "null";
    }
    out << ", \"lazy_blocked_projected_seconds\": " << s.lazy_blocked_projected
        << "}" << (i + 1 < spatial_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_kernels: %s\n", e.what());
  return 1;
}
