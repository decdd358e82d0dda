// Prints the golden-regression constants for tests/golden_regression_test.
// Run after an intentional behavior change and paste the output between
// the GOLDEN_VALUES markers.

#include <cstdio>

#include "mmph/core/kernels.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/random/workload.hpp"

int main() {
  using namespace mmph;
  using core::kernels::IndexMode;
  rnd::WorkloadSpec spec;
  rnd::Rng rng(2011);
  const core::Problem p = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
  std::printf("point0 = (%.17g, %.17g), weight0 = %.17g\n", p.point(0)[0],
              p.point(0)[1], p.weight(0));

  struct Row {
    const char* name;
    IndexMode index;
  };
  const Row rows[] = {
      {"greedy1", IndexMode::kAuto},        {"greedy1", IndexMode::kGrid},
      {"greedy1+polish", IndexMode::kAuto}, {"greedy1+polish", IndexMode::kGrid},
      {"greedy2", IndexMode::kAuto},        {"greedy2-lazy", IndexMode::kAuto},
      {"greedy2", IndexMode::kGrid},        {"greedy2+ls", IndexMode::kAuto},
      {"greedy2-stoch", IndexMode::kAuto},  {"greedy3", IndexMode::kAuto},
      {"greedy3", IndexMode::kGrid},        {"greedy4", IndexMode::kAuto},
      {"greedy4", IndexMode::kGrid},        {"exhaustive", IndexMode::kAuto},
      {"sieve", IndexMode::kAuto},          {"kmeans", IndexMode::kAuto},
      {"random", IndexMode::kAuto},
  };
  for (const Row& row : rows) {
    const core::kernels::ScopedIndexMode index(row.index);
    const double total =
        core::make_solver(row.name, p)->solve(p, 4).total_reward;
    std::printf("GoldenCase{\"%s\", %.17g%s},\n", row.name, total,
                row.index == IndexMode::kGrid ? ", IndexMode::kGrid" : "");
  }
  return 0;
}
