// Golden regression tests: exact rewards for fixed seeds.
//
// These pin the full deterministic pipeline (PCG64 stream -> workload ->
// solver tie-breaking -> reward accounting) so that refactors cannot
// silently change published numbers. The constants were produced by this
// build (see tools/print_golden.cpp); an intentional behavior change
// should update them alongside EXPERIMENTS.md.
//
// Values are compared with a 1e-9 tolerance: bit-exactness across
// compilers is not required, but any algorithmic change moves these by
// far more.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mmph/core/kernels.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/random/workload.hpp"

namespace mmph {
namespace {

core::Problem golden_problem() {
  rnd::WorkloadSpec spec;  // n=40, 4x4, weights 1..5
  rnd::Rng rng(2011);
  return core::Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                      geo::l2_metric());
}

using core::kernels::IndexMode;

struct GoldenCase {
  const char* solver;
  double expected_total;
  /// kGrid rows pin the spatial-index path; under the default kAuto the
  /// 40-point golden instance is never indexed.
  IndexMode index = IndexMode::kAuto;
};

// Without a printer gtest shows the raw bytes of the case, including the
// `solver` pointer, which moves from process to process under ASLR; the
// test names built from --gtest_list_tests would then change every build.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << '"' << c.solver;
  if (c.index != IndexMode::kAuto) {
    *os << " --index " << core::kernels::index_mode_name(c.index);
  }
  *os << '"';
}

class GoldenRegression : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRegression, TotalRewardIsPinned) {
  const GoldenCase& c = GetParam();
  const core::kernels::ScopedIndexMode index(c.index);
  const core::Problem p = golden_problem();
  const double got =
      core::make_solver(c.solver, p)->solve(p, 4).total_reward;
  EXPECT_NEAR(got, c.expected_total, 1e-9) << c.solver;
}

// GOLDEN_VALUES_BEGIN
INSTANTIATE_TEST_SUITE_P(
    Seed2011, GoldenRegression,
    ::testing::Values(GoldenCase{"greedy1", 54.394178540702413},
                      GoldenCase{"greedy1+polish", 54.515130530836885},
                      GoldenCase{"greedy2", 53.454110154622086},
                      GoldenCase{"greedy2-lazy", 53.454110154622086},
                      GoldenCase{"greedy2", 53.454110154622086,
                                 IndexMode::kGrid},
                      GoldenCase{"greedy2+ls", 54.394178540702413},
                      GoldenCase{"greedy2-stoch", 53.101500734581599},
                      GoldenCase{"greedy3", 47.647518605761121},
                      GoldenCase{"greedy4", 55.009471112685659},
                      GoldenCase{"greedy4", 55.009471112685659,
                                 IndexMode::kGrid},
                      GoldenCase{"exhaustive", 54.394178540702413},
                      GoldenCase{"sieve", 51.806820970031666},
                      GoldenCase{"kmeans", 40.318840808943769},
                      GoldenCase{"random", 35.24408129537057}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      std::string name = param_info.param.solver;
      if (param_info.param.index != IndexMode::kAuto) {
        name += std::string("_") +
                core::kernels::index_mode_name(param_info.param.index);
      }
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });
// GOLDEN_VALUES_END

TEST(GoldenRegression, WorkloadItselfIsPinned) {
  const core::Problem p = golden_problem();
  ASSERT_EQ(p.size(), 40u);
  // First point and weight of the seed-2011 stream.
  EXPECT_NEAR(p.point(0)[0], 2.9838063142510514, 1e-12);
  EXPECT_NEAR(p.point(0)[1], 3.7741289449041964, 1e-12);
  EXPECT_DOUBLE_EQ(p.weight(0), 1.0);
}

}  // namespace
}  // namespace mmph
