// Tests for p-norm metrics: hand values, axioms (property sweeps), parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "mmph/geometry/norms.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/support/error.hpp"

namespace mmph::geo {
namespace {

TEST(Norms, L1HandValues) {
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{3.0, -4.0};
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(l1_distance(b, a), 7.0);
  EXPECT_DOUBLE_EQ(l1_distance(a, a), 0.0);
}

TEST(Norms, L2HandValues) {
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
}

TEST(Norms, LinfHandValues) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 0.0, 3.5};
  EXPECT_DOUBLE_EQ(linf_distance(a, b), 3.0);
}

TEST(Norms, LpMatchesNamedNormsAtSpecialP) {
  const std::vector<double> a{0.2, -1.5, 3.0};
  const std::vector<double> b{-0.7, 2.0, 1.0};
  EXPECT_NEAR(lp_distance(a, b, 1.0), l1_distance(a, b), 1e-12);
  EXPECT_NEAR(lp_distance(a, b, 2.0), l2_distance(a, b), 1e-12);
  // Large p approaches Linf from above.
  EXPECT_NEAR(lp_distance(a, b, 64.0), linf_distance(a, b), 0.1);
  EXPECT_GE(lp_distance(a, b, 64.0), linf_distance(a, b) - 1e-12);
}

TEST(Norms, LpZeroDistance) {
  const std::vector<double> a{1.0, 2.0};
  EXPECT_DOUBLE_EQ(lp_distance(a, a, 3.5), 0.0);
}

TEST(Metric, CanonicalizesSpecialP) {
  EXPECT_EQ(Metric(1.0).norm(), Norm::kL1);
  EXPECT_EQ(Metric(2.0).norm(), Norm::kL2);
  EXPECT_EQ(Metric(std::numeric_limits<double>::infinity()).norm(),
            Norm::kLinf);
  EXPECT_EQ(Metric(3.0).norm(), Norm::kLp);
}

TEST(Metric, RejectsPBelowOne) {
  EXPECT_THROW(Metric(0.5), InvalidArgument);
}

TEST(Metric, DefaultIsEuclidean) {
  const Metric m;
  EXPECT_EQ(m.norm(), Norm::kL2);
  EXPECT_EQ(m.name(), "L2");
}

TEST(Metric, NamesAreStable) {
  EXPECT_EQ(l1_metric().name(), "L1");
  EXPECT_EQ(linf_metric().name(), "Linf");
  EXPECT_EQ(Metric(2.5).name(), "Lp(p=2.5)");
}

TEST(Metric, LengthIsDistanceFromOrigin) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(l2_metric().length(v), 5.0);
  EXPECT_DOUBLE_EQ(l1_metric().length(v), 7.0);
}

TEST(ParseNorm, AcceptsKnownSpellings) {
  EXPECT_EQ(parse_norm("l1"), Norm::kL1);
  EXPECT_EQ(parse_norm("L2"), Norm::kL2);
  EXPECT_EQ(parse_norm("LINF"), Norm::kLinf);
  EXPECT_EQ(parse_norm("1"), Norm::kL1);
  EXPECT_EQ(parse_norm("chebyshev"), Norm::kLinf);
}

TEST(ParseNorm, RejectsUnknown) {
  EXPECT_THROW((void)parse_norm("l3"), ParseError);
  EXPECT_THROW((void)parse_norm(""), ParseError);
}

// --- Property sweeps: norm axioms on random vectors for several p ---

class NormAxioms : public ::testing::TestWithParam<double> {};

TEST_P(NormAxioms, TriangleInequalityAndSymmetry) {
  const double p = GetParam();
  const Metric metric = std::isinf(p) ? linf_metric() : Metric(p);
  // inf has no integer value; it keeps the seed 1234 that its undefined
  // cast produced on x86-64.
  rnd::Rng rng(1234 + (std::isinf(p) ? 0 : static_cast<std::uint64_t>(p * 10)));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dim = 1 + trial % 5;
    std::vector<double> a(dim), b(dim), c(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      a[d] = rng.uniform(-10.0, 10.0);
      b[d] = rng.uniform(-10.0, 10.0);
      c[d] = rng.uniform(-10.0, 10.0);
    }
    const double ab = metric.distance(a, b);
    const double ba = metric.distance(b, a);
    const double ac = metric.distance(a, c);
    const double cb = metric.distance(c, b);
    EXPECT_NEAR(ab, ba, 1e-12) << "symmetry, p=" << p;
    EXPECT_LE(ab, ac + cb + 1e-9) << "triangle inequality, p=" << p;
    EXPECT_GE(ab, 0.0) << "non-negativity, p=" << p;
    EXPECT_NEAR(metric.distance(a, a), 0.0, 1e-12) << "identity, p=" << p;
  }
}

TEST_P(NormAxioms, AbsoluteHomogeneity) {
  const double p = GetParam();
  const Metric metric = std::isinf(p) ? linf_metric() : Metric(p);
  rnd::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(3);
    for (double& x : v) x = rng.uniform(-5.0, 5.0);
    const double alpha = rng.uniform(-3.0, 3.0);
    std::vector<double> scaled(3);
    for (std::size_t d = 0; d < 3; ++d) scaled[d] = alpha * v[d];
    EXPECT_NEAR(metric.length(scaled), std::fabs(alpha) * metric.length(v),
                1e-9)
        << "p=" << p;
  }
}

TEST_P(NormAxioms, MonotoneNonIncreasingInP) {
  // ||x||_p is non-increasing in p for fixed x.
  const double p = GetParam();
  if (std::isinf(p)) GTEST_SKIP() << "comparison target";
  rnd::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(4);
    for (double& x : v) x = rng.uniform(-5.0, 5.0);
    const Metric lo = Metric(p);
    const Metric hi = std::isinf(p + 1.0) ? linf_metric() : Metric(p + 1.0);
    EXPECT_GE(lo.length(v) + 1e-9, hi.length(v)) << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(SweepP, NormAxioms,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 4.0,
                                           std::numeric_limits<double>::infinity()));

}  // namespace
}  // namespace mmph::geo
