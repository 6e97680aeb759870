#include "microkernel/karp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bladed::micro {
namespace {

double rel_err(double approx, double exact) {
  return std::fabs(approx - exact) / std::fabs(exact);
}

TEST(KarpRsqrt, ExactOnPowersOfFour) {
  for (double x : {0.25, 1.0, 4.0, 16.0, 1024.0 * 1024.0}) {
    EXPECT_NEAR(karp_rsqrt(x), 1.0 / std::sqrt(x),
                4e-16 / std::sqrt(x))
        << x;
  }
}

TEST(KarpRsqrt, EstimateAccuracyBeforeRefinement) {
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    EXPECT_LT(rel_err(karp_rsqrt_estimate(x), 1.0 / std::sqrt(x)), 2e-6)
        << x;
  }
}

TEST(KarpRsqrt, OneNewtonIterationSquaresTheError) {
  Rng rng(32);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    EXPECT_LT(rel_err(karp_rsqrt(x, 1), 1.0 / std::sqrt(x)), 1e-11) << x;
  }
}

TEST(KarpRsqrt, TwoIterationsReachMachinePrecision) {
  Rng rng(33);
  for (int i = 0; i < 50000; ++i) {
    const double x = std::exp2(rng.uniform(-300.0, 300.0));
    EXPECT_LT(rel_err(karp_rsqrt(x, 2), 1.0 / std::sqrt(x)), 4e-16) << x;
  }
}

TEST(KarpRsqrt, ExponentParityHandledAcrossDecades) {
  // Values straddling even/odd binary exponents, including the 2^±1 cases.
  for (double x : {0.5, 2.0, 8.0, 32.0, 0.125, 3.9999, 1.0001, 2.0001}) {
    EXPECT_LT(rel_err(karp_rsqrt(x), 1.0 / std::sqrt(x)), 4e-16) << x;
  }
}

TEST(KarpRsqrt, SubnormalInputs) {
  const double tiny = 5e-324;  // smallest positive subnormal
  EXPECT_LT(rel_err(karp_rsqrt(tiny), 1.0 / std::sqrt(tiny)), 1e-15);
  const double sub = 1e-310;
  EXPECT_LT(rel_err(karp_rsqrt(sub), 1.0 / std::sqrt(sub)), 1e-15);
}

TEST(KarpRsqrt, RejectsNonPositiveAndNonFinite) {
  EXPECT_THROW((void)karp_rsqrt(0.0), PreconditionError);
  EXPECT_THROW((void)karp_rsqrt(-1.0), PreconditionError);
  EXPECT_THROW((void)karp_rsqrt(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW((void)karp_rsqrt(std::nan("")), PreconditionError);
  EXPECT_THROW((void)karp_rsqrt(1.0, -1), PreconditionError);
}

TEST(KarpRsqrt, MonotoneDecreasingOnSamples) {
  double prev = karp_rsqrt(0.01);
  for (double x = 0.02; x < 100.0; x *= 1.37) {
    const double y = karp_rsqrt(x);
    EXPECT_LT(y, prev);
    prev = y;
  }
}

TEST(KarpRcbrt3, MatchesRefImplementation) {
  Rng rng(34);
  for (int i = 0; i < 10000; ++i) {
    const double r2 = rng.uniform(1e-6, 1e6);
    const double exact = 1.0 / (r2 * std::sqrt(r2));
    EXPECT_LT(rel_err(karp_rcbrt3(r2), exact), 2e-15) << r2;
  }
}

class KarpIterationSweep : public ::testing::TestWithParam<int> {};

TEST_P(KarpIterationSweep, ErrorShrinksQuadratically) {
  const int iters = GetParam();
  Rng rng(35 + iters);
  double worst = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    worst = std::max(worst, rel_err(karp_rsqrt(x, iters),
                                    1.0 / std::sqrt(x)));
  }
  // error_n ~ error_estimate^(2^n): 2e-6 -> ~1e-11 -> machine eps.
  const double bounds[] = {2e-6, 1e-11, 4e-16, 4e-16};
  EXPECT_LT(worst, bounds[iters]);
}

INSTANTIATE_TEST_SUITE_P(Iterations, KarpIterationSweep,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace bladed::micro
