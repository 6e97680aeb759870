#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/error.hpp"

namespace bladed {
namespace {

TEST(Summarize, KnownValues) {
  const std::array<double, 5> xs = {2.0, 4.0, 4.0, 4.0, 6.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);  // sample stddev
}

TEST(Summarize, EmptyInputYieldsZeros) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, SingleValueHasZeroStddev) {
  const std::array<double, 1> xs = {7.5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(FitLine, RecoversExactLine) {
  const std::array<double, 4> xs = {0.0, 1.0, 2.0, 3.0};
  const std::array<double, 4> ys = {1.0, 3.0, 5.0, 7.0};
  const LinearFit f = fit_line(xs, ys);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
}

TEST(FitLine, RejectsMismatchedOrDegenerateInput) {
  const std::array<double, 2> xs = {1.0, 1.0};
  const std::array<double, 2> ys = {2.0, 3.0};
  EXPECT_THROW((void)fit_line(xs, ys), PreconditionError);  // identical x
  const std::array<double, 1> one = {1.0};
  EXPECT_THROW((void)fit_line(one, one), PreconditionError);  // too short
}

TEST(RelDiff, Basics) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
  EXPECT_NEAR(rel_diff(-2.0, 2.0), 2.0, 1e-12);
}

}  // namespace
}  // namespace bladed
