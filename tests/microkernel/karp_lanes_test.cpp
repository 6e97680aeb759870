// karp_rsqrt2, the two-lane Karp kernel of the treecode walk, against the
// scalar karp_rsqrt: equal bit for bit in every active lane, the same
// PreconditionError for a bad active lane, and never an error from an
// inactive one.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "microkernel/karp.hpp"

namespace bladed::micro {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Both lanes active: each must equal the scalar call exactly.
void expect_lanes_match(double a, double b) {
  const Double2 y = karp_rsqrt2(Double2{a, b}, 3u);
  EXPECT_EQ(bits(y[0]), bits(karp_rsqrt(a, 2))) << std::hexfloat << a;
  EXPECT_EQ(bits(y[1]), bits(karp_rsqrt(b, 2))) << std::hexfloat << b;
}

/// Every value paired with its neighbour in the list (and the last with the
/// first), so each value is seen in both lanes.
void expect_all_match(const std::vector<double>& xs) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_lanes_match(xs[i], xs[(i + 1) % xs.size()]);
  }
}

TEST(KarpLanes, RandomNormalsAcrossTheExponentRange) {
  Rng rng(41);
  std::size_t mismatches = 0;
  for (int i = 0; i < (1 << 20); i += 2) {
    double x[2];
    for (double& v : x) {
      const std::uint64_t biased = 1 + rng.below(2046);  // normal exponents
      const std::uint64_t mant = rng.next_u64() & ((std::uint64_t{1} << 52) - 1);
      v = std::bit_cast<double>((biased << 52) | mant);
    }
    const Double2 y = karp_rsqrt2(Double2{x[0], x[1]}, 3u);
    mismatches += bits(y[0]) != bits(karp_rsqrt(x[0], 2));
    mismatches += bits(y[1]) != bits(karp_rsqrt(x[1], 2));
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(KarpLanes, SegmentBoundariesAndTheirNeighbours) {
  std::vector<double> xs;
  for (int k = 0; k <= kKarpTableSegments; ++k) {
    const double m = 1.0 + k * (3.0 / kKarpTableSegments);
    for (const double scale : {1.0, 0x1p-2, 0x1p2, 0x1p-1, 0x1p1, 0x1p-600,
                               0x1p601}) {
      const double x = m * scale;
      xs.push_back(x);
      xs.push_back(std::nextafter(x, 0.0));
      xs.push_back(std::nextafter(x, HUGE_VAL));
    }
  }
  expect_all_match(xs);
}

TEST(KarpLanes, PowersOfTwoAndFour) {
  std::vector<double> xs;
  for (int e = -1022; e <= 1023; ++e) xs.push_back(std::ldexp(1.0, e));
  expect_all_match(xs);
}

TEST(KarpLanes, ExtremesOfTheNormalRange) {
  expect_all_match({DBL_MIN, DBL_MAX, std::nextafter(DBL_MIN, 1.0),
                    std::nextafter(DBL_MAX, 0.0), 1.0});
}

TEST(KarpLanes, SubnormalsTakeTheScalarPath) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  expect_all_match({denorm, 1e-310, std::nextafter(DBL_MIN, 0.0), 3.0,
                    2.5e-320, 7.0e-300});
}

TEST(KarpLanes, ActiveBadLaneThrowsLikeTheScalarCall) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -0.0, -1.0, -DBL_MIN, inf, -inf, nan}) {
    EXPECT_THROW((void)karp_rsqrt(bad, 2), PreconditionError);
    EXPECT_THROW((void)karp_rsqrt2(Double2{bad, 2.0}, 1u), PreconditionError);
    EXPECT_THROW((void)karp_rsqrt2(Double2{2.0, bad}, 2u), PreconditionError);
    EXPECT_THROW((void)karp_rsqrt2(Double2{bad, bad}, 3u), PreconditionError);
  }
}

TEST(KarpLanes, InactiveLaneNeverThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -0.0, -1.0, inf, -inf, nan, 1e-310}) {
    Double2 y{};
    EXPECT_NO_THROW(y = karp_rsqrt2(Double2{bad, 2.0}, 2u));
    EXPECT_EQ(bits(y[1]), bits(karp_rsqrt(2.0, 2)));
    EXPECT_NO_THROW(y = karp_rsqrt2(Double2{5.0, bad}, 1u));
    EXPECT_EQ(bits(y[0]), bits(karp_rsqrt(5.0, 2)));
    EXPECT_NO_THROW((void)karp_rsqrt2(Double2{bad, bad}, 0u));
  }
}

}  // namespace
}  // namespace bladed::micro
