#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "npb/ep.hpp"
#include "npb/is.hpp"

namespace bladed::npb {
namespace {

TEST(Ep, AcceptanceRateIsPiOverFour) {
  const EpResult r = run_ep(20);
  const double rate =
      static_cast<double>(r.accepted) / static_cast<double>(r.pairs);
  EXPECT_NEAR(rate, M_PI / 4.0, 2e-3);
}

TEST(Ep, GaussianSumsNearZero) {
  // Sums of N standard normals have stddev sqrt(N).
  const EpResult r = run_ep(20);
  const double sigma = std::sqrt(static_cast<double>(r.accepted));
  EXPECT_LT(std::fabs(r.sx), 5.0 * sigma);
  EXPECT_LT(std::fabs(r.sy), 5.0 * sigma);
  EXPECT_GT(std::fabs(r.sx) + std::fabs(r.sy), 0.0);
}

TEST(Ep, AnnulusCountsMatchNormalTails) {
  const EpResult r = run_ep(20);
  EXPECT_EQ(r.count_sum(), r.accepted);
  // q[0] = P(max(|X|,|Y|) < 1) = erf(1/sqrt2)^2 ~ 0.4660.
  const double p0 =
      static_cast<double>(r.q[0]) / static_cast<double>(r.accepted);
  EXPECT_NEAR(p0, 0.466, 0.01);
  // Counts decay fast with the annulus index.
  EXPECT_GT(r.q[0], r.q[1]);
  EXPECT_GT(r.q[1], r.q[2]);
  EXPECT_EQ(r.q[9], 0u);  // ~6-sigma events are absent at this sample size
}

TEST(Ep, DeterministicForFixedSeed) {
  const EpResult a = run_ep(16);
  const EpResult b = run_ep(16);
  EXPECT_DOUBLE_EQ(a.sx, b.sx);
  EXPECT_EQ(a.q, b.q);
}

TEST(Ep, DifferentSeedsGiveDifferentSums) {
  const EpResult a = run_ep(16, 1);
  const EpResult b = run_ep(16, 2);
  EXPECT_NE(a.sx, b.sx);
}

TEST(Ep, OpCountsScaleWithClass) {
  const EpResult a = run_ep(14);
  const EpResult b = run_ep(16);
  // 4x the pairs -> ~4x the ops (acceptance rate is the same).
  const double ratio = static_cast<double>(b.ops.flops()) /
                       static_cast<double>(a.ops.flops());
  EXPECT_NEAR(ratio, 4.0, 0.05);
}

TEST(Ep, RejectsSillyClassSize) {
  EXPECT_THROW((void)run_ep(2), PreconditionError);
  EXPECT_THROW((void)run_ep(40), PreconditionError);
}

TEST(Is, RanksProduceSortedPermutation) {
  const IsResult r = run_is(16, 11);
  EXPECT_TRUE(r.ranks_are_permutation);
  EXPECT_TRUE(r.ranks_sort_keys);
  EXPECT_EQ(r.keys, 1u << 16);
  EXPECT_EQ(r.iterations, 10);
}

TEST(Is, DeterministicChecksum) {
  const IsResult a = run_is(14, 10, 5);
  const IsResult b = run_is(14, 10, 5);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(Is, SeedChangesChecksum) {
  const IsResult a = run_is(14, 10, 5, 1);
  const IsResult b = run_is(14, 10, 5, 2);
  EXPECT_NE(a.checksum, b.checksum);
}

TEST(Is, PurelyIntegerWorkload) {
  const IsResult r = run_is(14, 10, 3);
  // The ranking iterations contribute no flops; only key generation does.
  EXPECT_EQ(r.ops.fsqrt, 0u);
  EXPECT_EQ(r.ops.fdiv, 0u);
  EXPECT_GT(r.ops.iop, r.ops.flops());
}

class IsSizeSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IsSizeSweep, SortsAtEverySize) {
  const auto [n_log2, bmax_log2] = GetParam();
  const IsResult r = run_is(n_log2, bmax_log2, 4);
  EXPECT_TRUE(r.ranks_sort_keys) << n_log2 << " " << bmax_log2;
}

INSTANTIATE_TEST_SUITE_P(Sizes, IsSizeSweep,
                         ::testing::Values(std::pair{8, 5}, std::pair{12, 8},
                                           std::pair{16, 11},
                                           std::pair{18, 14},
                                           std::pair{16, 4}));

TEST(Is, RejectsBadParameters) {
  EXPECT_THROW((void)run_is(2, 5), PreconditionError);
  EXPECT_THROW((void)run_is(16, 1), PreconditionError);
  EXPECT_THROW((void)run_is(16, 11, 0), PreconditionError);
}

}  // namespace
}  // namespace bladed::npb
