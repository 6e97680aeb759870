#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "npb/bt.hpp"
#include "npb/lu.hpp"
#include "npb/sp.hpp"
#include "npb/suite.hpp"

namespace bladed::npb {
namespace {

TEST(BlockTridiag, SolvesManufacturedSystem) {
  // Build a system with a known solution and verify the solver recovers it.
  Rng rng(11);
  const std::size_t n = 12;
  std::vector<Mat5> a(n), b(n), c(n);
  std::vector<Vec5> x_true(n), f(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int r = 0; r < kB; ++r) {
      for (int q = 0; q < kB; ++q) {
        a[i][r][q] = i > 0 ? rng.uniform(-0.3, 0.3) : 0.0;
        c[i][r][q] = i + 1 < n ? rng.uniform(-0.3, 0.3) : 0.0;
        b[i][r][q] = rng.uniform(-0.2, 0.2);
      }
      x_true[i][r] = rng.uniform(-1.0, 1.0);
    }
    for (int r = 0; r < kB; ++r) {
      double rowsum = 0.0;
      for (int q = 0; q < kB; ++q) {
        rowsum += std::fabs(a[i][r][q]) + std::fabs(c[i][r][q]);
        if (q != r) rowsum += std::fabs(b[i][r][q]);
      }
      b[i][r][r] = 1.0 + rowsum;
    }
  }
  // f = A_block_tridiag * x_true.
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = Vec5{};
    matvec_acc(b[i], x_true[i], f[i]);
    if (i > 0) matvec_acc(a[i], x_true[i - 1], f[i]);
    if (i + 1 < n) matvec_acc(c[i], x_true[i + 1], f[i]);
  }
  OpCounter ops;
  solve_block_tridiag(a, b, c, f, ops);
  for (std::size_t i = 0; i < n; ++i) {
    for (int r = 0; r < kB; ++r) {
      EXPECT_NEAR(f[i][r], x_true[i][r], 1e-9) << i << "," << r;
    }
  }
  EXPECT_GT(ops.flops(), 0u);
}

TEST(BlockTridiag, SingleCellSystem) {
  std::vector<Mat5> a(1, mat5_zero()), c(1, mat5_zero());
  std::vector<Mat5> b(1, mat5_identity());
  for (int i = 0; i < kB; ++i) b[0][i][i] = 2.0;
  std::vector<Vec5> f(1, Vec5{2, 4, 6, 8, 10});
  OpCounter ops;
  solve_block_tridiag(a, b, c, f, ops);
  for (int i = 0; i < kB; ++i) EXPECT_NEAR(f[0][i], i + 1.0, 1e-12);
}

TEST(Bt, AllLinesVerifyAtSmallResidual) {
  const BtResult r = run_bt(8, 2);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_line_residual, 1e-10);
  EXPECT_EQ(r.lines_solved, 2u * 3u * 8u * 8u);
}

TEST(Bt, OpsScaleWithGridAndIterations) {
  const BtResult a = run_bt(8, 1);
  const BtResult b = run_bt(8, 2);
  EXPECT_EQ(b.ops.flops(), 2 * a.ops.flops());
  const BtResult big = run_bt(16, 1);
  // 8x the lines, 2x the line length: ~8-16x the ops.
  EXPECT_GT(big.ops.flops(), 7 * a.ops.flops());
}

TEST(Bt, RejectsBadArguments) {
  EXPECT_THROW((void)run_bt(1, 1), PreconditionError);
  EXPECT_THROW((void)run_bt(8, 0), PreconditionError);
}

TEST(Penta, SolvesManufacturedSystem) {
  Rng rng(13);
  const std::size_t n = 40;
  PentaSystem s;
  s.a2.resize(n);
  s.a1.resize(n);
  s.d.resize(n);
  s.c1.resize(n);
  s.c2.resize(n);
  s.f.resize(n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.a2[i] = i >= 2 ? rng.uniform(-0.4, 0.4) : 0.0;
    s.a1[i] = i >= 1 ? rng.uniform(-0.4, 0.4) : 0.0;
    s.c1[i] = i + 1 < n ? rng.uniform(-0.4, 0.4) : 0.0;
    s.c2[i] = i + 2 < n ? rng.uniform(-0.4, 0.4) : 0.0;
    s.d[i] = 1.0 + std::fabs(s.a2[i]) + std::fabs(s.a1[i]) +
             std::fabs(s.c1[i]) + std::fabs(s.c2[i]);
    x_true[i] = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double v = s.d[i] * x_true[i];
    if (i >= 1) v += s.a1[i] * x_true[i - 1];
    if (i >= 2) v += s.a2[i] * x_true[i - 2];
    if (i + 1 < n) v += s.c1[i] * x_true[i + 1];
    if (i + 2 < n) v += s.c2[i] * x_true[i + 2];
    s.f[i] = v;
  }
  const PentaSystem orig = s;
  OpCounter ops;
  solve_penta(s, ops);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s.f[i], x_true[i], 1e-10) << i;
  }
  EXPECT_LT(penta_residual(orig, s.f), 1e-10);
}

TEST(Sp, AllSystemsVerify) {
  const SpResult r = run_sp(8, 2);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.systems_solved, 2u * 3u * 8u * 8u * 5u);
}

TEST(Sp, RejectsBadArguments) {
  EXPECT_THROW((void)run_sp(2, 1), PreconditionError);
  EXPECT_THROW((void)run_sp(8, 0), PreconditionError);
}

TEST(Lu, SsorConvergesMonotonically) {
  const LuResult r = run_lu(8, 10);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.final_residual, 0.01 * r.initial_residual);
  double prev = r.initial_residual;
  for (double res : r.residual_history) {
    EXPECT_LE(res, prev * 1.001);
    prev = res;
  }
}

TEST(Lu, OmegaOneIsPlainGaussSeidelAndAlsoConverges) {
  const LuResult r = run_lu(6, 8, 1.0);
  EXPECT_LT(r.final_residual, r.initial_residual);
}

TEST(Lu, RejectsBadArguments) {
  EXPECT_THROW(run_lu(2, 1), PreconditionError);
  EXPECT_THROW(run_lu(8, 0), PreconditionError);
  EXPECT_THROW(run_lu(8, 1, 2.5), PreconditionError);
}

TEST(Suite, EveryKernelVerifies) {
  for (const KernelRun& k : run_suite()) {
    EXPECT_TRUE(k.verified) << k.name << ": " << k.description;
    EXPECT_GT(k.profile.ops.iop + k.profile.ops.flops(), 0u) << k.name;
  }
}

TEST(Suite, Table3SubsetInPaperOrder) {
  const auto kernels = table3_kernels();
  ASSERT_EQ(kernels.size(), 6u);
  const char* expected[] = {"BT", "SP", "LU", "MG", "EP", "IS"};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(kernels[i].name, expected[i]);
}

}  // namespace
}  // namespace bladed::npb
