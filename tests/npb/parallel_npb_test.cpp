#include "npb/parallel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace bladed::npb {
namespace {

ParallelNpbConfig cfg(int ranks) {
  ParallelNpbConfig c;
  c.ranks = ranks;
  c.cpu = &arch::tm5600_633();
  return c;
}

TEST(ParallelEp, CountsExactlyMatchSerial) {
  const EpResult serial = run_ep(16);
  for (int ranks : {1, 3, 8}) {
    const ParallelEpResult par = run_parallel_ep(cfg(ranks), 16);
    EXPECT_EQ(par.global.q, serial.q) << ranks;          // counts: exact
    EXPECT_EQ(par.global.accepted, serial.accepted) << ranks;
    EXPECT_EQ(par.global.pairs, serial.pairs) << ranks;
    // Sums: equal up to reduction order.
    EXPECT_NEAR(par.global.sx, serial.sx,
                1e-9 * std::max(1.0, std::fabs(serial.sx)))
        << ranks;
  }
}

TEST(ParallelEp, NearPerfectSpeedup) {
  // Needs a class-realistic pair count: at toy sizes the allreduce latency
  // is visible against microseconds of compute.
  const double t1 = run_parallel_ep(cfg(1), 22).elapsed_seconds;
  const double t8 = run_parallel_ep(cfg(8), 22).elapsed_seconds;
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 7.0);  // embarrassingly parallel
  EXPECT_LT(speedup, 8.01);
}

TEST(ParallelEp, BlockDecompositionIsSeamAgnostic) {
  // Splitting into 5 (non-power-of-two) blocks changes nothing.
  const ParallelEpResult a = run_parallel_ep(cfg(5), 14);
  const ParallelEpResult b = run_parallel_ep(cfg(7), 14);
  EXPECT_EQ(a.global.q, b.global.q);
}

TEST(ParallelEp, CommunicationIsTiny) {
  const ParallelEpResult r = run_parallel_ep(cfg(8), 22);
  // A handful of scalar/array allreduces; orders of magnitude below the
  // compute time at class-realistic sizes.
  EXPECT_LT(static_cast<double>(r.bytes), 1e5);
  EXPECT_GT(r.compute_seconds / r.elapsed_seconds, 0.9);
}

TEST(ParallelEp, RejectsBadConfig) {
  ParallelNpbConfig c = cfg(4);
  c.cpu = nullptr;
  EXPECT_THROW((void)run_parallel_ep(c, 16), PreconditionError);
  EXPECT_THROW((void)run_parallel_ep(cfg(4), 2), PreconditionError);
}

TEST(ParallelIs, GloballySortedPermutation) {
  for (int ranks : {1, 2, 6}) {
    const ParallelIsResult r = run_parallel_is(cfg(ranks), 14, 10, 5);
    EXPECT_TRUE(r.ranks_are_permutation) << ranks;
    EXPECT_TRUE(r.globally_sorted) << ranks;
    EXPECT_EQ(r.keys, 1u << 14);
  }
}

TEST(ParallelIs, CommunicationGrowsWithRanks) {
  const ParallelIsResult r2 = run_parallel_is(cfg(2), 14, 10, 5);
  const ParallelIsResult r8 = run_parallel_is(cfg(8), 14, 10, 5);
  EXPECT_GT(r8.bytes, r2.bytes);
  EXPECT_GT(r8.messages, r2.messages);
}

TEST(ParallelIs, ScalesWorseThanEp) {
  // The histogram allgather is the classic IS bottleneck on Fast Ethernet.
  auto speedup_is = [&](int ranks) {
    const double t1 = run_parallel_is(cfg(1), 16, 11, 3).elapsed_seconds;
    return t1 / run_parallel_is(cfg(ranks), 16, 11, 3).elapsed_seconds;
  };
  auto speedup_ep = [&](int ranks) {
    const double t1 = run_parallel_ep(cfg(1), 17).elapsed_seconds;
    return t1 / run_parallel_ep(cfg(ranks), 17).elapsed_seconds;
  };
  EXPECT_LT(speedup_is(8), speedup_ep(8));
}

TEST(ParallelIs, DeterministicAcrossRuns) {
  const ParallelIsResult a = run_parallel_is(cfg(4), 12, 8, 3);
  const ParallelIsResult b = run_parallel_is(cfg(4), 12, 8, 3);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(ParallelIs, ClassWAt24RanksIsPinned) {
  // The npb-comm-24 IS configuration: traffic and virtual time are pinned
  // bit for bit, so a change in how payloads or the offset scan are handled
  // on the host cannot move a modelled number.
  ParallelNpbConfig c = cfg(24);
  c.host_threads = 4;
  const ParallelIsResult r = run_parallel_is(c, 20, 16, 10, 1);
  EXPECT_TRUE(r.ranks_are_permutation);
  EXPECT_TRUE(r.globally_sorted);
  EXPECT_EQ(r.messages, 5520u);
  EXPECT_EQ(r.bytes, 1447355040u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.elapsed_seconds),
            std::bit_cast<std::uint64_t>(11.374965707106208));
}

TEST(ParallelStencil, BitwiseIdenticalAcrossDecompositions) {
  // Jacobi reads only the previous iterate, so the slab decomposition must
  // not change a single bit: residuals and the z-ordered checksum are
  // exactly equal for any rank count.
  const ParallelStencilResult serial = run_parallel_stencil(cfg(1), 16, 6);
  for (int ranks : {2, 4, 8}) {
    const ParallelStencilResult par = run_parallel_stencil(cfg(ranks), 16, 6);
    EXPECT_EQ(par.solution_checksum, serial.solution_checksum) << ranks;
    EXPECT_EQ(par.final_residual, serial.final_residual) << ranks;
  }
}

TEST(ParallelStencil, JacobiReducesTheResidual) {
  const ParallelStencilResult r = run_parallel_stencil(cfg(4), 16, 30);
  EXPECT_GT(r.initial_residual, 0.0);
  EXPECT_LT(r.final_residual, 0.7 * r.initial_residual);
}

TEST(ParallelStencil, HaloTrafficScalesWithRanksNotGridVolume) {
  // Each rank exchanges two n^2 ghost planes per sweep: total bytes grow
  // linearly in rank count and are independent of slab thickness.
  const ParallelStencilResult r2 = run_parallel_stencil(cfg(2), 16, 4);
  const ParallelStencilResult r8 = run_parallel_stencil(cfg(8), 16, 4);
  EXPECT_NEAR(static_cast<double>(r8.bytes) / static_cast<double>(r2.bytes),
              4.0, 0.5);
}

TEST(ParallelStencil, NearestNeighborBeatsAllgatherScaling) {
  // The halo pattern's cost per rank is constant, so stencil efficiency at
  // 8 ranks must far exceed IS's collapsing allgather at similar sizes.
  // Needs a plane size where compute is visible against the per-sweep
  // halo (two 32 KB planes on Fast Ethernet).
  auto speedup = [&](int ranks) {
    const double t1 = run_parallel_stencil(cfg(1), 64, 12).elapsed_seconds;
    return t1 / run_parallel_stencil(cfg(ranks), 64, 12).elapsed_seconds;
  };
  EXPECT_GT(speedup(8), 2.0);
}

TEST(ParallelStencil, RejectsBadConfig) {
  EXPECT_THROW((void)run_parallel_stencil(cfg(4), 2, 1), PreconditionError);
  EXPECT_THROW((void)run_parallel_stencil(cfg(8), 16, 0), PreconditionError);
  EXPECT_THROW((void)run_parallel_stencil(cfg(32), 16, 1), PreconditionError);
}

TEST(ParallelIs, RejectsBadConfig) {
  EXPECT_THROW((void)run_parallel_is(cfg(4), 2, 8), PreconditionError);
  EXPECT_THROW((void)run_parallel_is(cfg(4), 12, 1), PreconditionError);
  EXPECT_THROW((void)run_parallel_is(cfg(4), 12, 8, 0), PreconditionError);
}

}  // namespace
}  // namespace bladed::npb
