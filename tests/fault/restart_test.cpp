/// Checkpoint/restart tests for the fault-tolerant parallel drivers: the
/// differential property (a recovered run must reproduce the fault-free
/// physics bit-for-bit at strictly greater virtual time), graceful
/// degradation, restart bookkeeping, and the NPB FT kernels.

#include "treecode/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "npb/parallel.hpp"

namespace bladed {
namespace {

treecode::ParallelConfig small_base() {
  treecode::ParallelConfig base;
  base.ranks = 6;
  base.particles = 240;
  base.steps = 4;
  base.seed = 11;
  base.cpu = &arch::tm5600_633();
  return base;
}

treecode::FtConfig small_ft() {
  treecode::FtConfig ft;
  ft.base = small_base();
  ft.checkpoint_every = 2;
  ft.recovery.restart_penalty_seconds = 0.5;
  return ft;
}

bool bit_identical(const treecode::ParticleSet& a,
                   const treecode::ParticleSet& b) {
  return a.size() == b.size() && a.x == b.x && a.y == b.y && a.z == b.z &&
         a.vx == b.vx && a.vy == b.vy && a.vz == b.vz && a.m == b.m;
}

TEST(TreecodeFt, CleanRunMatchesFaultFreeDriver) {
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  const treecode::FtResult ft = run_parallel_nbody_ft(small_ft());
  EXPECT_TRUE(bit_identical(ft.result.particles_out, ref.particles_out));
  EXPECT_EQ(ft.recovery.attempts, 1);
  EXPECT_EQ(ft.recovery.restarts, 0);
  EXPECT_EQ(ft.recovery.checkpoints, 1);  // after step 2 of 4
  EXPECT_EQ(ft.recovery.resumed_from, -1);
  EXPECT_DOUBLE_EQ(ft.recovery.lost_virtual_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ft.recovery.total_virtual_seconds,
                   ft.result.elapsed_seconds);
}

// The acceptance-criterion differential test: drops + corruption + one node
// crash with restart-on-replacement must converge to the exact particle
// state of the fault-free run, at strictly greater virtual time.
TEST(TreecodeFt, RecoveredRunIsBitIdenticalToFaultFree) {
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  const double t_ref = ref.elapsed_seconds;

  treecode::FtConfig ft = small_ft();
  ft.recovery.schedule.link_drop(-1, -1, 0.0, 0.3 * t_ref, 0.15)
      .corrupt(-1, -1, 0.0, 0.3 * t_ref, 0.10)
      .crash(3, 0.6 * t_ref);
  const treecode::FtResult r = run_parallel_nbody_ft(ft);

  EXPECT_TRUE(bit_identical(r.result.particles_out, ref.particles_out));
  EXPECT_DOUBLE_EQ(r.result.kinetic, ref.kinetic);
  EXPECT_DOUBLE_EQ(r.result.potential, ref.potential);
  EXPECT_EQ(r.recovery.restarts, 1);
  EXPECT_EQ(r.recovery.attempts, 2);
  EXPECT_EQ(r.recovery.fault_stats.crashes, 1u);
  EXPECT_GE(r.recovery.fault_stats.drops + r.recovery.fault_stats.crc_rejects,
            1u);
  EXPECT_EQ(r.recovery.failed_nodes, std::vector<int>{3});
  EXPECT_EQ(r.final_ranks, small_base().ranks);
  // Strictly: recovery costs time.
  EXPECT_GT(r.recovery.total_virtual_seconds, t_ref);
  EXPECT_GT(r.recovery.lost_virtual_seconds, 0.0);
}

// Acceptance-criterion determinism test: the same fault seed must yield a
// bit-identical fault schedule, recovery trace and timings across two runs.
TEST(TreecodeFt, RecoveryIsDeterministicFromTheSeed) {
  treecode::FtConfig ft = small_ft();
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  ft.recovery.schedule.link_drop(-1, -1, 0.0, 0.4 * ref.elapsed_seconds, 0.2)
      .crash(1, 0.5 * ref.elapsed_seconds);
  ft.recovery.fault_seed = 99;
  const treecode::FtResult a = run_parallel_nbody_ft(ft);
  const treecode::FtResult b = run_parallel_nbody_ft(ft);
  EXPECT_EQ(a.recovery.fault_trace, b.recovery.fault_trace);
  EXPECT_GT(a.recovery.fault_trace.size(), 0u);
  EXPECT_DOUBLE_EQ(a.recovery.total_virtual_seconds,
                   b.recovery.total_virtual_seconds);
  EXPECT_DOUBLE_EQ(a.recovery.lost_virtual_seconds,
                   b.recovery.lost_virtual_seconds);
  EXPECT_TRUE(bit_identical(a.result.particles_out, b.result.particles_out));
}

TEST(TreecodeFt, DegradeFinishesOnSurvivingRanks) {
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  treecode::FtConfig ft = small_ft();
  ft.recovery.schedule.crash(2, 0.5 * ref.elapsed_seconds);
  ft.on_node_loss = treecode::NodeLossPolicy::kDegrade;
  const treecode::FtResult r = run_parallel_nbody_ft(ft);
  EXPECT_EQ(r.final_ranks, small_base().ranks - 1);
  EXPECT_EQ(r.recovery.restarts, 1);
  // Every particle survives the re-decomposition over fewer ranks.
  EXPECT_EQ(r.result.particles_out.size(), small_base().particles);
  EXPECT_TRUE(std::isfinite(r.result.kinetic + r.result.potential));
}

TEST(TreecodeFt, WithoutCheckpointsRestartGoesBackToStepZero) {
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  treecode::FtConfig ft = small_ft();
  ft.checkpoint_every = 0;
  ft.recovery.schedule.crash(4, 0.6 * ref.elapsed_seconds);
  const treecode::FtResult r = run_parallel_nbody_ft(ft);
  EXPECT_EQ(r.recovery.checkpoints, 0);
  EXPECT_EQ(r.recovery.resumed_from, 0);
  EXPECT_TRUE(bit_identical(r.result.particles_out, ref.particles_out));
  // Scratch restart throws away the whole failed attempt.
  // At least the restart penalty.
  EXPECT_GT(r.recovery.lost_virtual_seconds, 0.5);
}

TEST(TreecodeFt, ExhaustedRestartBudgetRethrows) {
  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  treecode::FtConfig ft = small_ft();
  ft.recovery.schedule.crash(0, 0.5 * ref.elapsed_seconds);
  ft.recovery.max_restarts = 0;
  EXPECT_THROW((void)run_parallel_nbody_ft(ft), FaultError);
}

TEST(TreecodeFt, FileSnapshotsSupportRestartAndSurviveDamage) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "bladed_ft_snapshots_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const treecode::ParallelResult ref = run_parallel_nbody(small_base());
  treecode::FtConfig ft = small_ft();
  ft.snapshot_dir = dir.string();
  // Late crash: the step-2 checkpoint must be committed by then (the FT run
  // trails the fault-free clock by the framing + checkpoint-write costs).
  ft.recovery.schedule.crash(3, 0.85 * ref.elapsed_seconds);
  const treecode::FtResult r = run_parallel_nbody_ft(ft);
  EXPECT_TRUE(bit_identical(r.result.particles_out, ref.particles_out));
  EXPECT_EQ(r.recovery.restarts, 1);
  EXPECT_GT(r.recovery.resumed_from, 0);  // actually used the snapshot files
  bool any_snapshot = false;
  for (const auto& entry : fs::directory_iterator(dir))
    any_snapshot |= entry.path().filename().string().starts_with("ck_v");
  EXPECT_TRUE(any_snapshot);
  fs::remove_all(dir);
}

// --- NPB fault-tolerant kernels --------------------------------------------

npb::NpbFaultConfig npb_cfg() {
  npb::NpbFaultConfig nf;
  nf.base.ranks = 4;
  nf.base.cpu = &arch::tm5600_633();
  nf.recovery.restart_penalty_seconds = 0.1;
  return nf;
}

TEST(NpbFt, EpRecoversToTheFaultFreeResult) {
  npb::NpbFaultConfig nf = npb_cfg();
  const npb::ParallelEpResult ref = npb::run_parallel_ep(nf.base, 14);
  nf.recovery.schedule.crash(1, 0.4 * ref.elapsed_seconds);
  const npb::ParallelEpFtResult r = npb::run_parallel_ep_ft(nf, 14, 4);
  EXPECT_EQ(r.recovery.restarts, 1);
  EXPECT_GT(r.recovery.checkpoints, 0);
  // Counts are exact; the Gaussian sums are regrouped by the per-batch
  // accumulation, so they agree only to FP reassociation.
  EXPECT_EQ(r.ep.global.q, ref.global.q);
  EXPECT_EQ(r.ep.global.pairs, ref.global.pairs);
  EXPECT_EQ(r.ep.global.accepted, ref.global.accepted);
  EXPECT_NEAR(r.ep.global.sx, ref.global.sx, 1e-10 * std::abs(ref.global.sx));
  EXPECT_NEAR(r.ep.global.sy, ref.global.sy, 1e-10 * std::abs(ref.global.sy));
  // The recovery (both attempts + penalty) costs strictly more than the
  // fault-free run even though the final attempt alone may be shorter.
  EXPECT_GT(r.recovery.total_virtual_seconds, ref.elapsed_seconds);
}

TEST(NpbFt, EpRecoveryIsBitIdenticalToTheUnfaultedFtRun) {
  // The batched FT kernel is its own determinism reference: a crash plus
  // restart must reproduce the no-fault FT run's sums bit-for-bit (both
  // accumulate batch partials in the same order).
  const npb::ParallelEpFtResult clean =
      npb::run_parallel_ep_ft(npb_cfg(), 14, 4);
  EXPECT_EQ(clean.recovery.attempts, 1);
  EXPECT_EQ(clean.recovery.restarts, 0);
  EXPECT_DOUBLE_EQ(clean.recovery.lost_virtual_seconds, 0.0);
  npb::NpbFaultConfig nf = npb_cfg();
  nf.recovery.schedule.crash(1, 0.5 * clean.ep.elapsed_seconds);
  const npb::ParallelEpFtResult r = npb::run_parallel_ep_ft(nf, 14, 4);
  EXPECT_EQ(r.recovery.restarts, 1);
  EXPECT_DOUBLE_EQ(r.ep.global.sx, clean.ep.global.sx);
  EXPECT_DOUBLE_EQ(r.ep.global.sy, clean.ep.global.sy);
  EXPECT_EQ(r.ep.global.q, clean.ep.global.q);
}

TEST(NpbFt, IsStillVerifiesAfterRecovery) {
  npb::NpbFaultConfig nf = npb_cfg();
  const npb::ParallelIsResult ref =
      npb::run_parallel_is(nf.base, 12, 9, /*iterations=*/4);
  ASSERT_TRUE(ref.globally_sorted);
  nf.recovery.schedule.crash(2, 0.5 * ref.elapsed_seconds);
  const npb::ParallelIsFtResult r =
      npb::run_parallel_is_ft(nf, 12, 9, /*iterations=*/4);
  EXPECT_EQ(r.recovery.restarts, 1);
  EXPECT_TRUE(r.is.globally_sorted);
  EXPECT_TRUE(r.is.ranks_are_permutation);
  EXPECT_EQ(r.is.keys, ref.keys);
  EXPECT_GT(r.recovery.total_virtual_seconds, ref.elapsed_seconds);
}

TEST(NpbFt, ExhaustedRestartBudgetRethrows) {
  npb::NpbFaultConfig nf = npb_cfg();
  const npb::ParallelEpResult ref = npb::run_parallel_ep(nf.base, 14);
  nf.recovery.schedule.crash(1, 0.4 * ref.elapsed_seconds);
  nf.recovery.max_restarts = 0;
  EXPECT_THROW((void)npb::run_parallel_ep_ft(nf, 14, 4), FaultError);
}

}  // namespace
}  // namespace bladed
