#pragma once

/// Checkpoint/restart for the parallel treecode driver, on the shared
/// fault::Coordinator and fault::run_with_restarts. Each commit saves every
/// rank's particle slice (positions, velocities, masses); a restart
/// concatenates the slices and re-splits them over the current rank count,
/// on a replacement node (kReplace: bit-identical final state) or on the
/// survivors (kDegrade: fewer ranks).

#include <string>

#include "fault/checkpoint.hpp"
#include "treecode/parallel.hpp"

namespace bladed::treecode {

using fault::NodeLossPolicy;

struct FtConfig {
  ParallelConfig base;
  fault::RecoveryConfig recovery;
  /// Steps between coordinated checkpoints; 0 = never checkpoint (a failure
  /// restarts the run from scratch).
  int checkpoint_every = 4;
  NodeLossPolicy on_node_loss = NodeLossPolicy::kReplace;
  /// Modelled checkpoint write bandwidth per rank (bytes/s) — each commit
  /// charges blob_bytes / bandwidth of compute time to the writing rank.
  double checkpoint_write_bw = 20e6;
  /// Non-empty: checkpoints go to per-rank binary snapshot files
  /// `<dir>/ck_v<version>_r<rank>.bin` (treecode/io format, FNV-checksummed)
  /// instead of the in-memory CRC32 store.
  std::string snapshot_dir;
};

struct FtResult {
  /// Metrics and final particle state of the successful attempt.
  ParallelResult result;
  /// `resumed_from` is the step the last restart resumed from: 0 when no
  /// checkpoint was usable.
  fault::RecoveryReport recovery;
  int final_ranks = 0;
};

/// Run the parallel N-body simulation to completion under the fault plan,
/// restarting from checkpoints as needed. Throws the last FaultError once
/// `max_restarts` is spent, PreconditionError if (kDegrade) no rank survives.
[[nodiscard]] FtResult run_parallel_nbody_ft(const FtConfig& cfg);

}  // namespace bladed::treecode
