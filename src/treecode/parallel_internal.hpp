#pragma once

/// Internal building blocks of the parallel N-body driver, shared between
/// run_parallel_nbody (treecode/parallel.cpp) and the fault-tolerant
/// checkpoint/restart driver (treecode/checkpoint.cpp). Not a public API:
/// everything here may change without notice.

#include <functional>

#include "common/opcount.hpp"
#include "treecode/parallel.hpp"
#include "treecode/traverse.hpp"

namespace bladed::simnet {
class Cluster;
class Comm;
}  // namespace bladed::simnet

namespace bladed::treecode::detail {

/// Per-rank working state and accounting inside the simulated cluster.
struct RankWork {
  ParticleSet mine;
  OpCounter force_ops, build_ops, update_ops;
  TraversalStats traversal;
  double kinetic = 0.0, potential = 0.0;
};

/// Validate `cfg` and build its initial condition (Plummer / cube /
/// colliding pair) in global Morton order.
[[nodiscard]] ParticleSet morton_ic(const ParallelConfig& cfg);

/// Called after each completed step with the number of steps done.
using StepHook = std::function<void(simnet::Comm&, RankWork&, int)>;

/// One rank's program: take this rank's contiguous, equal-count chunk of
/// `source` (global Morton order) into `w.mine`, prime the accelerations,
/// leapfrog steps [start_step, cfg.steps) (`after_step`, if set, runs
/// after each), then the energy allreduces.
void run_rank(simnet::Comm& comm, const ParallelConfig& cfg,
              const ParticleSet& source, int start_step, RankWork& w,
              const StepHook& after_step);

/// The run's metrics and final particle state from a completed cluster.
[[nodiscard]] ParallelResult assemble(const simnet::Cluster& cluster,
                                      const std::vector<RankWork>& work);

}  // namespace bladed::treecode::detail
