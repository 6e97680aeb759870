#pragma once

/// Parallel NPB kernels over the simnet virtual cluster: the MPI versions
/// of EP (block decomposition with generator skip-ahead, allreduce of sums
/// and annulus counts) and IS (distributed counting sort: local counts,
/// bucket-count allgather, globally consistent ranks). EP is the
/// embarrassingly parallel end of the spectrum; IS is the
/// communication-heavy end — together they bracket how the simulated
/// MetaBlade behaves on NPB-class workloads (the paper measured the suite
/// single-processor; this is the natural next experiment).

#include "arch/processor.hpp"
#include "fault/checkpoint.hpp"
#include "npb/ep.hpp"
#include "npb/is.hpp"
#include "simnet/network.hpp"

namespace bladed::commcheck {
class Recorder;
}  // namespace bladed::commcheck

namespace bladed::npb {

struct ParallelNpbConfig {
  int ranks = 24;
  const arch::ProcessorModel* cpu = nullptr;  ///< required
  simnet::NetworkModel network = simnet::NetworkModel::fast_ethernet();
  /// Optional commcheck event recorder (bladed-commcheck); must be sized to
  /// `ranks` and outlive the run. Null = no recording.
  commcheck::Recorder* recorder = nullptr;
  /// Host worker threads for the simulated ranks' compute regions
  /// (simnet::Cluster::Config::host_threads): 1 serializes, 0 auto-resolves.
  /// Results are bit-identical for every value.
  int host_threads = 1;
};

struct ParallelEpResult {
  EpResult global;          ///< combined result (counts exactly serial's)
  double elapsed_seconds = 0.0;
  double compute_seconds = 0.0;  ///< max per-rank modelled compute
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// EP with 2^m pairs split into `ranks` contiguous blocks of the global
/// generator stream.
[[nodiscard]] ParallelEpResult run_parallel_ep(const ParallelNpbConfig& cfg,
                                               int m,
                                               std::uint64_t seed = kEpSeed);

struct ParallelIsResult {
  std::uint64_t keys = 0;
  bool globally_sorted = false;
  bool ranks_are_permutation = false;
  double elapsed_seconds = 0.0;
  double compute_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// IS with 2^n_log2 keys in [0, 2^bmax_log2), block-decomposed; ranking via
/// per-rank bucket counts exchanged with an allgather.
[[nodiscard]] ParallelIsResult run_parallel_is(
    const ParallelNpbConfig& cfg, int n_log2, int bmax_log2,
    int iterations = 10, std::uint64_t seed = 314159265ULL);

struct ParallelStencilResult {
  int n = 0;
  int iterations = 0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  /// Serial-reference digest: the distributed run must match the serial
  /// relaxation bit-for-bit (same arithmetic order within each plane).
  double solution_checksum = 0.0;
  double elapsed_seconds = 0.0;
  double compute_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// MG's communication skeleton: weighted-Jacobi relaxation of the 7-point
/// Poisson stencil on a periodic n^3 grid, slab-decomposed along z with
/// ghost-plane halo exchange each sweep and an allreduce for the residual —
/// the nearest-neighbor pattern that completes the EP (allreduce-only) /
/// IS (allgather-heavy) communication spectrum.
[[nodiscard]] ParallelStencilResult run_parallel_stencil(
    const ParallelNpbConfig& cfg, int n, int iterations,
    std::uint64_t seed = 314159265ULL);

// --- fault-tolerant variants (checkpoint/restart over bladed::fault) -------

/// Fault plan for the FT kernels. Restarts always reuse the full rank count
/// (crashed nodes are replaced): EP/IS partial state is tied to the global
/// block decomposition, so degrading to fewer ranks would invalidate it.
struct NpbFaultConfig {
  ParallelNpbConfig base;
  fault::RecoveryConfig recovery{.restart_penalty_seconds = 0.5};
};

struct ParallelEpFtResult {
  ParallelEpResult ep;
  fault::RecoveryReport recovery;
};

struct ParallelIsFtResult {
  ParallelIsResult is;
  fault::RecoveryReport recovery;
};

/// EP under the fault plan: each rank's pair block is processed in
/// `batches` chunks with a coordinated checkpoint of the partial sums after
/// each, so a failure re-executes at most one chunk per rank. Counts (q,
/// pairs, accepted) match run_parallel_ep exactly; the Gaussian sums agree
/// to FP reassociation (per-batch partials regroup the additions), and a
/// recovered run is bit-identical to the unfaulted FT run.
[[nodiscard]] ParallelEpFtResult run_parallel_ep_ft(const NpbFaultConfig& cfg,
                                                    int m, int batches = 8,
                                                    std::uint64_t seed = kEpSeed);

/// IS under the fault plan: the (perturbed) key array is checkpointed after
/// every ranking iteration; a failure replays at most one iteration. The
/// final ranking must still verify exactly as the fault-free kernel's.
[[nodiscard]] ParallelIsFtResult run_parallel_is_ft(
    const NpbFaultConfig& cfg, int n_log2, int bmax_log2, int iterations = 10,
    std::uint64_t seed = 314159265ULL);

}  // namespace bladed::npb
