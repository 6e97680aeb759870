#pragma once

/// Deterministic virtual-time cluster simulator. Each simulated node (rank)
/// runs a real C++ program on its own thread. Between communication points
/// ranks execute *concurrently* on a bounded worker pool
/// (Config::host_threads compute slots); every engine transition — send,
/// recv, barrier — is an arrive/grant point where the scheduler admits
/// exactly one rank at a time in (virtual time, rank id) order, and a grant
/// at time t only fires once no still-computing rank can arrive at or before
/// t. Host scheduling therefore never decides a Comm match: results, timings
/// and commcheck traces are reproducible bit-for-bit at any host_threads,
/// and identical to the historical one-rank-at-a-time engine. Computation
/// advances a rank's clock explicitly (Comm::compute); messages carry real
/// payloads between ranks while their delivery times come from the
/// star-switch LinkTimeline model. Payloads are immutable and shared
/// (simnet::Payload): the engine moves them from sender to mailbox to
/// receiver without copying bytes.
///
/// This is the substitute for the paper's physical 24-node Fast Ethernet
/// cluster: the communication pattern, payload bytes and overlap structure
/// are those of the real parallel program, and only the per-byte/per-message
/// costs come from the model.
///
/// Fault tolerance (Config::fault.enabled): a seeded FaultSchedule is
/// executed against the run at virtual-time precision — node crashes/hangs,
/// link-drop / corruption / transient-delay windows — and the engine layers a
/// reliable transport under Comm (CRC32 framing, retransmission with
/// exponential backoff, bounded attempts) plus a heartbeat failure detector,
/// so every blocking operation either completes, times out with a typed
/// error, or is reported by the stall detector instead of hanging.

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "mc/shim.hpp"
#include "simnet/network.hpp"
#include "simnet/payload.hpp"

namespace bladed::commcheck {
class Recorder;
enum class CollectiveKind : std::uint8_t;
}  // namespace bladed::commcheck

namespace bladed::simnet {

class Comm;
struct ClusterImpl;  // engine internals (cluster.cpp)

/// Wildcard source for Comm::recv_bytes / recv_payload.
inline constexpr int kAnySource = -1;

struct RankStats {
  double compute_seconds = 0.0;  ///< time spent in Comm::compute
  double comm_seconds = 0.0;     ///< overheads + time blocked waiting
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  double finish_time = 0.0;  ///< virtual clock when the program returned
};

class Cluster {
 public:
  struct Config {
    int ranks = 1;
    NetworkModel network = NetworkModel::fast_ethernet();
    /// Fault injection + fault-tolerant transport (off by default: the
    /// engine behaves exactly as the original failure-free simulator).
    fault::FaultPlan fault{};
    /// Non-owning commcheck event recorder; when set, every Comm operation
    /// is recorded with vector clocks for offline protocol verification
    /// (bladed-commcheck). Must outlive the Cluster and be sized to
    /// `ranks`. Null = no recording, zero overhead.
    commcheck::Recorder* recorder = nullptr;
    /// Bound on how many rank threads run user code concurrently between
    /// communication points. 1 (default) serializes compute regions like the
    /// historical engine; 0 resolves via BLADED_HOST_THREADS / the host's
    /// hardware concurrency (hostperf::resolve_host_threads). Results are
    /// bit-identical for every value — only wall-clock changes.
    int host_threads = 1;
    /// Optional cooperative cancellation flag (non-owning; must outlive the
    /// run). When it becomes true — a serve-layer deadline expired, the
    /// client went away, the daemon is draining — every rank aborts at its
    /// next engine transition (and the Comm::compute fast path), and run()
    /// throws CancelledError. Null = never cancelled (zero overhead beyond
    /// one pointer test per op).
    const std::atomic<bool>* cancel = nullptr;
  };

  explicit Cluster(Config cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Execute `program` SPMD on every rank to completion. Throws
  /// SimulationError (with a per-rank stall report) on communication
  /// deadlock, NodeFailureError when progress is impossible because nodes
  /// died; exceptions thrown by the program on any rank — including the
  /// typed PeerFailureError / RecvTimeoutError raised inside Comm calls —
  /// are rethrown here.
  void run(const std::function<void(Comm&)>& program);

  [[nodiscard]] int ranks() const { return static_cast<int>(ranks_.size()); }
  /// Virtual time at which the slowest rank finished (valid after run()).
  [[nodiscard]] double elapsed_seconds() const;
  [[nodiscard]] const RankStats& stats(int rank) const;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return links_.bytes_carried();
  }
  [[nodiscard]] std::uint64_t total_messages() const {
    return links_.messages_carried();
  }
  [[nodiscard]] const NetworkModel& network() const { return links_.model(); }
  /// Effective compute-slot bound (Config::host_threads after resolution).
  [[nodiscard]] int host_threads() const { return host_threads_; }

  // --- fault observability (valid during/after run()) ---------------------

  /// Counters of executed fault actions and recoveries.
  [[nodiscard]] const fault::FaultStats& fault_stats() const {
    return fault_stats_;
  }
  /// Every executed fault action in engine order — the recovery trace; two
  /// runs from one seed produce identical traces.
  [[nodiscard]] const std::vector<fault::ExecutedFault>& fault_trace() const {
    return fault_trace_;
  }
  /// Nodes that crashed during the last run, ascending.
  [[nodiscard]] std::vector<int> failed_nodes() const;
  [[nodiscard]] bool node_failed(int rank) const;

 private:
  friend class Comm;

  struct Message {
    int src = 0;
    int tag = 0;
    Payload payload;
    double available_at = 0.0;
    /// Index of the sender's commcheck send event (clock join on match).
    std::size_t send_event = static_cast<std::size_t>(-1);
  };

  enum class State {
    kIdle,
    kComputing,  ///< in user code outside the engine; clock is a lower bound
    kReady,      ///< parked at an engine transition, awaiting its grant
    kRunning,    ///< granted: performing an engine op under the lock
    kBlockedRecv,
    kBlockedBarrier,
    kDone,
  };

  /// Why a blocked rank was resumed.
  enum class WakeReason { kMessage, kTimeout, kPeerFailure, kSelfCrash };

  struct Rank;  // defined in cluster.cpp (holds thread + cv)

  // Operations invoked by Comm on the owning rank's thread; all take the
  // engine lock internally.
  void op_compute(int r, double seconds);
  void op_send(int r, int dst, int tag, Payload payload);
  /// Blocking receive. `timeout` < 0 uses the transport policy's default;
  /// 0 waits forever. On expiry: throws RecvTimeoutError when
  /// `timeout_throws`, else returns nullopt. `elem_bytes`/`elems` describe
  /// the caller's typed expectation for the commcheck recorder (0 = none).
  std::optional<Payload> op_recv(
      int r, int src, int tag, double timeout = -1.0,
      bool timeout_throws = true, std::uint64_t elem_bytes = 0,
      std::uint64_t elems = 0);
  void op_barrier(int r);
  [[nodiscard]] double op_now(int r);
  /// Cheap recording test for Comm (recorder_ is immutable after
  /// construction, so no lock is needed).
  [[nodiscard]] bool recording() const { return recorder_ != nullptr; }
  // Collective entry/exit markers for the commcheck recorder; only called
  // when recording() is true.
  void op_collective_begin(int r, commcheck::CollectiveKind kind, int root,
                           std::uint64_t elems);
  void op_collective_end(int r);

  /// Pending deadline for a blocked rank (scheduler's wake plan).
  struct Wake {
    double t;  ///< infinity = nothing pending
    WakeReason reason;
  };
  [[nodiscard]] Wake next_wake(int r) const;

  /// Arrive at an engine transition: free the compute slot, park as kReady
  /// and sleep until the scheduler grants this rank in (time, id) order.
  /// Returns holding the engine lock; fault hang/crash effects are applied
  /// inside the granted section so the executed-fault trace stays in grant
  /// (= virtual-time) order. Throws AbortSim when the simulation aborts.
  [[nodiscard]] mc::unique_lock enter_op(int r);
  /// Finish a granted op: return to kComputing, wake the scheduler, drop
  /// the engine lock and re-acquire a compute slot before user code resumes.
  void leave_op(int r, mc::unique_lock& lk);

  /// True once Config::cancel fired (cheap relaxed test; null-safe).
  [[nodiscard]] bool cancel_requested() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }
  /// Record CancelledError as the run's outcome, wake every thread and
  /// unwind the calling rank. Takes the engine lock itself.
  [[noreturn]] void abort_cancelled(int r);

  // Fault machinery (engine lock held).
  void apply_hang_and_crash(int r);
  [[noreturn]] void die(int r, double at);
  void ft_send(int r, int dst, int tag, Payload payload, double depart,
               std::size_t send_event);
  void deliver(int r, int dst, int tag, Payload payload, double available_at,
               std::size_t send_event);

  std::unique_ptr<ClusterImpl> impl_;
  LinkTimeline links_;
  int host_threads_ = 1;
  std::vector<std::unique_ptr<Rank>> ranks_;
  fault::FaultInjector injector_;
  fault::FaultStats fault_stats_;
  std::vector<fault::ExecutedFault> fault_trace_;
  commcheck::Recorder* recorder_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace bladed::simnet
