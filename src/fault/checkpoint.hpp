#pragma once

/// Coordinated checkpoint/restart, shared by the three fault-tolerant
/// drivers (treecode::run_parallel_nbody_ft, npb::run_parallel_{ep,is}_ft):
/// a CRC32-protected in-memory blob store, the barrier -> commit -> barrier
/// Coordinator, and run_with_restarts, the one attempt loop. Each driver
/// supplies only what it saves, what a commit costs and how it resumes.

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "fault/crc32.hpp"
#include "simnet/cluster.hpp"

namespace bladed::fault {

class CheckpointStore {
 public:
  /// Commit `blob` as rank `rank`'s state at checkpoint `version`
  /// (overwrites any previous commit of the same coordinates).
  void save(int rank, int version, std::vector<std::byte> blob);

  /// CRC-verified load; nullopt if absent or damaged.
  [[nodiscard]] std::optional<std::vector<std::byte>> load(int rank,
                                                           int version) const;

  /// Test hook: flip one byte of a stored blob so load() must reject it.
  void damage(int rank, int version);

 private:
  struct Entry {
    std::vector<std::byte> blob;
    std::uint32_t crc = 0;
  };
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, Entry> entries_;
};

/// Minimal byte-packing helpers for checkpoint blobs of trivially copyable
/// scalars and vectors.
class BlobWriter {
 public:
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put_vec(const std::vector<T>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
  }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::byte>& bytes) : bytes_(bytes) {}

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    BLADED_REQUIRE_MSG(pos_ + sizeof(T) <= bytes_.size(),
                       "checkpoint blob truncated");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vec() {
    const auto n = static_cast<std::size_t>(get<std::uint64_t>());
    BLADED_REQUIRE_MSG(pos_ + n * sizeof(T) <= bytes_.size(),
                       "checkpoint blob truncated");
    std::vector<T> v(n);
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

 private:
  const std::vector<std::byte>& bytes_;
  std::size_t pos_ = 0;
};

/// Coordinated checkpoints of one fault-tolerant run, shared by its
/// attempts. Versions are the driver's progress counters (steps, batches,
/// iterations), so they start at 1. A version is restartable only once
/// every rank committed it; `version` is that one completion record.
struct Coordinator {
  CheckpointStore store;
  std::atomic<int> version{0};  ///< last complete version (0 = none)
  std::atomic<int> writers{0};  ///< rank count that wrote it
  std::atomic<int> count{0};    ///< commits so far
  std::atomic<double> last_commit_time{0.0};  ///< within the current attempt

  /// Two-barrier commit of version `v`: a barrier quiesces the ranks, each
  /// runs `save` (store its state, charge the write), and after a second
  /// barrier rank 0 records `v` complete.
  void commit(simnet::Comm& comm, int v, const std::function<void()>& save);
  /// commit() of this rank's `blob` to the store, free of charge.
  void commit(simnet::Comm& comm, int v, std::vector<std::byte> blob);
  /// `rank`'s blob of the last complete version, if any and undamaged.
  [[nodiscard]] std::optional<std::vector<std::byte>> load(int rank) const;
};

enum class NodeLossPolicy {
  kReplace,  ///< restart on the same rank count (crashed node swapped out)
  kDegrade,  ///< restart on the surviving ranks only (graceful degradation)
};

/// Fault plan and restart budget of a fault-tolerant run.
struct RecoveryConfig {
  FaultSchedule schedule{};  ///< absolute run-timeline fault events
  TransportPolicy transport{};
  std::uint64_t fault_seed = 1;
  /// Modelled time to detect + reboot/replace + redeploy after a failure,
  /// charged once per restart on the virtual timeline.
  double restart_penalty_seconds = 1.0;
  int max_restarts = 8;  ///< exceeded => the last FaultError is rethrown
};

/// Recovery bookkeeping accumulated across the attempts of a run: the
/// executed input to the paper's Table 5 DTC model.
struct RecoveryReport {
  int attempts = 1;  ///< 1 = ran through with no restart
  int restarts = 0;
  int checkpoints = 0;    ///< committed coordinated checkpoints
  int resumed_from = -1;  ///< resume point of the last restart (-1 = none)
  double total_virtual_seconds = 0.0;  ///< all attempts + penalties
  /// Failed-attempt time past the last commit, plus restart penalties.
  double lost_virtual_seconds = 0.0;
  FaultStats fault_stats;
  std::vector<ExecutedFault> fault_trace;
  std::vector<int> failed_nodes;  ///< logical rank ids, in failure order
};

/// Runs attempts until one completes, each on a fresh `cluster` (under
/// kDegrade, minus every node lost so far) whose fault plan is shifted by
/// the virtual time already consumed, so repaired failures do not re-fire.
/// `attempt` runs the rank program, resuming from `ck`, and returns the
/// point it resumed from. Rethrows the FaultError past `max_restarts`.
[[nodiscard]] RecoveryReport run_with_restarts(
    const RecoveryConfig& cfg, Coordinator& ck, simnet::Cluster::Config cluster,
    NodeLossPolicy on_node_loss,
    const std::function<int(simnet::Cluster&)>& attempt);

}  // namespace bladed::fault
