#pragma once

/// bladed::hostperf — host-side execution performance primitives.
///
/// The simnet engine simulates a 24-blade chassis with one real thread per
/// rank. Determinism comes from virtual-time event ordering, not from host
/// scheduling, so between communication points rank threads are free to run
/// *concurrently* on the host. ComputeSlots is the bounded worker pool that
/// makes that safe to size: at most `count` ranks execute user code (compute
/// regions) at once, so a 24-rank simulation on an 8-core host runs 8-wide
/// instead of 24 oversubscribed threads — or 1-wide for bit-for-bit
/// comparison runs.

#include <mutex>

#include "mc/shim.hpp"

namespace bladed::hostperf {

/// Counting semaphore bounding how many rank threads run user code
/// concurrently. Slots are released on entry to an engine operation (a
/// communication point) and re-acquired before returning to user code, so a
/// slot holder never waits on an engine grant while holding its slot —
/// waiters always make progress.
///
/// Verified by the bladed-mc `slot-pool` protocol model [mc:slot-pool]:
/// acquire is modeled as wait-on-free/decrement under mu_, release as
/// increment-then-notify, and the model checker proves (exhaustively over
/// the reduced interleaving space) that at most `count` ranks compute at
/// once, that releasing *before* parking for a grant keeps the pool live,
/// and that dropping the notify or holding the slot across the park is a
/// reachable deadlock. The mc:: aliases below are the plain std types in
/// production builds; -DBLADED_MC=ON swaps in the checker-routed shims.
class ComputeSlots {
 public:
  explicit ComputeSlots(int count = 1) : free_(count) {}

  /// Reset the pool to `count` free slots. Callers must be quiescent (no
  /// concurrent acquire/release) — the engine resets between runs.
  void reset(int count) {
    mc::lock_guard lk(mu_);
    free_ = count;
  }

  // [mc:slot-pool] ComputeSlots::acquire: scan-and-park under one hold of
  // mu_, so a release's increment+notify cannot fall between the free_ scan
  // and the wait (the lost-release seeded bug).
  void acquire() {
    mc::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return free_ > 0; });
    --free_;
  }

  // [mc:slot-pool] ComputeSlots::release: increment under mu_, then notify.
  // Skipping the notify strands a parked acquirer (seeded bug
  // slot-pool/lost-release).
  void release() {
    {
      mc::lock_guard lk(mu_);
      ++free_;
    }
    cv_.notify_one();
  }

 private:
  mc::mutex mu_;
  mc::condvar cv_;
  int free_ = 1;
};

/// Resolve a requested host-thread count to an effective one:
///   requested >= 1  -> used as-is;
///   requested == 0  -> BLADED_HOST_THREADS env var if set and >= 1, else
///                      std::thread::hardware_concurrency() (min 1).
/// Negative requests are treated as 0 (auto).
int resolve_host_threads(int requested);

}  // namespace bladed::hostperf
