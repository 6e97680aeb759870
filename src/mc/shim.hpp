#pragma once

/// bladed::mc — concurrency-primitive shims for the model checker.
///
/// The engine's concurrency protocols (the simnet grant handshake, the
/// recv fast path, the hostperf slot pool) are written against `mc::atomic`,
/// `mc::mutex`, `mc::condvar` instead of the std types. In production builds
/// (BLADED_MC undefined) these aliases *are* the std types — zero overhead,
/// identical codegen. Under -DBLADED_MC=ON they resolve to the checked_*
/// classes below, which route every load/store/lock/wait through the
/// thread-local Executor installed by the model checker — recording the
/// declared memory order of each access so the explorer can refute protocol
/// variants whose ordering is too weak. With no executor installed (e.g. the
/// real engine running inside a BLADED_MC build) the checked classes fall
/// back to their embedded std primitive, so the whole tier-1 suite still
/// passes in a checked build.
///
/// The extracted protocol models (protocols.cpp) use the checked_* classes
/// directly, so `bladed-mc` explores them in *any* build configuration.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>

namespace bladed::mc {

class Executor;

/// The executor driving the current thread, or nullptr outside the checker.
Executor* current_executor();

namespace detail {

/// Visible-operation hooks implemented in executor.cpp. Each returns through
/// the checker's scheduler: the calling thread parks, the explorer picks the
/// next action, and the op's effect is applied to the model state.
std::uint64_t executor_atomic_load(Executor* ex, int obj, std::memory_order);
void executor_atomic_store(Executor* ex, int obj, std::uint64_t bits,
                           std::memory_order);
void executor_lock(Executor* ex, int obj);
void executor_unlock(Executor* ex, int obj);
void executor_cv_wait(Executor* ex, int obj, int mutex_obj);
void executor_cv_notify(Executor* ex, int obj, bool all);
std::uint64_t executor_var_read(Executor* ex, int obj);
void executor_var_write(Executor* ex, int obj, std::uint64_t bits);
int executor_register_object(Executor* ex, int kind, const char* label);

inline constexpr int kObjAtomic = 0;
inline constexpr int kObjMutex = 1;
inline constexpr int kObjCondvar = 2;
inline constexpr int kObjVar = 3;

template <class T>
std::uint64_t to_bits(T v) {
  static_assert(sizeof(T) <= sizeof(std::uint64_t));
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(T));
  return bits;
}

template <class T>
T from_bits(std::uint64_t bits) {
  T v{};
  std::memcpy(&v, &bits, sizeof(T));
  return v;
}

}  // namespace detail

/// std::atomic<T> stand-in. Under the checker every load/store is a visible
/// transition tagged with its memory order; non-seq_cst stores land in the
/// owning thread's store buffer and commit via explicit flush actions, so a
/// weakened publish produces real Dekker interleavings.
template <class T>
class checked_atomic {
 public:
  checked_atomic() : checked_atomic(T{}) {}
  explicit checked_atomic(T v) : fallback_(v) {
    if (Executor* ex = current_executor()) {
      id_ = detail::executor_register_object(ex, detail::kObjAtomic, "atomic");
      owner_ = ex;
      detail::executor_atomic_store(ex, id_, detail::to_bits(v),
                                    std::memory_order_relaxed);
    }
  }
  checked_atomic(const checked_atomic&) = delete;
  checked_atomic& operator=(const checked_atomic&) = delete;

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_atomic_store(ex, id_, detail::to_bits(v), mo);
      return;
    }
    fallback_.store(v, mo);
  }

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      return detail::from_bits<T>(detail::executor_atomic_load(ex, id_, mo));
    }
    return fallback_.load(mo);
  }

 private:
  std::atomic<T> fallback_;
  Executor* owner_ = nullptr;
  int id_ = -1;
};

/// std::mutex stand-in. Lock/unlock are visible transitions; under the
/// checker both act as full barriers (they drain the thread's store buffer),
/// matching the fence a real mutex implies.
class checked_mutex {
 public:
  checked_mutex() {
    if (Executor* ex = current_executor()) {
      id_ = detail::executor_register_object(ex, detail::kObjMutex, "mutex");
      owner_ = ex;
    }
  }
  checked_mutex(const checked_mutex&) = delete;
  checked_mutex& operator=(const checked_mutex&) = delete;

  void lock() {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_lock(ex, id_);
      return;
    }
    fallback_.lock();
  }
  void unlock() {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_unlock(ex, id_);
      return;
    }
    fallback_.unlock();
  }

  [[nodiscard]] int checker_id() const { return id_; }
  [[nodiscard]] std::mutex& fallback() { return fallback_; }
  [[nodiscard]] Executor* checker_owner() const { return owner_; }

 private:
  std::mutex fallback_;
  Executor* owner_ = nullptr;
  int id_ = -1;
};

/// std::condition_variable stand-in. wait() atomically releases the mutex
/// and enlists as a waiter (one transition — no missed-notify window, same
/// as the real primitive); a notify deposits a wake token eligible to the
/// waiters present at notify time, so a lost wakeup is a reachable deadlock
/// the explorer reports, not a livelock TSan happens to miss.
class checked_condvar {
 public:
  checked_condvar() {
    if (Executor* ex = current_executor()) {
      id_ = detail::executor_register_object(ex, detail::kObjCondvar, "condvar");
      owner_ = ex;
    }
  }
  checked_condvar(const checked_condvar&) = delete;
  checked_condvar& operator=(const checked_condvar&) = delete;

  void wait(std::unique_lock<checked_mutex>& lk) {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_cv_wait(ex, id_, lk.mutex()->checker_id());
      return;
    }
    // Fallback: wait on the embedded std primitives. The unique_lock wraps
    // the checked_mutex, whose lock()/unlock() forward to the fallback
    // std::mutex, so adopting it here preserves the locking protocol.
    std::unique_lock<std::mutex> inner(lk.mutex()->fallback(),
                                       std::adopt_lock);
    fallback_.wait(inner);
    inner.release();
  }

  template <class Pred>
  void wait(std::unique_lock<checked_mutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  void notify_one() {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_cv_notify(ex, id_, /*all=*/false);
      return;
    }
    fallback_.notify_one();
  }
  void notify_all() {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_cv_notify(ex, id_, /*all=*/true);
      return;
    }
    fallback_.notify_all();
  }

 private:
  std::condition_variable fallback_;
  Executor* owner_ = nullptr;
  int id_ = -1;
};

/// Plain (non-atomic) shared data, e.g. a rank's `state` field: reads and
/// writes are visible transitions carrying no ordering of their own, and the
/// checker's vector-clock race detector flags any pair of conflicting
/// accesses not ordered by the model's synchronization — proving the lock
/// discipline, not assuming it. Outside the checker it is a bare T.
template <class T>
class var {
 public:
  var() : var(T{}) {}
  explicit var(T v) : plain_(v) {
    if (Executor* ex = current_executor()) {
      id_ = detail::executor_register_object(ex, detail::kObjVar, "var");
      owner_ = ex;
      plain_ = v;
      detail::executor_var_write(ex, id_, detail::to_bits(v));
    }
  }
  var(const var&) = delete;
  var& operator=(const var&) = delete;

  [[nodiscard]] T read() const {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      return detail::from_bits<T>(detail::executor_var_read(ex, id_));
    }
    return plain_;
  }
  void write(T v) {
    if (Executor* ex = current_executor(); ex != nullptr && ex == owner_) {
      detail::executor_var_write(ex, id_, detail::to_bits(v));
      return;
    }
    plain_ = v;
  }

 private:
  T plain_;
  Executor* owner_ = nullptr;
  int id_ = -1;
};

/// Model-level assertion: records a violation (with the interleaving that
/// reached it) and aborts the current execution. No-op outside the checker.
void model_check(bool ok, const char* message);

// ---------------------------------------------------------------------------
// Production aliases. The engine (simnet/cluster.cpp, hostperf.hpp) is
// written against these; BLADED_MC swaps in the checked classes so the very
// same code paths can be steered by the explorer, while the default build
// compiles to the plain std types with no wrapper at all.
#ifdef BLADED_MC
using mutex = checked_mutex;
using condvar = checked_condvar;
template <class T>
using atomic = checked_atomic<T>;
#else
using mutex = std::mutex;
using condvar = std::condition_variable;
template <class T>
using atomic = std::atomic<T>;
#endif
using unique_lock = std::unique_lock<mutex>;
using lock_guard = std::lock_guard<mutex>;

}  // namespace bladed::mc
