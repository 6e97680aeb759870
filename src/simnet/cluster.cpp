#include "simnet/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "commcheck/recorder.hpp"
#include "common/error.hpp"
#include "fault/crc32.hpp"
#include "hostperf/hostperf.hpp"
#include "mc/shim.hpp"
#include "simnet/comm.hpp"

// Engine concurrency model (see also DESIGN.md §9). Every rank is a real
// thread. Outside the engine (kComputing) ranks run concurrently, bounded by
// the hostperf::ComputeSlots pool; a rank's atomic clock is then a monotonic
// *lower bound* on the virtual time of its next engine transition (user code
// only advances it, via Comm::compute). Every engine op is an arrive/grant
// point: the rank frees its compute slot, parks as kReady and waits for the
// scheduler, which admits parked ranks one at a time ordered by
// (virtual time, rank id) — and only once no still-computing rank could
// arrive at or before that time (its clock lower bound exceeds the grant
// horizon). All shared mutations (link timeline, mailboxes, fault trace,
// message ids) happen inside granted sections, so their order is a pure
// function of virtual time: bit-identical at any host_threads, and identical
// to the historical serial engine, whose scheduler picked the same
// (time, id) order with the arriving rank winning ties against wakes.
//
// The handshake below is written against the mc:: shims (mc/shim.hpp): in
// production builds they are the plain std types; under -DBLADED_MC=ON they
// route through the bladed-mc model checker. Accesses carrying proof
// obligations are tagged with the protocol model that covers them:
//   [mc:handshake]     src/mc/protocols.cpp handshake-order / -progress
//   [mc:recv-fastpath] recv-fastpath model (lock-gated mailbox scan)
//   [mc:slot-pool]     slot-pool model (+ hostperf::ComputeSlots)

namespace bladed::simnet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Thrown into a rank thread to unwind it when the simulation aborts.
struct AbortSim {};
/// Thrown into a rank thread when its node's scheduled crash fires.
struct NodeCrash {};
}  // namespace

struct Cluster::Rank {
  std::thread thread;
  mc::condvar cv;
  State state = State::kIdle;
  /// Virtual clock. Owner-written; lock-free stores from the Comm::compute
  /// fast path make it a live lower bound the scheduler may read while the
  /// rank computes (seq_cst on that handshake, relaxed elsewhere).
  /// [mc:handshake] modeled as the per-rank `clock` cell; the progress
  /// scenario proves the seq_cst store/load pair cannot lose the wakeup.
  mc::atomic<double> clock{0.0};
  /// Whether this thread holds a compute slot (owner thread only).
  bool holds_slot = false;
  // Pending recv match criteria while kBlockedRecv.
  int want_src = kAnySource;
  int want_tag = 0;
  double recv_deadline = kInf;  ///< timeout wake time while kBlockedRecv
  double block_start = 0.0;     ///< clock when the rank blocked (stall report)
  WakeReason wake_reason = WakeReason::kMessage;
  // Fault state.
  bool dead = false;
  double dead_at = kInf;
  double crash_at = kInf;  ///< attempt-local scheduled crash time
  /// Open commcheck barrier event awaiting on_barrier_complete.
  std::size_t barrier_event = static_cast<std::size_t>(-1);
  std::list<Message> mailbox;
  RankStats stats;

  [[nodiscard]] double now() const {
    return clock.load(std::memory_order_relaxed);
  }
  void set_now(double t) { clock.store(t, std::memory_order_relaxed); }
};

struct ClusterImpl {
  /// [mc:handshake][mc:recv-fastpath] the engine lock (`mu` in the models).
  mc::mutex mu;
  /// [mc:handshake] `sched_cv` in the models: parked-rank arrivals and
  /// horizon crossings wake the scheduler through it.
  mc::condvar sched_cv;
  bool abort = false;
  std::exception_ptr error;
  int barrier_waiting = 0;
  std::uint64_t barrier_epoch = 0;
  std::uint64_t next_msg_id = 0;  ///< FT transport sequence numbers
  /// Grant horizon the scheduler is currently blocked on: a computing rank
  /// whose clock crosses it must wake the scheduler (Dekker handshake with
  /// the lock-free Comm::compute path). kInf = scheduler not waiting on it.
  /// [mc:handshake] `threshold` in the models; the seeded bug weak-publish
  /// shows any order below seq_cst here is a lost wakeup.
  mc::atomic<double> sched_threshold{kInf};
  /// Bounded pool of compute-region slots (sized min(host_threads, ranks)).
  hostperf::ComputeSlots slots;
};

Cluster::Cluster(Config cfg)
    : impl_(std::make_unique<ClusterImpl>()),
      links_(cfg.ranks, cfg.network),
      host_threads_(hostperf::resolve_host_threads(cfg.host_threads)),
      injector_(cfg.fault),
      recorder_(cfg.recorder),
      cancel_(cfg.cancel) {
  BLADED_REQUIRE_MSG(cfg.ranks > 0, "cluster needs at least one rank");
  BLADED_REQUIRE_MSG(recorder_ == nullptr || recorder_->ranks() == cfg.ranks,
                     "commcheck recorder sized for " +
                         std::to_string(recorder_ ? recorder_->ranks() : 0) +
                         " ranks attached to a " + std::to_string(cfg.ranks) +
                         "-rank cluster");
  ranks_.reserve(cfg.ranks);
  for (int i = 0; i < cfg.ranks; ++i) ranks_.push_back(std::make_unique<Rank>());
}

Cluster::~Cluster() = default;

double Cluster::elapsed_seconds() const {
  double t = 0.0;
  for (const auto& r : ranks_) t = std::max(t, r->stats.finish_time);
  return t;
}

const RankStats& Cluster::stats(int rank) const {
  BLADED_REQUIRE(rank >= 0 && rank < ranks());
  return ranks_[rank]->stats;
}

std::vector<int> Cluster::failed_nodes() const {
  mc::lock_guard lk(impl_->mu);
  std::vector<int> out;
  for (int i = 0; i < ranks(); ++i) {
    if (ranks_[i]->dead) out.push_back(i);
  }
  return out;
}

bool Cluster::node_failed(int rank) const {
  BLADED_REQUIRE(rank >= 0 && rank < ranks());
  mc::lock_guard lk(impl_->mu);
  return ranks_[rank]->dead;
}

void Cluster::die(int r, double at) {
  Rank& me = *ranks_[r];
  me.dead = true;
  me.dead_at = at;
  me.set_now(std::max(me.now(), at));
  ++fault_stats_.crashes;
  fault_trace_.push_back(
      {at, fault::ExecutedFault::Action::kCrash, r, -1, 0});
  throw NodeCrash{};
}

void Cluster::apply_hang_and_crash(int r) {
  if (!injector_.enabled()) return;
  Rank& me = *ranks_[r];
  if (me.dead) throw NodeCrash{};
  const double resume = injector_.hang_end(r, me.now());
  if (resume > me.now()) {
    ++fault_stats_.hangs;
    fault_stats_.hang_seconds += resume - me.now();
    fault_trace_.push_back(
        {me.now(), fault::ExecutedFault::Action::kHang, r, -1, 0});
    me.stats.comm_seconds += resume - me.now();
    me.set_now(resume);
  }
  if (me.crash_at <= me.now()) die(r, me.crash_at);
}

void Cluster::abort_cancelled(int r) {
  ClusterImpl& eng = *impl_;
  Rank& me = *ranks_[r];
  // The caller may hold a compute slot; free it so draining peers that are
  // blocked in ComputeSlots::acquire can unwind too.
  if (me.holds_slot) {
    me.holds_slot = false;
    eng.slots.release();
  }
  mc::lock_guard lk(eng.mu);
  if (!eng.abort) {
    if (!eng.error) {
      eng.error = std::make_exception_ptr(CancelledError(
          "simnet: run cancelled (deadline expired or caller abandoned the "
          "request) at rank " + std::to_string(r) + ", t=" +
          std::to_string(me.now())));
    }
    eng.abort = true;
    eng.sched_cv.notify_all();
    for (auto& rk : ranks_) rk->cv.notify_all();
  }
  throw AbortSim{};
}

mc::unique_lock Cluster::enter_op(int r) {
  ClusterImpl& eng = *impl_;
  Rank& me = *ranks_[r];
  if (cancel_requested()) abort_cancelled(r);
  // [mc:slot-pool] Free the compute slot before parking: a slot holder must
  // never wait on a scheduler grant, or slot waiters could deadlock behind a
  // parked holder. The seeded bug hold-while-parked removes this release and
  // the checker wedges the pool.
  if (me.holds_slot) {
    me.holds_slot = false;
    eng.slots.release();
  }
  mc::unique_lock lk(eng.mu);
  me.state = State::kReady;
  eng.sched_cv.notify_one();
  me.cv.wait(lk, [&] { return me.state == State::kRunning || eng.abort; });
  if (eng.abort) throw AbortSim{};
  apply_hang_and_crash(r);
  return lk;
}

void Cluster::leave_op(int r, mc::unique_lock& lk) {
  ClusterImpl& eng = *impl_;
  Rank& me = *ranks_[r];
  me.state = State::kComputing;
  eng.sched_cv.notify_one();
  lk.unlock();
  // [mc:slot-pool] Re-acquire only after dropping the engine lock, so a slot
  // waiter never blocks the scheduler.
  eng.slots.acquire();
  me.holds_slot = true;
}

Cluster::Wake Cluster::next_wake(int i) const {
  const Rank& me = *ranks_[i];
  Wake w{kInf, WakeReason::kTimeout};
  const auto has_match = [&] {
    return std::any_of(me.mailbox.begin(), me.mailbox.end(),
                       [&](const Message& m) {
                         return (me.want_src == kAnySource ||
                                 m.src == me.want_src) &&
                                m.tag == me.want_tag;
                       });
  };
  if (me.state == State::kBlockedRecv) {
    if (me.recv_deadline < w.t) w = {me.recv_deadline, WakeReason::kTimeout};
    if (injector_.enabled()) {
      // Heartbeat failure detector: a recv that can only be satisfied by
      // dead peers fails `detect_latency` after the (latest) death.
      const double lat = injector_.policy().detect_latency();
      double failed_at = -1.0;
      if (me.want_src >= 0) {
        const Rank& p = *ranks_[me.want_src];
        if (p.dead) failed_at = p.dead_at;
      } else if (ranks_.size() > 1) {
        bool all_dead = true;
        for (std::size_t j = 0; j < ranks_.size(); ++j) {
          if (static_cast<int>(j) == i) continue;
          if (!ranks_[j]->dead) {
            all_dead = false;
            break;
          }
          failed_at = std::max(failed_at, ranks_[j]->dead_at);
        }
        if (!all_dead) failed_at = -1.0;
      }
      if (failed_at >= 0.0 && !has_match()) {
        const double t = std::max(me.now(), failed_at + lat);
        if (t < w.t) w = {t, WakeReason::kPeerFailure};
      }
    }
  }
  if ((me.state == State::kBlockedRecv ||
       me.state == State::kBlockedBarrier) &&
      me.crash_at < kInf && !me.dead) {
    const double t = std::max(me.now(), me.crash_at);
    if (t <= w.t) w = {t, WakeReason::kSelfCrash};
  }
  return w;
}

void Cluster::run(const std::function<void(Comm&)>& program) {
  ClusterImpl& eng = *impl_;
  const int n = ranks();
  // Reset per-run state so a Cluster can be reused.
  {
    mc::lock_guard lk(eng.mu);
    eng.abort = false;
    eng.error = nullptr;
    eng.barrier_waiting = 0;
    eng.next_msg_id = 0;
    eng.sched_threshold.store(kInf, std::memory_order_relaxed);
    eng.slots.reset(std::min(host_threads_, n));
    links_.reset();
    fault_stats_ = fault::FaultStats{};
    fault_trace_.clear();
    for (int i = 0; i < n; ++i) {
      Rank& r = *ranks_[i];
      r.state = State::kComputing;
      r.set_now(0.0);
      r.holds_slot = false;
      r.mailbox.clear();
      r.stats = RankStats{};
      r.recv_deadline = kInf;
      r.block_start = 0.0;
      r.wake_reason = WakeReason::kMessage;
      r.dead = false;
      r.dead_at = kInf;
      r.crash_at = injector_.crash_time(i);
      r.barrier_event = static_cast<std::size_t>(-1);
    }
  }

  for (int i = 0; i < n; ++i) {
    ranks_[i]->thread = std::thread([this, &eng, &program, i] {
      Rank& me = *ranks_[i];
      eng.slots.acquire();
      me.holds_slot = true;
      try {
        Comm comm(*this, i);
        program(comm);
      } catch (const AbortSim&) {
      } catch (const NodeCrash&) {
      } catch (...) {
        mc::lock_guard lk(eng.mu);
        if (!eng.error) eng.error = std::current_exception();
        eng.abort = true;
        for (auto& r : ranks_) r->cv.notify_all();
      }
      if (me.holds_slot) {
        me.holds_slot = false;
        eng.slots.release();
      }
      mc::lock_guard lk(eng.mu);
      me.state = State::kDone;
      me.stats.finish_time = me.now();
      eng.sched_cv.notify_one();
    });
  }

  // Scheduler: grant parked ranks one at a time in (virtual time, rank id)
  // order — but only once no still-computing rank could arrive at or before
  // the grant time — or fire the earliest pending wake deadline (recv
  // timeout, failure detection, scheduled crash) when it is strictly
  // earlier than every arrival.
  {
    mc::unique_lock lk(eng.mu);
    for (;;) {
      if (eng.abort) break;
      // Scheduler-side cancellation point: covers runs where every rank is
      // parked (nothing computing on the host) so no rank-side check fires.
      if (cancel_requested()) {
        if (!eng.error) {
          eng.error = std::make_exception_ptr(CancelledError(
              "simnet: run cancelled (deadline expired or caller abandoned "
              "the request)"));
        }
        eng.abort = true;
        break;
      }
      int ready = -1;
      bool all_done = true;
      int computing = 0;
      for (int i = 0; i < n; ++i) {
        const State s = ranks_[i]->state;
        if (s != State::kDone) all_done = false;
        if (s == State::kComputing) {
          ++computing;
        } else if (s == State::kReady &&
                   (ready == -1 || ranks_[i]->now() < ranks_[ready]->now())) {
          ready = i;
        }
      }
      if (all_done) break;

      int who = -1;
      Wake wake{kInf, WakeReason::kTimeout};
      for (int i = 0; i < n; ++i) {
        const State s = ranks_[i]->state;
        if (s != State::kBlockedRecv && s != State::kBlockedBarrier) continue;
        const Wake w = next_wake(i);
        if (w.t < wake.t) {
          wake = w;
          who = i;
        }
      }

      const double ready_t = ready != -1 ? ranks_[ready]->now() : kInf;
      const double horizon = std::min(ready_t, wake.t);

      if (computing > 0) {
        // [mc:handshake] Dekker handshake with the lock-free Comm::compute
        // path: publish the horizon, then re-read the computing clocks;
        // either a computing rank sees the horizon when it crosses it and
        // wakes us, or we see its advanced clock here. A rank at or below
        // the horizon could still arrive at an earlier (time, id) point, so
        // we must wait for it to arrive or compute past the horizon before
        // committing. Both sides must be seq_cst (W_threshold here, R_clock
        // below): the checker refutes weak-publish and weak-clock variants.
        eng.sched_threshold.store(horizon, std::memory_order_seq_cst);
        double min_lb = kInf;
        for (int i = 0; i < n; ++i) {
          if (ranks_[i]->state == State::kComputing) {
            min_lb = std::min(
                min_lb, ranks_[i]->clock.load(std::memory_order_seq_cst));
          }
        }
        if (min_lb <= horizon) {
          // [mc:handshake] Park with the horizon still published; the
          // no-recheck seeded bug (granting without re-reading the clocks
          // after this wait) breaks (time, id) grant order.
          eng.sched_cv.wait(lk);
          eng.sched_threshold.store(kInf, std::memory_order_seq_cst);
          continue;
        }
        eng.sched_threshold.store(kInf, std::memory_order_seq_cst);
      }

      if (ready != -1 && ready_t <= wake.t) {
        Rank& g = *ranks_[ready];
        g.state = State::kRunning;
        g.cv.notify_all();
        eng.sched_cv.wait(lk, [&] {
          return ranks_[ready]->state != State::kRunning || eng.abort;
        });
        continue;
      }
      if (who != -1) {
        Rank& w = *ranks_[who];
        w.set_now(std::max(w.now(), wake.t));
        w.wake_reason = wake.reason;
        w.state = State::kReady;
        continue;
      }

      // Stall: nobody can run and no deadline is pending. Report which
      // ranks are blocked on what instead of wedging the process.
      std::string msg = "simnet: no rank can make progress";
      std::vector<int> dead;
      char buf[160];
      for (int i = 0; i < n; ++i) {
        const Rank& rk = *ranks_[i];
        switch (rk.state) {
          case State::kBlockedRecv:
            if (rk.want_src == kAnySource) {
              std::snprintf(buf, sizeof buf,
                            "; rank %d blocked in recv(src=any, tag=%d) "
                            "since t=%.6g",
                            i, rk.want_tag, rk.block_start);
            } else {
              std::snprintf(buf, sizeof buf,
                            "; rank %d blocked in recv(src=%d, tag=%d) "
                            "since t=%.6g",
                            i, rk.want_src, rk.want_tag, rk.block_start);
            }
            msg += buf;
            break;
          case State::kBlockedBarrier:
            std::snprintf(buf, sizeof buf,
                          "; rank %d blocked in barrier since t=%.6g", i,
                          rk.block_start);
            msg += buf;
            break;
          case State::kDone:
            if (rk.dead) {
              dead.push_back(i);
              std::snprintf(buf, sizeof buf, "; rank %d crashed at t=%.6g",
                            i, rk.dead_at);
              msg += buf;
            }
            break;
          default:
            break;
        }
      }
      if (!eng.error) {
        if (!dead.empty()) {
          eng.error = std::make_exception_ptr(NodeFailureError(msg, dead));
        } else {
          eng.error = std::make_exception_ptr(SimulationError(msg));
        }
      }
      eng.abort = true;
      break;
    }
    if (eng.abort) {
      for (auto& r : ranks_) r->cv.notify_all();
    }
  }

  for (auto& r : ranks_) {
    if (r->thread.joinable()) r->thread.join();
  }
  if (impl_->error) {
    if (recorder_) recorder_->mark_aborted();
    std::rethrow_exception(impl_->error);
  }
}

double Cluster::op_now(int r) {
  // Owner read of the rank's own clock: other threads only write it while
  // this rank is parked, so no lock is needed.
  return ranks_[r]->now();
}

void Cluster::op_compute(int r, double seconds) {
  BLADED_REQUIRE(seconds >= 0.0);
  ClusterImpl& eng = *impl_;
  Rank& me = *ranks_[r];
  if (!injector_.enabled()) {
    // Cooperative cancellation point: compute-bound phases call
    // Comm::compute between kernels, so a cancelled run unwinds within one
    // kernel even when no communication is pending.
    if (cancel_requested()) abort_cancelled(r);
    // [mc:handshake] Lock-free fast path (the rank half of the Dekker
    // handshake): advancing our own clock inside a compute region needs no
    // engine transition — the seq_cst store keeps the scheduler's lower
    // bound live, and crossing a published grant horizon wakes it (the
    // notify is taken under the lock so the wakeup cannot be lost; the
    // weak-clock seeded bug relaxes the store and loses it).
    const double t = me.now() + seconds;
    me.clock.store(t, std::memory_order_seq_cst);
    me.stats.compute_seconds += seconds;
    if (t >= eng.sched_threshold.load(std::memory_order_seq_cst)) {
      mc::lock_guard lk(eng.mu);
      eng.sched_cv.notify_one();
    }
    return;
  }
  // With fault injection on, a hang or crash can fire here and must land in
  // the executed-fault trace in deterministic order: take the full grant.
  auto lk = enter_op(r);
  if (me.crash_at < me.now() + seconds) {
    // Dies mid-computation, at virtual-time precision.
    me.stats.compute_seconds += std::max(0.0, me.crash_at - me.now());
    die(r, me.crash_at);
  }
  me.set_now(me.now() + seconds);
  me.stats.compute_seconds += seconds;
  leave_op(r, lk);
}

void Cluster::deliver(int src, int dst, int tag, Payload payload,
                      double available_at, std::size_t send_event) {
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.available_at = available_at;
  msg.send_event = send_event;
  msg.payload = std::move(payload);

  Rank& peer = *ranks_[dst];
  const bool matches =
      peer.state == State::kBlockedRecv &&
      (peer.want_src == kAnySource || peer.want_src == src) &&
      peer.want_tag == tag && available_at <= peer.recv_deadline;
  peer.mailbox.push_back(std::move(msg));
  if (matches) {
    peer.wake_reason = WakeReason::kMessage;
    peer.state = State::kReady;
  }
}

void Cluster::ft_send(int r, int dst, int tag, Payload payload,
                      double depart, std::size_t send_event) {
  using Action = fault::ExecutedFault::Action;
  const fault::TransportPolicy& pol = injector_.policy();
  const std::uint64_t id = impl_->next_msg_id++;
  const std::uint32_t crc = fault::crc32_of(payload.bytes());
  const double dst_crash = injector_.crash_time(dst);
  const std::size_t wire_bytes = payload.size() + pol.frame_bytes;

  double t = depart;
  for (int attempt = 0; attempt < pol.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++fault_stats_.retransmits;
      fault_trace_.push_back({t, Action::kRetransmit, r, dst, attempt});
    }
    const fault::FaultInjector::XmitFate fate =
        injector_.xmit(r, dst, t, id, attempt);
    double available = links_.schedule(r, dst, wire_bytes, t);
    if (fate.extra_delay > 0.0) {
      ++fault_stats_.delays;
      fault_stats_.delay_seconds += fate.extra_delay;
      fault_trace_.push_back({t, Action::kDelay, r, dst, attempt});
      available += fate.extra_delay;
    }
    if (fate.dropped || available >= dst_crash) {
      // Lost on the link (or swallowed by a dead NIC): the retransmission
      // timer fires rto * backoff^attempt after this departure.
      ++fault_stats_.drops;
      fault_trace_.push_back({t, Action::kDrop, r, dst, attempt});
      t += pol.retry_delay(attempt);
      continue;
    }
    if (fate.corrupted) {
      // Damage a private copy: the payload's bytes may be shared with other
      // holders (a collective forwarding the block it received).
      const std::span<const std::byte> intact = payload.bytes();
      std::vector<std::byte> damaged(intact.begin(), intact.end());
      injector_.corrupt_payload(damaged, id, attempt);
      ++fault_stats_.corruptions;
      if (fault::crc32_of(damaged) != crc) {
        // Receiver transport catches the flip via the CRC32 frame, nacks;
        // sender retransmits after the control frame's round trip.
        ++fault_stats_.crc_rejects;
        fault_trace_.push_back({available, Action::kCorrupt, r, dst, attempt});
        t = available + links_.model().latency +
            links_.model().wire_time(pol.frame_bytes);
        continue;
      }
      // CRC collision (astronomically unlikely): delivered damaged.
      deliver(r, dst, tag, Payload::copy_of(damaged), available, send_event);
      return;
    }
    deliver(r, dst, tag, std::move(payload), available, send_event);
    return;
  }
  ++fault_stats_.messages_lost;
  fault_trace_.push_back({t, Action::kLost, r, dst, pol.max_attempts});
}

void Cluster::op_send(int r, int dst, int tag, Payload payload) {
  BLADED_REQUIRE_MSG(dst >= 0 && dst < ranks(),
                     "Comm::send destination rank " + std::to_string(dst) +
                         " out of range [0," + std::to_string(ranks()) + ")");
  // The arrival *is* the pre-commit yield of the serial engine: any rank
  // with a smaller (time, id) performs its network actions before we commit
  // link occupancy, keeping the shared LinkTimeline in deterministic order.
  auto lk = enter_op(r);
  Rank& me = *ranks_[r];

  const NetworkModel& net = links_.model();
  me.stats.bytes_sent += payload.size();
  ++me.stats.messages_sent;
  const std::size_t send_event =
      recorder_ ? recorder_->on_send(r, dst, tag, payload.size(), me.now())
                : static_cast<std::size_t>(-1);

  if (dst == r) {
    // Loopback: no network involved; available immediately.
    Message msg;
    msg.src = r;
    msg.tag = tag;
    msg.available_at = me.now();
    msg.send_event = send_event;
    msg.payload = std::move(payload);
    me.mailbox.push_back(std::move(msg));
    leave_op(r, lk);
    return;
  }

  const double depart = me.now() + net.send_overhead;
  me.set_now(depart);
  me.stats.comm_seconds += net.send_overhead;

  if (injector_.enabled()) {
    ft_send(r, dst, tag, std::move(payload), depart, send_event);
    leave_op(r, lk);
    return;
  }
  const double available = links_.schedule(r, dst, payload.size(), depart);
  deliver(r, dst, tag, std::move(payload), available, send_event);
  leave_op(r, lk);
}

std::optional<Payload> Cluster::op_recv(
    int r, int src, int tag, double timeout, bool timeout_throws,
    std::uint64_t elem_bytes, std::uint64_t elems) {
  BLADED_REQUIRE_MSG(
      src == kAnySource || (src >= 0 && src < ranks()),
      "Comm::recv source rank " + std::to_string(src) + " out of range");
  ClusterImpl& eng = *impl_;
  Rank& me = *ranks_[r];

  // [mc:recv-fastpath] Fast path (no fault injection): scan the mailbox
  // without a grant, but under the engine lock — the plain-mailbox seeded
  // bug drops the lock and the checker flags the scan/deliver data race.
  // Committed messages are always a prefix of the deterministic grant
  // sequence, so if a match is present now it is the same first-in-append-
  // order match every schedule sees; consuming it touches only this rank's
  // state. With the injector on, ops take the full grant so hang/crash
  // effects stay in trace order.
  const bool fast = !injector_.enabled();
  mc::unique_lock lk;
  if (fast) {
    lk = mc::unique_lock(eng.mu);
    if (eng.abort) throw AbortSim{};
  } else {
    lk = enter_op(r);
  }
  bool granted = !fast;  // parked through enter_op / a blocked wake

  double effective = timeout;
  if (effective < 0.0) {
    effective = injector_.enabled() ? injector_.policy().recv_timeout : 0.0;
  }
  const double deadline = effective > 0.0 ? me.now() + effective : kInf;
  const double block_start = me.now();
  const std::size_t recv_event =
      recorder_
          ? recorder_->on_recv_post(r, src, tag, elem_bytes, elems, me.now())
          : static_cast<std::size_t>(-1);

  // Leave the op from whichever mode we are in: a granted rank hands back
  // to the scheduler; a fast-path rank just drops the lock (it still holds
  // its compute slot and never left kComputing).
  const auto finish = [&] {
    if (granted) {
      leave_op(r, lk);
    } else {
      lk.unlock();
    }
  };

  for (;;) {
    auto it = std::find_if(me.mailbox.begin(), me.mailbox.end(),
                           [&](const Message& m) {
                             return (src == kAnySource || m.src == src) &&
                                    m.tag == tag &&
                                    m.available_at <= deadline;
                           });
    if (it != me.mailbox.end()) {
      if (it->available_at > me.now()) {
        me.stats.comm_seconds += it->available_at - me.now();
        me.set_now(it->available_at);
      }
      const double o = links_.model().recv_overhead;
      if (injector_.enabled() && me.crash_at <= me.now() + o) {
        die(r, me.crash_at);
      }
      me.set_now(me.now() + o);
      me.stats.comm_seconds += o;
      Payload payload = std::move(it->payload);
      if (recorder_) {
        recorder_->on_recv_match(r, recv_event, it->src, it->send_event,
                                 payload.size(), me.now());
      }
      me.mailbox.erase(it);
      finish();
      return payload;
    }
    if (!granted) {
      // About to park: free the compute slot first (see enter_op).
      me.holds_slot = false;
      eng.slots.release();
      granted = true;
    }
    me.want_src = src;
    me.want_tag = tag;
    me.recv_deadline = deadline;
    me.block_start = me.now();
    me.state = State::kBlockedRecv;
    eng.sched_cv.notify_one();
    me.cv.wait(lk, [&] { return me.state == State::kRunning || eng.abort; });
    if (eng.abort) throw AbortSim{};
    me.recv_deadline = kInf;
    switch (me.wake_reason) {
      case WakeReason::kMessage:
        break;  // rescan the mailbox
      case WakeReason::kTimeout: {
        me.stats.comm_seconds += me.now() - block_start;
        if (recorder_) recorder_->on_recv_timeout(r, recv_event, me.now());
        if (!timeout_throws) {
          finish();
          return std::nullopt;
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "Comm::recv timeout: rank %d waited %.6gs for src=%s "
                      "tag=%d",
                      r, me.now() - block_start,
                      src == kAnySource ? "any" : std::to_string(src).c_str(),
                      tag);
        RecvTimeoutError err(buf, r, src, tag, me.now() - block_start);
        finish();
        throw err;
      }
      case WakeReason::kPeerFailure: {
        me.stats.comm_seconds += me.now() - block_start;
        double failed_at = 0.0;
        for (const auto& p : ranks_) {
          if (p->dead) failed_at = std::max(failed_at, p->dead_at);
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "Comm::recv peer failure: rank %d waiting on src=%s "
                      "tag=%d, peer declared dead (failed at t=%.6g)",
                      r, src == kAnySource ? "any" : std::to_string(src).c_str(),
                      tag, failed_at);
        PeerFailureError err(buf, r, src, failed_at);
        finish();
        throw err;
      }
      case WakeReason::kSelfCrash:
        die(r, me.crash_at);
    }
  }
}

void Cluster::op_barrier(int r) {
  ClusterImpl& eng = *impl_;
  auto lk = enter_op(r);
  Rank& me = *ranks_[r];
  const int n = ranks();
  if (recorder_) {
    me.barrier_event = recorder_->on_collective_begin(
        r, commcheck::CollectiveKind::kBarrier, /*root=*/-1, /*elems=*/0,
        me.now());
  }

  ++eng.barrier_waiting;
  if (eng.barrier_waiting < n) {
    const std::uint64_t epoch = eng.barrier_epoch;
    me.block_start = me.now();
    me.state = State::kBlockedBarrier;
    eng.sched_cv.notify_one();
    me.cv.wait(lk, [&] {
      return eng.abort ||
             (me.state == State::kRunning &&
              me.wake_reason == WakeReason::kSelfCrash) ||
             eng.barrier_epoch != epoch;
    });
    if (eng.abort) throw AbortSim{};
    if (me.state == State::kRunning &&
        me.wake_reason == WakeReason::kSelfCrash) {
      --eng.barrier_waiting;
      die(r, me.crash_at);
    }
    // Barrier completed: the last arriver advanced our clock and set us back
    // to kComputing before notifying, so just reclaim a compute slot.
    lk.unlock();
    eng.slots.acquire();
    me.holds_slot = true;
    return;
  }

  // Last arriver completes the barrier: dissemination-barrier cost model,
  // ceil(log2 n) rounds of short messages.
  const NetworkModel& net = links_.model();
  const double rounds = n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 0.0;
  const double cost =
      rounds * (net.latency + net.send_overhead + net.recv_overhead +
                2.0 * net.wire_time(8));
  double t = 0.0;
  for (const auto& rank : ranks_) t = std::max(t, rank->now());
  t += cost;
  for (const auto& rank : ranks_) {
    if (t > rank->now()) {
      rank->stats.comm_seconds += t - rank->now();
      rank->set_now(t);
    }
  }
  eng.barrier_waiting = 0;
  ++eng.barrier_epoch;
  if (recorder_) {
    // Everyone who entered this barrier epoch synchronizes: join clocks.
    std::vector<std::pair<int, std::size_t>> participants;
    participants.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (ranks_[i]->barrier_event != static_cast<std::size_t>(-1)) {
        participants.emplace_back(i, ranks_[i]->barrier_event);
        ranks_[i]->barrier_event = static_cast<std::size_t>(-1);
      }
    }
    recorder_->on_barrier_complete(participants, t);
  }
  for (const auto& rank : ranks_) {
    if (rank->state == State::kBlockedBarrier) {
      rank->wake_reason = WakeReason::kMessage;
      rank->state = State::kComputing;
      rank->cv.notify_all();
    }
  }
  leave_op(r, lk);
}

void Cluster::op_collective_begin(int r, commcheck::CollectiveKind kind,
                                  int root, std::uint64_t elems) {
  // Scope markers run inside the compute region: no engine transition, no
  // engine lock. The recorder's per-rank mutex orders the append against
  // cross-rank readers (recv-match clock joins, barrier completion).
  recorder_->on_collective_begin(r, kind, root, elems, ranks_[r]->now());
}

void Cluster::op_collective_end(int r) {
  recorder_->on_collective_end(r, ranks_[r]->now());
}

}  // namespace bladed::simnet
