#include "mc/protocols.hpp"

#include <limits>
#include <memory>
#include <utility>

namespace bladed::mc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::memory_order publish_order(Bug b) {
  return b == Bug::kWeakPublish ? std::memory_order_relaxed
                                : std::memory_order_seq_cst;
}

std::memory_order clock_order(Bug b) {
  return b == Bug::kWeakClock ? std::memory_order_relaxed
                              : std::memory_order_seq_cst;
}

// --- the dispatch routine shared by the handshake and slot-pool models -----
//
// Mirrors Cluster::dispatch_locked() [mc:handshake]: there is no scheduler
// actor. Every rank thread that changes engine state — arrives, leaves,
// exits or computes past the published horizon — takes the grant decision
// itself under `mu`. Each model fixes the (time, id) order its grants must
// follow; dispatch checks every grant against it and checks that no two
// ranks are ever granted at once. A decision lost by a broken variant
// leaves some rank parked forever, which the executor reports.

enum RankState : int { kComputing = 0, kReady = 1, kRunning = 2, kDone = 3 };

struct DispatchState {
  checked_atomic<double> threshold{kInf};
  checked_mutex mu;
  std::vector<std::unique_ptr<checked_atomic<double>>> clock;
  std::vector<std::unique_ptr<checked_condvar>> cv;
  std::vector<std::unique_ptr<var<int>>> state;   // RankState, guarded by mu
  std::vector<std::unique_ptr<var<double>>> rtime;  // arrival time
  var<int> grants{0};
  std::vector<int> expected;  // grant order, fixed by the scenario
  Bug bug = Bug::kNone;

  DispatchState(int ranks, Bug b) : bug(b) {
    for (int i = 0; i < ranks; ++i) {
      clock.push_back(std::make_unique<checked_atomic<double>>(0.0));
      cv.push_back(std::make_unique<checked_condvar>());
      state.push_back(std::make_unique<var<int>>(kComputing));
      rtime.push_back(std::make_unique<var<double>>(0.0));
    }
  }
  [[nodiscard]] int ranks() const { return static_cast<int>(clock.size()); }
  checked_atomic<double>& clk(int i) {
    return *clock[static_cast<std::size_t>(i)];
  }
  var<int>& st(int i) { return *state[static_cast<std::size_t>(i)]; }

  // Cluster::dispatch_locked (mu held). The models have no wake deadlines,
  // so one pass decides.
  void dispatch() {
    int best = -1;
    double horizon = kInf;
    bool running = false;
    unsigned computing = 0;
    for (int i = 0; i < ranks(); ++i) {
      const int s = st(i).read();
      if (s == kRunning) {
        // BUG double-grant: decides as if no rank were running.
        if (bug != Bug::kDoubleGrant) return;
        running = true;
      } else if (s == kReady) {
        const double t = rtime[static_cast<std::size_t>(i)]->read();
        if (t < horizon) {
          horizon = t;
          best = i;
        }
      } else if (s == kComputing) {
        computing |= 1u << i;
      }
    }
    if (computing != 0) {
      threshold.store(horizon, publish_order(bug));
      // BUG no-recheck: grants without re-reading the computing clocks.
      if (bug != Bug::kNoRecheck) {
        double min_lb = kInf;
        for (int i = 0; i < ranks(); ++i) {
          if ((computing & (1u << i)) != 0) {
            min_lb = std::min(min_lb, clk(i).load(std::memory_order_seq_cst));
          }
        }
        // BUG strict-compare: a tie at the horizon is not held back.
        const bool hold = bug == Bug::kStrictCompare ? min_lb < horizon
                                                     : min_lb <= horizon;
        if (hold) return;  // horizon stays published
      }
    }
    threshold.store(kInf, std::memory_order_seq_cst);
    if (best < 0) return;
    model_check(!running, "two ranks granted at once");
    const int g = grants.read();
    model_check(g < static_cast<int>(expected.size()) &&
                    best == expected[static_cast<std::size_t>(g)],
                "grant does not match (time, id) arrival order");
    grants.write(g + 1);
    st(best).write(kRunning);
    cv[static_cast<std::size_t>(best)]->notify_one();
  }

  // Comm::compute fast path: store the clock; crossing a published horizon
  // dispatches under mu.
  void compute(int i, double t) {
    clk(i).store(t, clock_order(bug));
    const double th = threshold.load(std::memory_order_seq_cst);
    // BUG no-crossing-notify: the crossing never dispatches.
    if (bug != Bug::kNoCrossingNotify && t >= th) {
      std::unique_lock<checked_mutex> lk(mu);
      dispatch();
    }
  }

  // enter_op: park as ready at `t`, dispatch, sleep until granted.
  void arrive(int i, double t) {
    std::unique_lock<checked_mutex> lk(mu);
    st(i).write(kReady);
    rtime[static_cast<std::size_t>(i)]->write(t);
    dispatch();
    wait_granted(i, lk);
  }
  void wait_granted(int i, std::unique_lock<checked_mutex>& lk) {
    while (st(i).read() != kRunning) cv[static_cast<std::size_t>(i)]->wait(lk);
  }

  // leave_op (to kComputing) or the rank's exit (to kDone): dispatch.
  void leave(int i, int next) {
    std::unique_lock<checked_mutex> lk(mu);
    st(i).write(next);
    dispatch();
  }
};

// --- handshake-order --------------------------------------------------------
//
// Rank 0 computes toward t=10 while ranks 1..n-1 arrive at t=10 (a tie with
// rank 0), 11, 12, ...: every arrival dispatches, and the Dekker publish /
// re-check must hold each grant until rank 0 has arrived, or the tie is
// granted out of (time, id) order. Each granted rank leaves and exits, so
// its exit dispatches the next grant.

Model make_handshake_order(Bug bug, int ranks) {
  Model m;
  m.name = "handshake-order";
  for (int i = 0; i < ranks; ++i) {
    m.actor_names.push_back("rank" + std::to_string(i));
  }
  m.make = [bug, ranks](Executor&) {
    auto st = std::make_shared<DispatchState>(ranks, bug);
    for (int i = 0; i < ranks; ++i) st->expected.push_back(i);
    std::vector<Executor::ThreadFn> fns;
    fns.push_back([st] {
      st->compute(0, 10.0);
      st->arrive(0, 10.0);
      st->leave(0, kDone);
    });
    for (int i = 1; i < ranks; ++i) {
      const double t = 10.0 + (i - 1);
      st->clk(i).store(t, std::memory_order_seq_cst);
      fns.push_back([st, i, t] {
        st->arrive(i, t);
        st->leave(i, kDone);
      });
    }
    return fns;
  };
  return m;
}

// --- handshake-progress -----------------------------------------------------
//
// The liveness half of the Dekker pair [mc:handshake]: a rank parked at
// t=10 dispatches and is held back by the computing ranks' clocks. The
// computing ranks cross 15 and then *diverge* (exit while logically still
// computing — standing in for unbounded host work between engine calls), so
// a crossing's dispatch is the only thing that can ever grant the parked
// rank: any interleaving that loses it is a deadlock.

Model make_handshake_progress(Bug bug, int ranks) {
  const int computing = ranks > 1 ? ranks - 1 : 1;
  Model m;
  m.name = "handshake-progress";
  m.actor_names = {"parked"};
  for (int i = 0; i < computing; ++i) {
    m.actor_names.push_back("rank" + std::to_string(i));
  }
  m.make = [bug, computing](Executor&) {
    // Rank `computing` is the parked one; ranks 0..computing-1 compute.
    auto st = std::make_shared<DispatchState>(computing + 1, bug);
    st->expected = {computing};
    st->clk(computing).store(10.0, std::memory_order_seq_cst);
    std::vector<Executor::ThreadFn> fns;
    fns.push_back([st, computing] {
      st->arrive(computing, 10.0);
      st->leave(computing, kDone);
    });
    for (int i = 0; i < computing; ++i) {
      fns.push_back([st, i] { st->compute(i, 15.0); });
    }
    return fns;
  };
  return m;
}

// --- handshake-race ---------------------------------------------------------
//
// Two threads race to dispatch the same grant [mc:handshake]. Rank 0 was
// granted at t=12 and leaves its op at t=14; rank 1 computes from 12.5 past
// every horizon to t=40 (then diverges); rank 2 arrives at t=13 while rank 0
// is still granted. The leaving rank's dispatch and rank 1's crossing race:
// either the leaver sees rank 1's crossed clock or rank 1 sees the horizon
// the leaver published — never neither (a lost grant). An arrival while a
// rank is granted must not grant a second one (the double-grant seeded bug
// does). Rank 0 then computes to t=30 and arrives there, so the grants go
// to rank 2 and then rank 0, one at a time.

Model make_handshake_race(Bug bug) {
  Model m;
  m.name = "handshake-race";
  m.actor_names = {"leaver", "crosser", "arriver"};
  m.make = [bug](Executor&) {
    auto st = std::make_shared<DispatchState>(3, bug);
    st->expected = {2, 0};
    st->st(0).write(kRunning);
    st->clk(0).store(14.0, std::memory_order_seq_cst);
    st->clk(1).store(12.5, std::memory_order_seq_cst);
    st->clk(2).store(13.0, std::memory_order_seq_cst);
    std::vector<Executor::ThreadFn> fns;
    fns.push_back([st] {
      st->leave(0, kComputing);
      st->compute(0, 30.0);
      st->arrive(0, 30.0);
      st->leave(0, kDone);
    });
    fns.push_back([st] { st->compute(1, 40.0); });
    fns.push_back([st] {
      st->arrive(2, 13.0);
      st->leave(2, kDone);
    });
    return fns;
  };
  return m;
}

// --- recv-fastpath ----------------------------------------------------------
//
// Comm::recv's mailbox fast path [mc:recv-fastpath]: the receiver scans the
// mailbox and, on a miss, parks — both under ONE hold of eng.mu, which is
// what makes the sender's deliver-then-notify (also under eng.mu) impossible
// to lose. The mailbox itself is plain data; the lock discipline is proved
// by the race detector, not assumed.

struct RecvState {
  checked_mutex mu;
  checked_condvar cv;
  var<int> mailbox{0};
};

Model make_recv_fastpath(Bug bug, int ranks) {
  const int senders = ranks > 1 ? ranks - 1 : 1;
  Model m;
  m.name = "recv-fastpath";
  m.actor_names = {"recv"};
  for (int i = 0; i < senders; ++i) {
    m.actor_names.push_back("send" + std::to_string(i));
  }
  m.make = [bug, senders](Executor&) {
    auto st = std::make_shared<RecvState>();

    std::vector<Executor::ThreadFn> fns;
    fns.push_back([st, bug, senders] {
      int consumed = 0;
      while (consumed < senders) {
        if (bug == Bug::kPlainMailbox) {
          // BUG: peeks at the mailbox without eng.mu — races the sender.
          (void)st->mailbox.read();
        }
        std::unique_lock<checked_mutex> lk(st->mu);
        if (bug == Bug::kRecheckGap) {
          if (st->mailbox.read() == 0) {
            // BUG: drops the lock between the scan and the park; a delivery
            // in the window notifies nobody and the wakeup is lost.
            lk.unlock();
            lk.lock();
            st->cv.wait(lk);
          }
        } else {
          while (st->mailbox.read() == 0) st->cv.wait(lk);
        }
        st->mailbox.write(st->mailbox.read() - 1);
        ++consumed;
      }
      model_check(st->mailbox.read() >= 0, "mailbox count went negative");
    });
    for (int i = 0; i < senders; ++i) {
      fns.push_back([st] {
        std::unique_lock<checked_mutex> lk(st->mu);
        st->mailbox.write(st->mailbox.read() + 1);
        st->cv.notify_one();
      });
    }
    return fns;
  };
  return m;
}

// --- slot-pool --------------------------------------------------------------
//
// hostperf::ComputeSlots composed with the grant half of the handshake
// [mc:slot-pool]: rank i acquires a slot, computes to T_i = 5*(i+1),
// RELEASES THE SLOT BEFORE PARKING for its grant, arrives and dispatches;
// grants go strictly in (time, id) order, held back by the computing ranks'
// clock lower bounds (a slot-blocked rank counts as computing with a stale
// clock, which is exactly why a parked slot-holder deadlocks the pool), and
// each granted rank exits through a dispatch that grants the next. An
// `active` counter proves at most `slots` ranks compute at once. The
// crossing half of the Dekker pair is proved separately and exhaustively by
// the handshake models; folding it in here multiplies the interleaving
// space by orders of magnitude without adding a behavior those models do
// not already cover, so the compute segment only stores its clock (every
// rank arrives, and every arrival dispatches).

struct SlotState {
  // hostperf::ComputeSlots
  checked_mutex smu;
  checked_condvar scv;
  var<int> free{0};
  var<int> active{0};
  DispatchState engine;

  SlotState(int ranks, Bug bug) : engine(ranks, bug) {}
};

Model make_slot_pool(Bug bug, int ranks, int slots) {
  Model m;
  m.name = "slot-pool";
  for (int i = 0; i < ranks; ++i) {
    m.actor_names.push_back("rank" + std::to_string(i));
  }
  m.make = [bug, ranks, slots](Executor&) {
    auto st = std::make_shared<SlotState>(ranks, bug);
    st->free.write(slots);
    for (int i = 0; i < ranks; ++i) st->engine.expected.push_back(i);

    const auto release_slot = [st, bug] {
      std::unique_lock<checked_mutex> slk(st->smu);
      st->free.write(st->free.read() + 1);
      if (bug != Bug::kLostRelease) st->scv.notify_one();
    };

    std::vector<Executor::ThreadFn> fns;
    for (int i = 0; i < ranks; ++i) {
      fns.push_back([st, bug, i, slots, release_slot] {
        const double t_i = 5.0 * (i + 1);
        // ComputeSlots::acquire [mc:slot-pool].
        {
          std::unique_lock<checked_mutex> slk(st->smu);
          int f;
          while ((f = st->free.read()) == 0) st->scv.wait(slk);
          st->free.write(f - 1);
          const int a = st->active.read() + 1;
          st->active.write(a);
          model_check(a <= slots, "more ranks computing than compute slots");
        }
        if (bug == Bug::kEarlyRelease) release_slot();  // BUG
        // Compute segment: publish the clock lower bound the dispatch's
        // re-check reads.
        st->engine.clk(i).store(t_i, std::memory_order_seq_cst);
        // enter_op [mc:slot-pool]: leave the compute segment and release the
        // slot BEFORE parking, so the pool keeps flowing while this rank
        // waits for its grant (one smu section — it is one in hostperf too).
        {
          std::unique_lock<checked_mutex> slk(st->smu);
          st->active.write(st->active.read() - 1);
          if (bug != Bug::kEarlyRelease && bug != Bug::kHoldWhileParked) {
            st->free.write(st->free.read() + 1);
            if (bug != Bug::kLostRelease) st->scv.notify_one();
          }
        }
        st->engine.arrive(i, t_i);
        st->engine.leave(i, kDone);
        if (bug == Bug::kHoldWhileParked) release_slot();  // BUG: too late
      });
    }
    return fns;
  };
  return m;
}

}  // namespace

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kHandshake: return "handshake";
    case Protocol::kRecvFastpath: return "recv-fastpath";
    case Protocol::kSlotPool: return "slot-pool";
  }
  return "?";
}

const char* bug_name(Bug b) {
  switch (b) {
    case Bug::kNone: return "none";
    case Bug::kWeakPublish: return "weak-publish";
    case Bug::kWeakClock: return "weak-clock";
    case Bug::kNoRecheck: return "no-recheck";
    case Bug::kStrictCompare: return "strict-compare";
    case Bug::kNoCrossingNotify: return "no-crossing-notify";
    case Bug::kRecheckGap: return "recheck-gap";
    case Bug::kPlainMailbox: return "plain-mailbox";
    case Bug::kEarlyRelease: return "early-release";
    case Bug::kHoldWhileParked: return "hold-while-parked";
    case Bug::kLostRelease: return "lost-release";
    case Bug::kDoubleGrant: return "double-grant";
  }
  return "?";
}

bool parse_protocol(const std::string& s, Protocol* out) {
  for (const Protocol p : {Protocol::kHandshake, Protocol::kRecvFastpath,
                           Protocol::kSlotPool}) {
    if (s == protocol_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

bool parse_bug(const std::string& s, Bug* out) {
  for (const Bug b :
       {Bug::kNone, Bug::kWeakPublish, Bug::kWeakClock, Bug::kNoRecheck,
        Bug::kStrictCompare, Bug::kNoCrossingNotify, Bug::kRecheckGap,
        Bug::kPlainMailbox, Bug::kEarlyRelease, Bug::kHoldWhileParked,
        Bug::kLostRelease, Bug::kDoubleGrant}) {
    if (s == bug_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

std::vector<Model> build_models(const ModelConfig& cfg) {
  switch (cfg.protocol) {
    case Protocol::kHandshake:
      return {make_handshake_order(cfg.bug, cfg.ranks),
              make_handshake_progress(cfg.bug, cfg.ranks),
              make_handshake_race(cfg.bug)};
    case Protocol::kRecvFastpath:
      return {make_recv_fastpath(cfg.bug, cfg.ranks)};
    case Protocol::kSlotPool:
      return {make_slot_pool(cfg.bug, cfg.ranks, cfg.slots)};
  }
  return {};
}

const std::vector<SeededBug>& seeded_bug_corpus() {
  static const std::vector<SeededBug> kCorpus = {
      {Bug::kWeakPublish, Protocol::kHandshake, "handshake/weak-publish",
       "sched_threshold published relaxed: the store parks in the "
       "dispatcher's buffer and the crossing rank reads a stale threshold"},
      {Bug::kWeakClock, Protocol::kHandshake, "handshake/weak-clock",
       "rank clock stored relaxed: the dispatch's re-check reads a stale "
       "clock and holds the grant with the crossing already spent"},
      {Bug::kNoRecheck, Protocol::kHandshake, "handshake/no-recheck",
       "no clock re-read after publishing: grants race the computing rank"},
      {Bug::kStrictCompare, Protocol::kHandshake, "handshake/strict-compare",
       "min_lb < horizon instead of <=: a tie at the horizon is granted to "
       "the wrong rank"},
      {Bug::kNoCrossingNotify, Protocol::kHandshake,
       "handshake/no-crossing-notify",
       "compute fast path never dispatches: a grant held back on a "
       "computing clock is lost when that rank crosses the threshold"},
      {Bug::kDoubleGrant, Protocol::kHandshake, "handshake/double-grant",
       "dispatch ignores a rank that is already kRunning: a second rank is "
       "granted while the first is still inside its op"},
      {Bug::kRecheckGap, Protocol::kRecvFastpath, "recv-fastpath/recheck-gap",
       "lock dropped between mailbox scan and park: a delivery in the "
       "window is lost"},
      {Bug::kPlainMailbox, Protocol::kRecvFastpath,
       "recv-fastpath/plain-mailbox",
       "mailbox scanned without eng.mu: data race with the sender"},
      {Bug::kEarlyRelease, Protocol::kSlotPool, "slot-pool/early-release",
       "slot released before the compute segment: more ranks compute than "
       "slots allow"},
      {Bug::kHoldWhileParked, Protocol::kSlotPool,
       "slot-pool/hold-while-parked",
       "rank parks for its grant still holding the slot: the pool wedges"},
      {Bug::kLostRelease, Protocol::kSlotPool, "slot-pool/lost-release",
       "slot release skips the notify: a parked acquirer never rechecks"},
  };
  return kCorpus;
}

}  // namespace bladed::mc
