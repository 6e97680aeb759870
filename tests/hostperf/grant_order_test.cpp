/// Grant-order golden test for the simnet engine. Every place a grant can be
/// decided — a deliver that readies a blocked receive, a receive-timeout
/// wake, a kAnySource match, the barrier's last arriver, a rank exiting
/// under blocked peers, cancellation with every rank parked, and a stall
/// noticed on a rank thread — runs at host_threads 1, 2, 3 and 8 with more
/// and with fewer ranks than threads. Commcheck traces must match the
/// 1-thread run byte for byte, RankStats must match as hexfloats, and both
/// must match pinned digests, so any change to how grants are handed out
/// that moves a single match or timing fails here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "commcheck/recorder.hpp"
#include "common/error.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"

namespace {

using namespace bladed;
using simnet::Comm;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

void hex(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%a;", name, v);
  out += buf;
}

struct Outcome {
  std::string trace;  ///< commcheck canonical bytes
  std::string stats;  ///< RankStats as hexfloats, totals, and the error
};

using Program = std::function<void(Comm&, std::atomic<bool>& cancel)>;

Outcome run_case(const Program& program, int ranks, int host_threads) {
  commcheck::Recorder recorder(ranks);
  std::atomic<bool> cancel{false};
  simnet::Cluster::Config cfg;
  cfg.ranks = ranks;
  cfg.host_threads = host_threads;
  cfg.recorder = &recorder;
  cfg.cancel = &cancel;
  simnet::Cluster cluster(cfg);
  Outcome out;
  try {
    cluster.run([&](Comm& comm) { program(comm, cancel); });
    out.stats = "ok;";
  } catch (const CancelledError& e) {
    out.stats = std::string("cancelled:") + e.what() + ";";
  } catch (const SimulationError& e) {
    out.stats = std::string("stall:") + e.what() + ";";
  }
  for (int r = 0; r < ranks; ++r) {
    const simnet::RankStats& s = cluster.stats(r);
    out.stats += "rank" + std::to_string(r) + ":";
    hex(out.stats, "compute", s.compute_seconds);
    hex(out.stats, "comm", s.comm_seconds);
    hex(out.stats, "finish", s.finish_time);
    out.stats += "bytes=" + std::to_string(s.bytes_sent) +
                 ";msgs=" + std::to_string(s.messages_sent) + ";";
  }
  hex(out.stats, "elapsed", cluster.elapsed_seconds());
  out.stats += "total_bytes=" + std::to_string(cluster.total_bytes()) +
               ";total_msgs=" + std::to_string(cluster.total_messages()) + ";";
  out.trace = recorder.trace().canonical_bytes();
  return out;
}

/// Pinned digests of one case at 2 and at 5 ranks: {trace, stats} each.
struct Pins {
  std::uint64_t trace2, stats2, trace5, stats5;
};

void check_case(const char* name, const Program& program, const Pins& pins) {
  for (const int ranks : {2, 5}) {
    const Outcome serial = run_case(program, ranks, 1);
    const std::uint64_t want_trace = ranks == 2 ? pins.trace2 : pins.trace5;
    const std::uint64_t want_stats = ranks == 2 ? pins.stats2 : pins.stats5;
    EXPECT_EQ(fnv1a(serial.trace), want_trace)
        << name << " ranks=" << ranks << " trace:\n" << serial.trace;
    EXPECT_EQ(fnv1a(serial.stats), want_stats)
        << name << " ranks=" << ranks << " stats: " << serial.stats;
    for (const int ht : {2, 3, 8}) {
      const Outcome o = run_case(program, ranks, ht);
      EXPECT_EQ(o.trace, serial.trace)
          << name << " ranks=" << ranks << " host_threads=" << ht;
      EXPECT_EQ(o.stats, serial.stats)
          << name << " ranks=" << ranks << " host_threads=" << ht;
    }
  }
}

/// Advance the clock in small fast-path steps, so a rank parked behind this
/// one is granted by a horizon crossing rather than by an arrival.
void compute_steps(Comm& comm, double seconds, int steps = 5) {
  for (int i = 0; i < steps; ++i) comm.compute(seconds / steps);
}

TEST(GrantOrder, DeliverReadiesABlockedRecv) {
  // A chain 0 -> 1 -> ... -> n-1 -> 0, three rounds: every receive blocks
  // before its message is sent, so each match is a deliver that readies a
  // blocked rank, granted after the sender's compute crosses its horizon.
  check_case("deliver", [](Comm& comm, std::atomic<bool>&) {
    const int n = comm.size();
    const int r = comm.rank();
    for (int round = 0; round < 3; ++round) {
      if (r == 0) {
        compute_steps(comm, 0.01 * (round + 1));
        comm.send_value(1 % n, 10 + round, round);
        (void)comm.recv_value<int>(n - 1, 10 + round);
      } else {
        (void)comm.recv_value<int>(r - 1, 10 + round);
        compute_steps(comm, 0.002 * r);
        comm.send_value((r + 1) % n, 10 + round, round);
      }
    }
  }, {0x1ff277f25548dd7aULL, 0xe8db1bf0d329eef6ULL,
      0xb781b2cba6be88d5ULL, 0x4007f73ad873610aULL});
}

TEST(GrantOrder, RecvTimeoutWakeReturnsEmpty) {
  // Rank r waits 0.15*r for a message rank 0 sends at t=0.5: the early
  // deadlines fire as timeout wakes (timeout_throws=false), the late ones
  // match; every rank then consumes the message with a plain receive.
  check_case("timeout", [](Comm& comm, std::atomic<bool>&) {
    const int r = comm.rank();
    if (r == 0) {
      compute_steps(comm, 0.5);
      for (int p = 1; p < comm.size(); ++p) comm.send_value(p, 1, p);
      return;
    }
    const auto got = comm.recv_bytes_for(0, 1, 0.15 * r);
    comm.compute(got ? 0.001 : 0.002);
    if (!got) (void)comm.recv_value<int>(0, 1);
  }, {0x6999112dfb1b8a88ULL, 0x5f77d83cbf60a680ULL,
      0xc86c333d896b7787ULL, 0x6634f1eaf85ccb48ULL});
}

TEST(GrantOrder, AnySourceMatchesInGrantOrder) {
  // Senders tie in pairs at three arrival times; rank 0 takes each message
  // from kAnySource and acknowledges whoever it matched.
  check_case("any", [](Comm& comm, std::atomic<bool>&) {
    const int r = comm.rank();
    if (r == 0) {
      for (int k = 1; k < comm.size(); ++k) {
        const int src = comm.recv_value<int>(simnet::kAnySource, 2);
        comm.compute(0.001 * src);
        comm.send_value(src, 3, k);
      }
      return;
    }
    compute_steps(comm, 0.01 * ((r * 7) % 3));
    comm.send_value(0, 2, r);
    (void)comm.recv_value<int>(0, 3);
  }, {0x849ec713129c8174ULL, 0x5245c732550b538cULL,
      0x49a2359267ba8061ULL, 0x488cb884efae9499ULL});
}

TEST(GrantOrder, BarrierLastArriverReleasesEveryone) {
  // Staggered arrivals rotate which rank completes each barrier.
  check_case("barrier", [](Comm& comm, std::atomic<bool>&) {
    const int n = comm.size();
    const int r = comm.rank();
    for (int round = 0; round < 3; ++round) {
      compute_steps(comm, 0.001 * ((r + round) % n + 1));
      comm.barrier();
    }
    comm.send_value((r + 1) % n, 6, r);
    (void)comm.recv_value<int>((r + n - 1) % n, 6);
  }, {0xbaf1aaee212d2550ULL, 0x18c5a1ebad303172ULL,
      0xf90cea871abade56ULL, 0x3f6a8834e0f94c0aULL});
}

TEST(GrantOrder, ExitReleasesPeersWaitingOnItsClock) {
  // Rank n-1 sends to every peer at t=0.1 and exits at t=0.3 while the
  // peers are parked behind its clock lower bound: their t=0.5 loopback
  // sends can only be granted once its exit takes it out of the horizon.
  check_case("exit", [](Comm& comm, std::atomic<bool>&) {
    const int n = comm.size();
    const int r = comm.rank();
    if (r == n - 1) {
      compute_steps(comm, 0.1);
      for (int p = 0; p < n - 1; ++p) comm.send_value(p, 4, p);
      compute_steps(comm, 0.2);
      return;
    }
    (void)comm.recv_value<int>(n - 1, 4);
    comm.compute(0.4);
    comm.send_value(r, 5, r);
    (void)comm.recv_value<int>(r, 5);
  }, {0xa4ef0edb0fbc2212ULL, 0x480573f9791c1648ULL,
      0xb161b4455f64ee7bULL, 0xb83a4131e0144f3bULL});
}

TEST(GrantOrder, CancellationWithEveryRankParked) {
  // Ranks 1..n-1 park in a barrier rank 0 never enters. Rank 0's t=1
  // loopback send is granted only after all of them have parked; it then
  // raises the cancel flag and returns, so the run is cancelled with every
  // other rank parked and none left computing.
  check_case("cancel", [](Comm& comm, std::atomic<bool>& cancel) {
    if (comm.rank() != 0) {
      comm.barrier();
      return;
    }
    compute_steps(comm, 1.0);
    comm.send_value(0, 7, 0);
    cancel.store(true);
  }, {0xf0ee2d1f73c01cc9ULL, 0xe6eb541549454590ULL,
      0xd32f926bf5bf316cULL, 0xbee393ee4f5ea0e9ULL});
}

TEST(GrantOrder, StallNoticedOnARankThread) {
  // Rank n-1 returns without entering the barrier the others wait in; the
  // last state change before the stall is a rank's exit or its barrier
  // park, never a grant.
  check_case("stall", [](Comm& comm, std::atomic<bool>&) {
    const int n = comm.size();
    const int r = comm.rank();
    if (r == n - 1) {
      compute_steps(comm, 0.2);
      return;
    }
    compute_steps(comm, 0.01 * (r + 1));
    comm.barrier();
  }, {0x9de08e8b4fa39c08ULL, 0x5159858f328707e1ULL,
      0x277bd1c8fa0fb775ULL, 0x67f482d2c7373fbbULL});
}

}  // namespace
