/// Cluster-level tests of the fault-tolerant transport: executed drops,
/// corruption, delays, timeouts, failure detection and the stall detector,
/// all at virtual-time precision and bit-reproducible from the fault seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"

namespace bladed::simnet {
namespace {

Cluster::Config ft_cfg(int ranks, fault::FaultSchedule schedule = {},
                       std::uint64_t seed = 1) {
  Cluster::Config c;
  c.ranks = ranks;
  c.fault.enabled = true;
  c.fault.schedule = std::move(schedule);
  c.fault.seed = seed;
  return c;
}

void ping(Comm& comm) {
  const std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8};
  if (comm.rank() == 0) {
    comm.send(1, 7, data);
  } else {
    EXPECT_EQ(comm.recv<int>(0, 7), data);
  }
}

TEST(FtTransport, NoFaultsBehavesLikeTheLegacyEngine) {
  Cluster plain((Cluster::Config{.ranks = 2}));
  plain.run(ping);
  Cluster ft(ft_cfg(2));
  ft.run(ping);
  // Payloads intact, no fault actions, and only the CRC/seq framing bytes
  // distinguish the wire traffic.
  EXPECT_TRUE(ft.fault_trace().empty());
  EXPECT_EQ(ft.fault_stats().drops, 0u);
  EXPECT_GT(ft.total_bytes(), plain.total_bytes());
}

TEST(FtTransport, DropWindowForcesRetransmitAndDeliversIntact) {
  // Every transmission on link 0->1 inside [0, 1ms) is dropped; the backoff
  // retransmission lands outside the window and the payload arrives intact.
  fault::FaultSchedule s;
  s.link_drop(0, 1, 0.0, 1e-3, 1.0);
  Cluster fault_free((Cluster::Config{.ranks = 2}));
  fault_free.run(ping);
  Cluster cluster(ft_cfg(2, s));
  cluster.run(ping);
  EXPECT_GE(cluster.fault_stats().drops, 1u);
  EXPECT_GE(cluster.fault_stats().retransmits, 1u);
  EXPECT_EQ(cluster.fault_stats().messages_lost, 0u);
  EXPECT_GT(cluster.elapsed_seconds(), fault_free.elapsed_seconds());
}

TEST(FtTransport, PersistentDropExhaustsAttemptsAndLosesTheMessage) {
  fault::FaultSchedule s;
  s.link_drop(0, 1, 0.0, 1e9, 1.0);  // the link is dead for the whole run
  Cluster cluster(ft_cfg(2, s));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 3, 99);
    } else {
      // The message can never arrive; the bounded receive reports that
      // instead of hanging.
      EXPECT_FALSE(comm.recv_bytes_for(0, 3, 50e-3).has_value());
    }
  });
  EXPECT_EQ(cluster.fault_stats().messages_lost, 1u);
  EXPECT_EQ(cluster.fault_stats().drops,
            static_cast<std::uint64_t>(
                cluster.fault_stats().retransmits + 1));
  ASSERT_FALSE(cluster.fault_trace().empty());
  EXPECT_EQ(cluster.fault_trace().back().action,
            fault::ExecutedFault::Action::kLost);
}

TEST(FtTransport, CorruptionIsCaughtByCrcAndRedelivered) {
  // Corrupt the first transmission window; the CRC rejects the damaged
  // frame, the nack triggers a resend, and the application still sees the
  // exact payload.
  fault::FaultSchedule s;
  s.corrupt(0, 1, 0.0, 1e-4, 1.0);
  Cluster cluster(ft_cfg(2, s));
  cluster.run(ping);
  EXPECT_GE(cluster.fault_stats().corruptions, 1u);
  EXPECT_GE(cluster.fault_stats().crc_rejects, 1u);
  EXPECT_EQ(cluster.fault_stats().messages_lost, 0u);
}

TEST(FtTransport, CorruptionDuringAllgatherDamagesNoSharedPayload) {
  // Every ring link corrupts its first transmissions. The ring forwards the
  // payload it received, so the block on a corrupted link is shared with
  // its owner and every rank that already holds it: the transport must
  // damage a private copy, and the retransmission must deliver the exact
  // values of the one shared block.
  constexpr int kRanks = 6;
  fault::FaultSchedule s;
  for (int r = 0; r < kRanks; ++r) s.corrupt(r, (r + 1) % kRanks, 0.0, 1e-4);
  const auto block_of = [](int r) {
    std::vector<std::uint64_t> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(r) + 1) + i;
    }
    return v;
  };
  std::vector<std::vector<const std::byte*>> where(
      kRanks, std::vector<const std::byte*>(kRanks, nullptr));
  Cluster cluster(ft_cfg(kRanks, s));
  cluster.run([&](Comm& comm) {
    const std::vector<std::uint64_t> mine = block_of(comm.rank());
    const std::vector<Payload> all =
        comm.allgather_payloads(std::span<const std::uint64_t>(mine));
    comm.barrier();  // every rank holds every block before anyone checks
    for (int i = 0; i < kRanks; ++i) {
      const std::span<const std::uint64_t> got = all[i].view<std::uint64_t>();
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                block_of(i))
          << "rank " << comm.rank() << " block " << i;
      where[comm.rank()][i] = all[i].bytes().data();
    }
    comm.barrier();
  });
  EXPECT_GE(cluster.fault_stats().corruptions,
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(cluster.fault_stats().crc_rejects,
            cluster.fault_stats().corruptions);
  EXPECT_EQ(cluster.fault_stats().messages_lost, 0u);
  for (int i = 0; i < kRanks; ++i) {
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(where[r][i], where[i][i]) << "rank " << r << " block " << i;
    }
  }
}

TEST(FtTransport, TransientDelayWindowSlowsDelivery) {
  constexpr double kExtra = 5e-3;
  fault::FaultSchedule s;
  s.delay(0, 1, 0.0, 1e9, kExtra, 1.0);
  Cluster fault_free((Cluster::Config{.ranks = 2}));
  fault_free.run(ping);
  Cluster cluster(ft_cfg(2, s));
  cluster.run(ping);
  EXPECT_GE(cluster.fault_stats().delays, 1u);
  EXPECT_GE(cluster.fault_stats().delay_seconds, kExtra);
  EXPECT_GE(cluster.elapsed_seconds(),
            fault_free.elapsed_seconds() + kExtra);
}

TEST(FtTransport, HangWindowStallsTheNode) {
  fault::FaultSchedule s;
  s.hang(1, 0.0, 20e-3);
  Cluster cluster(ft_cfg(2, s));
  cluster.run([](Comm& comm) {
    comm.compute(1e-3);
    comm.barrier();
    EXPECT_GE(comm.now(), 20e-3);  // everyone waits for the hung node
  });
  EXPECT_EQ(cluster.fault_stats().hangs, 1u);
  EXPECT_GT(cluster.fault_stats().hang_seconds, 0.0);
}

TEST(FtTransport, RecvTimeoutRaisesTypedErrorNamingTheWait) {
  Cluster::Config cfg = ft_cfg(2);
  cfg.fault.transport.recv_timeout = 2e-3;  // policy default for every recv
  Cluster cluster(cfg);
  bool threw = false;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      try {
        (void)comm.recv_bytes(0, 5);  // rank 0 never sends
      } catch (const RecvTimeoutError& e) {
        threw = true;
        EXPECT_EQ(e.rank, 1);
        EXPECT_EQ(e.src, 0);
        EXPECT_EQ(e.tag, 5);
        EXPECT_NEAR(e.waited_seconds, 2e-3, 1e-9);
        EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("src=0"), std::string::npos);
      }
    } else {
      comm.compute(1e-3);
    }
  });
  EXPECT_TRUE(threw);
}

TEST(FtTransport, RecvForReturnsNulloptAndAdvancesTheClock) {
  Cluster cluster(ft_cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 1) {
      const double t0 = comm.now();
      EXPECT_FALSE(comm.recv_for<int>(0, 4, 3e-3).has_value());
      EXPECT_NEAR(comm.now() - t0, 3e-3, 1e-9);
    }
  });
}

TEST(FtTransport, CrashedPeerIsDetectedByTheWaitingRank) {
  fault::FaultSchedule s;
  s.crash(0, 1e-3);
  Cluster cluster(ft_cfg(2, s));
  bool threw = false;
  EXPECT_NO_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      try {
        (void)comm.recv_bytes(0, 9);  // the sender dies before sending
      } catch (const PeerFailureError& e) {
        threw = true;
        EXPECT_EQ(e.rank, 1);
        EXPECT_EQ(e.peer, 0);
        EXPECT_NEAR(e.peer_failed_at, 1e-3, 1e-9);
      }
    } else {
      comm.compute(1.0);  // would send at t=1, but dies at t=1ms
      comm.send_value(1, 9, 1);
    }
  }));
  EXPECT_TRUE(threw);
  EXPECT_EQ(cluster.fault_stats().crashes, 1u);
  EXPECT_EQ(cluster.failed_nodes(), std::vector<int>{0});
  EXPECT_TRUE(cluster.node_failed(0));
  EXPECT_FALSE(cluster.node_failed(1));
}

TEST(FtTransport, CrashDuringBarrierRaisesNodeFailure) {
  fault::FaultSchedule s;
  s.crash(2, 5e-4);
  Cluster cluster(ft_cfg(4, s));
  try {
    cluster.run([](Comm& comm) {
      comm.compute(1e-3);
      comm.barrier();  // rank 2 never arrives
    });
    FAIL() << "expected NodeFailureError";
  } catch (const NodeFailureError& e) {
    EXPECT_EQ(e.nodes, std::vector<int>{2});
    EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos);
  }
}

// Satellite regression: when every runnable rank is blocked in op_recv on
// tags nobody will ever send, the stall detector must identify the deadlock
// and say exactly who is blocked on what.
TEST(FtTransport, StallReportNamesBlockedRanksAndTags) {
  Cluster cluster((Cluster::Config{.ranks = 2}));
  try {
    cluster.run([](Comm& comm) {
      // Mismatched tags: rank 0 waits on tag 7, rank 1 on tag 9; the sends
      // use tags nobody is waiting for, so all ranks block forever.
      if (comm.rank() == 0) {
        comm.send_value(1, 1, 0);
        (void)comm.recv_value<int>(1, 7);
      } else {
        comm.send_value(0, 2, 0);
        (void)comm.recv_value<int>(0, 9);
      }
    });
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no rank can make progress"), std::string::npos);
    EXPECT_NE(msg.find("rank 0 blocked in recv(src=1, tag=7)"),
              std::string::npos);
    EXPECT_NE(msg.find("rank 1 blocked in recv(src=0, tag=9)"),
              std::string::npos);
  }
}

TEST(FtTransport, StallReportCoversBarrierBlockers) {
  Cluster cluster((Cluster::Config{.ranks = 2}));
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv_value<int>(1, 3);  // never sent
      } else {
        comm.barrier();  // can never complete
      }
    });
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("blocked in barrier"),
              std::string::npos);
  }
}

// The acceptance-criterion determinism property at the transport level: the
// same fault seed must produce a bit-identical executed-fault trace, stats
// and timing across runs.
TEST(FtTransport, FaultTraceIsBitIdenticalAcrossRuns) {
  auto experiment = [] {
    fault::FaultSchedule s;
    s.link_drop(-1, -1, 0.0, 5e-3, 0.4)
        .corrupt(-1, -1, 0.0, 5e-3, 0.3)
        .delay(-1, -1, 0.0, 5e-3, 2e-4, 0.5);
    Cluster cluster(ft_cfg(6, s, /*seed=*/1234));
    cluster.run([](Comm& comm) {
      // Irregular traffic: ring exchange plus everyone reports to rank 0.
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send(right, 1, std::vector<int>(50 + comm.rank(), comm.rank()));
      (void)comm.recv<int>(left, 1);
      if (comm.rank() == 0) {
        for (int i = 1; i < comm.size(); ++i) (void)comm.recv_bytes(i, 2);
      } else {
        comm.send_bytes(0, 2, std::vector<std::byte>(64));
      }
    });
    return std::pair(cluster.fault_trace(), cluster.elapsed_seconds());
  };
  const auto [trace1, t1] = experiment();
  const auto [trace2, t2] = experiment();
  EXPECT_GT(trace1.size(), 0u);  // the windows actually fired
  EXPECT_EQ(trace1, trace2);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(FtTransport, DifferentSeedsDiverge) {
  auto run_with_seed = [](std::uint64_t seed) {
    fault::FaultSchedule s;
    s.link_drop(-1, -1, 0.0, 5e-3, 0.5);
    Cluster cluster(ft_cfg(4, s, seed));
    cluster.run([](Comm& comm) {
      for (int round = 0; round < 4; ++round) {
        if (comm.rank() == 0) {
          for (int i = 1; i < comm.size(); ++i)
            (void)comm.recv_bytes(i, round);
        } else {
          comm.send_bytes(0, round, std::vector<std::byte>(128));
        }
      }
    });
    return cluster.fault_trace();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

}  // namespace
}  // namespace bladed::simnet
