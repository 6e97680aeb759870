/// Property tests for the virtual cluster: message conservation, causality,
/// and determinism under randomized traffic patterns; the bonded-NIC model.

#include <gtest/gtest.h>

#include <map>

#include "commcheck/recorder.hpp"
#include "common/rng.hpp"
#include "simnet/comm.hpp"

namespace bladed::simnet {
namespace {

struct Plan {
  struct Msg {
    int src, dst, tag;
    std::size_t bytes;
  };
  std::vector<Msg> msgs;
};

Plan random_plan(std::uint64_t seed, int ranks, int count) {
  Rng rng(seed);
  Plan plan;
  for (int i = 0; i < count; ++i) {
    Plan::Msg m;
    m.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    do {
      m.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    } while (m.dst == m.src);
    m.tag = static_cast<int>(i);  // unique tag per message
    m.bytes = 1 + rng.below(4096);
    plan.msgs.push_back(m);
  }
  return plan;
}

/// Execute a plan: every rank sends its outgoing messages (in plan order)
/// then receives its incoming ones (in plan order). Returns elapsed time.
double run_plan(const Plan& plan, int ranks, std::uint64_t* bytes_out,
                std::uint64_t* msgs_out) {
  Cluster cluster({.ranks = ranks, .network = NetworkModel::fast_ethernet()});
  cluster.run([&](Comm& comm) {
    for (const auto& m : plan.msgs) {
      if (m.src == comm.rank()) {
        comm.send_bytes(m.dst, m.tag, std::vector<std::byte>(m.bytes));
      }
    }
    for (const auto& m : plan.msgs) {
      if (m.dst == comm.rank()) {
        const auto payload = comm.recv_bytes(m.src, m.tag);
        EXPECT_EQ(payload.size(), m.bytes);
      }
    }
  });
  if (bytes_out) *bytes_out = cluster.total_bytes();
  if (msgs_out) *msgs_out = cluster.total_messages();
  return cluster.elapsed_seconds();
}

class TrafficFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TrafficFuzz, EveryMessageDeliveredExactlyOnce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Plan plan = random_plan(seed, 6, 60);
  std::uint64_t msgs = 0;
  run_plan(plan, 6, nullptr, &msgs);
  EXPECT_EQ(msgs, plan.msgs.size());
}

TEST_P(TrafficFuzz, DeterministicElapsedTime) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Plan plan = random_plan(seed ^ 0xabcd, 5, 40);
  const double t1 = run_plan(plan, 5, nullptr, nullptr);
  const double t2 = run_plan(plan, 5, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST_P(TrafficFuzz, AccountedBytesMatchThePlan) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Plan plan = random_plan(seed ^ 0x1234, 4, 30);
  std::uint64_t bytes = 0;
  run_plan(plan, 4, &bytes, nullptr);
  std::uint64_t expected = 0;
  const NetworkModel net = NetworkModel::fast_ethernet();
  for (const auto& m : plan.msgs) expected += m.bytes + net.header_bytes;
  EXPECT_EQ(bytes, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficFuzz, ::testing::Range(0, 8));

TEST(Trace, RecordsEveryMessageWithCausalTimes) {
  const Plan plan = random_plan(77, 5, 40);
  commcheck::Recorder recorder(5);
  Cluster cluster({.ranks = 5,
                   .network = NetworkModel::fast_ethernet(),
                   .recorder = &recorder});
  cluster.run([&](Comm& comm) {
    for (const auto& m : plan.msgs) {
      if (m.src == comm.rank()) {
        comm.send_bytes(m.dst, m.tag, std::vector<std::byte>(m.bytes));
      }
    }
    for (const auto& m : plan.msgs) {
      if (m.dst == comm.rank()) (void)comm.recv_bytes(m.src, m.tag);
    }
  });
  const commcheck::Trace& trace = recorder.trace();
  const NetworkModel net = NetworkModel::fast_ethernet();
  std::size_t sends = 0, recvs = 0;
  std::uint64_t traced_bytes = 0;
  for (const auto& events : trace.events) {
    for (const commcheck::CommEvent& e : events) {
      if (e.kind == commcheck::EventKind::kSend) {
        ++sends;
        EXPECT_NE(e.rank, e.peer);
        traced_bytes += e.bytes;
      } else if (e.kind == commcheck::EventKind::kRecv) {
        ++recvs;
        ASSERT_TRUE(e.completed);
        ASSERT_NE(e.matched_event, commcheck::kNoEvent);
        const commcheck::CommEvent& send =
            trace.events[static_cast<std::size_t>(e.matched_src)]
                        [e.matched_event];
        EXPECT_EQ(send.bytes, e.bytes);
        EXPECT_GE(e.time, send.time + net.wire_time(send.bytes) - 1e-15);
      }
    }
  }
  EXPECT_EQ(sends, plan.msgs.size());
  EXPECT_EQ(recvs, plan.msgs.size());
  std::uint64_t plan_bytes = 0;
  for (const auto& m : plan.msgs) plan_bytes += m.bytes;
  EXPECT_EQ(traced_bytes, plan_bytes);
}

TEST(Causality, DeliveryNeverPrecedesSend) {
  // Receivers' clocks after recv must be at least the sender's send time
  // plus the uncontended transfer time.
  Cluster cluster({.ranks = 4, .network = NetworkModel::fast_ethernet()});
  const NetworkModel& net = cluster.network();
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(0.5);
      comm.send_bytes(3, 1, std::vector<std::byte>(10000));
    } else if (comm.rank() == 3) {
      (void)comm.recv_bytes(0, 1);
      EXPECT_GE(comm.now(), 0.5 + net.uncontended(10000) - 1e-12);
    }
  });
}

TEST(BondedNic, BandwidthScalesWithChannels) {
  const NetworkModel one = NetworkModel::fast_ethernet_bonded(1);
  const NetworkModel three = NetworkModel::fast_ethernet_bonded(3);
  EXPECT_DOUBLE_EQ(three.bandwidth, 3.0 * one.bandwidth);
  EXPECT_DOUBLE_EQ(three.latency, one.latency);  // latency does not bond
  EXPECT_THROW(NetworkModel::fast_ethernet_bonded(0), PreconditionError);
  EXPECT_THROW(NetworkModel::fast_ethernet_bonded(4), PreconditionError);
}

TEST(BondedNic, LargeTransfersSpeedUpSmallOnesBarely) {
  auto transfer_time = [](const NetworkModel& net, std::size_t bytes) {
    Cluster cluster({.ranks = 2, .network = net});
    cluster.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_bytes(1, 0, std::vector<std::byte>(bytes));
      } else {
        (void)comm.recv_bytes(0, 0);
      }
    });
    return cluster.elapsed_seconds();
  };
  const NetworkModel one = NetworkModel::fast_ethernet_bonded(1);
  const NetworkModel three = NetworkModel::fast_ethernet_bonded(3);
  // 1 MB: ~3x faster. 16 bytes: latency-dominated, nearly unchanged.
  EXPECT_GT(transfer_time(one, 1 << 20) / transfer_time(three, 1 << 20),
            2.3);
  EXPECT_LT(transfer_time(one, 16) / transfer_time(three, 16), 1.2);
}

TEST(SharedHub, ConcurrentPairsSerializeOnOneMedium) {
  // Four disjoint sender/receiver pairs: on a switch they proceed in
  // parallel (cost: one store-and-forward transfer); on a hub all four
  // transfers queue on the single collision domain.
  auto run_pairs = [](const NetworkModel& net) {
    Cluster cluster({.ranks = 8, .network = net});
    cluster.run([](Comm& comm) {
      constexpr std::size_t kBytes = 256 * 1024;
      const int r = comm.rank();
      if (r % 2 == 0) {
        comm.send_bytes(r + 1, 0, std::vector<std::byte>(kBytes));
      } else {
        (void)comm.recv_bytes(r - 1, 0);
      }
    });
    return cluster.elapsed_seconds();
  };
  const double switched = run_pairs(NetworkModel::fast_ethernet());
  const double hub = run_pairs(NetworkModel::fast_ethernet_hub());
  // 4 serialized transfers vs 2 pipelined link crossings: ~2x.
  EXPECT_GT(hub, 1.6 * switched);
}

TEST(SharedHub, SingleTransferCostsTheSame) {
  // With no contention the hub and switch differ only by the second
  // store-and-forward serialization the switch adds.
  auto one = [](const NetworkModel& net) {
    Cluster cluster({.ranks = 2, .network = net});
    cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_bytes(1, 0, std::vector<std::byte>(100000));
      } else {
        (void)comm.recv_bytes(0, 0);
      }
    });
    return cluster.elapsed_seconds();
  };
  const double hub = one(NetworkModel::fast_ethernet_hub());
  const double switched = one(NetworkModel::fast_ethernet());
  EXPECT_LT(hub, switched);          // hub skips the second serialization
  EXPECT_GT(hub, 0.4 * switched);    // but is the same wire
}

TEST(SharedHub, ResetClearsTheMedium) {
  LinkTimeline links(3, NetworkModel::fast_ethernet_hub());
  links.schedule(0, 1, 1 << 20, 0.0);
  links.reset();
  const double at = links.schedule(0, 1, 0, 0.0);
  EXPECT_LT(at, 1e-3);
}

TEST(Comm, MixedComputeCommunicationOrderIsStable) {
  // A ring where each rank computes a rank-dependent amount then forwards a
  // token: final time equals the sum of all compute plus transfer times,
  // independent of scheduling details.
  const int n = 6;
  Cluster cluster({.ranks = n, .network = NetworkModel::fast_ethernet()});
  cluster.run([n](Comm& comm) {
    const int r = comm.rank();
    if (r == 0) {
      comm.compute(0.01);
      comm.send_value(1, 0, 42);
      const int token = comm.recv_value<int>(n - 1, 0);
      EXPECT_EQ(token, 42);
    } else {
      const int token = comm.recv_value<int>(r - 1, 0);
      comm.compute(0.01);
      comm.send_value((r + 1) % n, 0, token);
    }
  });
  const double expected_compute = 0.01 * n;
  EXPECT_GT(cluster.elapsed_seconds(), expected_compute);
  EXPECT_LT(cluster.elapsed_seconds(), expected_compute + 0.01);
}

}  // namespace
}  // namespace bladed::simnet
