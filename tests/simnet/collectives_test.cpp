#include <gtest/gtest.h>

#include <numeric>

#include "simnet/comm.hpp"

namespace bladed::simnet {
namespace {

Cluster::Config cfg(int ranks) {
  Cluster::Config c;
  c.ranks = ranks;
  return c;
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BcastFromRankZero) {
  Cluster cluster(cfg(GetParam()));
  cluster.run([](Comm& comm) {
    std::vector<double> v;
    if (comm.rank() == 0) v = {1.0, 2.0, 3.0};
    v = comm.bcast(std::move(v), 0);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  });
}

TEST_P(CollectivesTest, BcastFromNonzeroRoot) {
  const int n = GetParam();
  const int root = n - 1;
  Cluster cluster(cfg(n));
  cluster.run([root](Comm& comm) {
    std::vector<int> v;
    if (comm.rank() == root) v = {7, 8, 9, 10};
    v = comm.bcast(std::move(v), root);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[3], 10);
  });
}

TEST_P(CollectivesTest, ReduceSumToEachRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; root += std::max(1, n / 3)) {
    Cluster cluster(cfg(n));
    cluster.run([root, n](Comm& comm) {
      const int total =
          comm.reduce(comm.rank() + 1, std::plus<int>{}, root);
      if (comm.rank() == root) {
        EXPECT_EQ(total, n * (n + 1) / 2);
      }
    });
  }
}

TEST_P(CollectivesTest, AllreduceSumAndMax) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    const int sum = comm.allreduce(comm.rank(), std::plus<int>{});
    EXPECT_EQ(sum, n * (n - 1) / 2);
    const int mx = comm.allreduce(
        comm.rank() * 3, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(mx, 3 * (n - 1));
  });
}

TEST_P(CollectivesTest, AllreduceVecElementwise) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    std::vector<double> v = {1.0, static_cast<double>(comm.rank())};
    v = comm.allreduce_vec(std::move(v), std::plus<double>{});
    EXPECT_DOUBLE_EQ(v[0], n);
    EXPECT_DOUBLE_EQ(v[1], n * (n - 1) / 2.0);
  });
}

TEST_P(CollectivesTest, AllgatherPreservesRankOrderAndSizes) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    // Rank r contributes r+1 copies of the value r.
    std::vector<int> mine(comm.rank() + 1, comm.rank());
    const auto all = comm.allgather(mine);
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[r].size(), static_cast<std::size_t>(r + 1));
      for (int x : all[r]) EXPECT_EQ(x, r);
    }
  });
}

TEST_P(CollectivesTest, GatherAtRoot) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    const auto all = comm.gather(std::vector<int>{comm.rank() * 2}, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), n);
      for (int r = 0; r < n; ++r) EXPECT_EQ(all[r].at(0), 2 * r);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesTest, AlltoallTransposesBlocks) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    // blocks[i] = { 100*rank + i }: after alltoall, out[s] = {100*s + rank}.
    std::vector<std::vector<int>> blocks(n);
    for (int i = 0; i < n; ++i) blocks[i] = {100 * comm.rank() + i};
    const auto out = comm.alltoall(blocks);
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(out[s].size(), 1u);
      EXPECT_EQ(out[s][0], 100 * s + comm.rank());
    }
  });
}

TEST_P(CollectivesTest, ConsecutiveCollectivesDoNotInterfere) {
  const int n = GetParam();
  Cluster cluster(cfg(n));
  cluster.run([n](Comm& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      const int s = comm.allreduce(iter + comm.rank(), std::plus<int>{});
      EXPECT_EQ(s, n * iter + n * (n - 1) / 2);
      comm.barrier();
    }
  });
}

TEST_P(CollectivesTest, BcastCostGrowsLogarithmically) {
  // A binomial broadcast of B bytes should cost far less than rank-0 sending
  // n-1 serial messages (its egress link would serialize them).
  const int n = GetParam();
  if (n < 8) GTEST_SKIP() << "needs enough ranks to see the tree win";
  constexpr std::size_t kBytes = 256 * 1024;

  Cluster tree(cfg(n));
  tree.run([](Comm& comm) {
    std::vector<char> v;
    if (comm.rank() == 0) v.assign(kBytes, 'x');
    v = comm.bcast(std::move(v), 0);
  });

  Cluster star(cfg(n));
  star.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i < comm.size(); ++i)
        comm.send_bytes(i, 0, std::vector<std::byte>(kBytes));
    } else {
      (void)comm.recv_bytes(0, 0);
    }
  });

  EXPECT_LT(tree.elapsed_seconds(), 0.8 * star.elapsed_seconds());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 24),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace bladed::simnet
