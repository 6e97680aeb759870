/// simnet::Payload and the zero-copy Comm paths built on it: view<T>
/// refusals, shared storage under allgather_payloads / bcast at 24 ranks,
/// and commcheck events identical to the copying typed calls.

#include "simnet/payload.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "commcheck/recorder.hpp"
#include "common/error.hpp"
#include "simnet/comm.hpp"

namespace bladed::simnet {
namespace {

std::string refusal(const auto& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "no refusal";
}

TEST(Payload, EmptyPayloadHasNoBytes) {
  const Payload p;
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.bytes().empty());
  EXPECT_TRUE(p.view<double>().empty());
}

TEST(Payload, CopyOfSnapshotsTheSourceAndCopiesShareIt) {
  std::vector<int> src{1, 2, 3, 4};
  const Payload p = Payload::copy_of(std::span<const int>(src));
  src[0] = 99;  // the payload took its own copy
  const Payload q = p;
  ASSERT_EQ(p.size(), 4 * sizeof(int));
  EXPECT_EQ(q.bytes().data(), p.bytes().data());  // shared, not copied
  const std::span<const int> v = q.view<int>();
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
            (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.bytes().data()) %
                Payload::kAlignment,
            0u);
}

TEST(Payload, ViewRefusesSizeThatIsNotAMultipleOfTheElement) {
  const Payload p = Payload::copy_of(std::vector<std::byte>(10));
  const std::string msg = refusal([&] { (void)p.view<std::uint32_t>(); });
  EXPECT_NE(msg.find("Payload::view payload size mismatch"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("10 bytes is not a multiple of element size 4"),
            std::string::npos)
      << msg;
}

TEST(Payload, ViewRefusesElementAlignedBeyondThePayload) {
  struct alignas(2 * Payload::kAlignment) Wide {
    double d[4];
  };
  const Payload p = Payload::copy_of(std::vector<std::byte>(sizeof(Wide)));
  const std::string msg = refusal([&] { (void)p.view<Wide>(); });
  EXPECT_NE(msg.find("Payload::view payload alignment mismatch"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("element alignment " +
                     std::to_string(2 * Payload::kAlignment) +
                     " exceeds payload alignment " +
                     std::to_string(Payload::kAlignment)),
            std::string::npos)
      << msg;
}

/// Rank r's contribution: r + 3 values, distinct across ranks.
std::vector<std::uint32_t> block_of(int r) {
  std::vector<std::uint32_t> v(static_cast<std::size_t>(r) + 3);
  std::iota(v.begin(), v.end(), 1000u * static_cast<std::uint32_t>(r));
  return v;
}

TEST(PayloadCollectives, AllgatherPayloadsAt24RanksSharesEverySendersBlock) {
  constexpr int kRanks = 24;
  // where[r][i]: the address rank r reads block i from.
  std::vector<std::vector<const std::byte*>> where(
      kRanks, std::vector<const std::byte*>(kRanks, nullptr));
  Cluster cluster({.ranks = kRanks, .host_threads = 4});
  cluster.run([&](Comm& comm) {
    const std::vector<std::uint32_t> mine = block_of(comm.rank());
    const std::vector<Payload> all =
        comm.allgather_payloads(std::span<const std::uint32_t>(mine));
    ASSERT_EQ(static_cast<int>(all.size()), kRanks);
    for (int i = 0; i < kRanks; ++i) {
      const std::span<const std::uint32_t> got = all[i].view<std::uint32_t>();
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                block_of(i))
          << "rank " << comm.rank() << " block " << i;
      where[comm.rank()][i] = all[i].bytes().data();
    }
    comm.barrier();  // keep every payload alive until all ranks recorded
  });
  // Every block was copied once, by its owner, and forwarded as-is.
  for (int i = 0; i < kRanks; ++i) {
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(where[r][i], where[i][i]) << "rank " << r << " block " << i;
    }
  }
  EXPECT_EQ(cluster.total_messages(),
            static_cast<std::uint64_t>(kRanks * (kRanks - 1)));
}

TEST(PayloadCollectives, BcastAt24RanksDeliversTheRootsDataFromAnyRoot) {
  constexpr int kRanks = 24;
  for (int root : {0, 7, 23}) {
    Cluster cluster({.ranks = kRanks, .host_threads = 4});
    cluster.run([root](Comm& comm) {
      std::vector<std::uint32_t> v;
      if (comm.rank() == root) v = block_of(root);
      v = comm.bcast(std::move(v), root);
      EXPECT_EQ(v, block_of(root)) << "rank " << comm.rank();
    });
    EXPECT_EQ(cluster.total_messages(),
              static_cast<std::uint64_t>(kRanks - 1));
  }
}

commcheck::Trace record(int ranks, const std::function<void(Comm&)>& fn) {
  commcheck::Recorder recorder(ranks);
  Cluster cluster({.ranks = ranks, .recorder = &recorder});
  cluster.run(fn);
  return recorder.trace();
}

TEST(PayloadCollectives, PayloadCallsRecordTheTypedCallsEvents) {
  const commcheck::Trace typed = record(4, [](Comm& comm) {
    const std::vector<double> v(5, 1.5);
    if (comm.rank() == 0) comm.send(1, 3, v);
    if (comm.rank() == 1) (void)comm.recv<double>(0, 3);
    (void)comm.allgather(block_of(comm.rank()));
  });
  const commcheck::Trace shared = record(4, [](Comm& comm) {
    const std::vector<double> v(5, 1.5);
    if (comm.rank() == 0) {
      comm.send(1, 3, Payload::copy_of(std::span<const double>(v)));
    }
    if (comm.rank() == 1) (void)comm.recv_payload<double>(0, 3);
    const std::vector<std::uint32_t> mine = block_of(comm.rank());
    (void)comm.allgather_payloads(std::span<const std::uint32_t>(mine));
  });
  EXPECT_EQ(shared.canonical_bytes(), typed.canonical_bytes());
  const commcheck::CommEvent& recv = shared.events[1][0];
  EXPECT_EQ(recv.kind, commcheck::EventKind::kRecv);
  EXPECT_EQ(recv.elem_bytes, sizeof(double));
}

}  // namespace
}  // namespace bladed::simnet
