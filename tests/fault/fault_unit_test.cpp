#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/error.hpp"
#include "fault/checkpoint.hpp"
#include "fault/crc32.hpp"
#include "fault/injector.hpp"

namespace bladed::fault {
namespace {

// --- crc32 -----------------------------------------------------------------

TEST(Crc32, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<std::byte> a(64, std::byte{0x5A});
  std::vector<std::byte> b = a;
  b[17] ^= std::byte{0x04};
  EXPECT_NE(crc32_of(a), crc32_of(b));
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char msg[] = "honey, i shrunk the beowulf";
  const std::uint32_t whole = crc32(msg, sizeof(msg) - 1);
  const std::uint32_t part = crc32(msg + 10, sizeof(msg) - 11,
                                   crc32(msg, 10));
  EXPECT_EQ(whole, part);
}

// --- FaultSchedule ---------------------------------------------------------

TEST(FaultSchedule, BuilderKeepsEventsTimeSorted) {
  FaultSchedule s;
  s.crash(3, 0.9).link_drop(0, 1, 0.1, 0.2).hang(2, 0.5, 0.05);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events()[0].time, 0.1);
  EXPECT_DOUBLE_EQ(s.events()[1].time, 0.5);
  EXPECT_DOUBLE_EQ(s.events()[2].time, 0.9);
}

TEST(FaultSchedule, LinkEventsApplyBidirectionallyAndWildcard) {
  FaultSchedule s;
  s.link_drop(2, 5, 0.0, 1.0);
  const FaultEvent& e = s.events()[0];
  EXPECT_TRUE(e.applies_to_link(2, 5));
  EXPECT_TRUE(e.applies_to_link(5, 2));
  EXPECT_FALSE(e.applies_to_link(2, 4));
  FaultSchedule any;
  any.corrupt(-1, -1, 0.0, 1.0);
  EXPECT_TRUE(any.events()[0].applies_to_link(7, 11));
}

TEST(FaultSchedule, WindowActivityIsHalfOpen) {
  FaultSchedule s;
  s.delay(0, 1, 1.0, 0.5, 1e-3);
  const FaultEvent& e = s.events()[0];
  EXPECT_FALSE(e.active_at(0.999));
  EXPECT_TRUE(e.active_at(1.0));
  EXPECT_TRUE(e.active_at(1.499));
  EXPECT_FALSE(e.active_at(1.5));
}

ScheduleConfig accelerated(std::uint64_t seed) {
  ScheduleConfig cfg;
  cfg.nodes = 16;
  cfg.horizon_seconds = 10.0;
  // 0.25 failures/node-year is ~8e-9/s; accelerate into the 10 s horizon.
  cfg.acceleration = 2e8;
  cfg.seed = seed;
  // A crash permanently ends a node's stream (so the count would saturate at
  // the geometric mean 1/crash-weight per node); the scaling tests below
  // need the unbounded transient-only process.
  cfg.mix.crash = 0.0;
  return cfg;
}

TEST(FaultSchedule, GenerateIsDeterministicInSeed) {
  const FaultSchedule a = FaultSchedule::generate(accelerated(42));
  const FaultSchedule b = FaultSchedule::generate(accelerated(42));
  EXPECT_EQ(a, b);
  const FaultSchedule c = FaultSchedule::generate(accelerated(43));
  EXPECT_NE(a, c);
}

TEST(FaultSchedule, GenerateRespectsHorizonAndNodeRange) {
  const ScheduleConfig cfg = accelerated(7);
  const FaultSchedule s = FaultSchedule::generate(cfg);
  ASSERT_GT(s.size(), 0u);
  std::set<FaultKind> kinds;
  for (const FaultEvent& e : s.events()) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, cfg.horizon_seconds);
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, cfg.nodes);
    kinds.insert(e.kind);
  }
  EXPECT_GE(kinds.size(), 3u);  // the mix produces a varied taxonomy
}

TEST(FaultSchedule, CrashEndsThatNodesEventStream) {
  ScheduleConfig cfg = accelerated(21);
  cfg.mix.crash = 5.0;  // crash-heavy: every node dies almost immediately
  const FaultSchedule s = FaultSchedule::generate(cfg);
  std::vector<double> crash_time(cfg.nodes, -1.0);
  for (const FaultEvent& e : s.events()) {
    if (crash_time[e.node] >= 0.0) {
      ADD_FAILURE() << "node " << e.node << " has an event at " << e.time
                    << " after crashing at " << crash_time[e.node];
    }
    if (e.kind == FaultKind::kNodeCrash) crash_time[e.node] = e.time;
  }
}

TEST(FaultSchedule, AccelerationScalesArrivalCount) {
  ScheduleConfig lo = accelerated(9);
  ScheduleConfig hi = lo;
  hi.acceleration *= 8.0;
  EXPECT_GT(FaultSchedule::generate(hi).size(),
            2 * FaultSchedule::generate(lo).size());
}

TEST(FaultSchedule, HotterAmbientProducesMoreFaults) {
  // Arrhenius: +10 C doubles the rate, so the schedule should roughly double.
  ScheduleConfig cool = accelerated(11);
  ScheduleConfig hot = cool;
  hot.ambient = Celsius(cool.ambient.value() + 20.0);  // 4x the rate
  const auto n_cool = FaultSchedule::generate(cool).size();
  const auto n_hot = FaultSchedule::generate(hot).size();
  EXPECT_GT(static_cast<double>(n_hot), 2.5 * static_cast<double>(n_cool));
}

// --- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, DefaultConstructedIsDisabled) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  EXPECT_EQ(inj.crash_time(0), FaultInjector::kNever);
}

FaultPlan plan_with(FaultSchedule s, double offset = 0.0) {
  FaultPlan p;
  p.enabled = true;
  p.schedule = std::move(s);
  p.time_offset = offset;
  return p;
}

TEST(FaultInjector, CrashTimeIsAttemptLocal) {
  FaultSchedule s;
  s.crash(3, 0.5);
  EXPECT_DOUBLE_EQ(FaultInjector(plan_with(s)).crash_time(3), 0.5);
  EXPECT_EQ(FaultInjector(plan_with(s)).crash_time(2),
            FaultInjector::kNever);
  // After 0.3 s of consumed run time the crash is 0.2 s away.
  EXPECT_DOUBLE_EQ(FaultInjector(plan_with(s, 0.3)).crash_time(3), 0.2);
  // A crash whose absolute time predates the attempt has been repaired.
  EXPECT_EQ(FaultInjector(plan_with(s, 0.7)).crash_time(3),
            FaultInjector::kNever);
}

TEST(FaultInjector, HangEndCoversWindow) {
  FaultSchedule s;
  s.hang(2, 1.0, 0.5);
  const FaultInjector inj(plan_with(s));
  EXPECT_DOUBLE_EQ(inj.hang_end(2, 1.2), 1.5);
  EXPECT_DOUBLE_EQ(inj.hang_end(2, 0.9), 0.9);   // before the window
  EXPECT_DOUBLE_EQ(inj.hang_end(2, 1.6), 1.6);   // after it
  EXPECT_DOUBLE_EQ(inj.hang_end(3, 1.2), 1.2);   // other node untouched
}

TEST(FaultInjector, XmitFateIsDeterministicAndWindowScoped) {
  FaultSchedule s;
  s.link_drop(0, 1, 0.0, 1.0, 1.0).delay(0, 1, 2.0, 1.0, 3e-3, 1.0);
  const FaultInjector inj(plan_with(s));
  const auto in_window = inj.xmit(0, 1, 0.5, /*msg_id=*/9, /*attempt=*/0);
  EXPECT_TRUE(in_window.dropped);
  const auto again = inj.xmit(0, 1, 0.5, 9, 0);
  EXPECT_EQ(again.dropped, in_window.dropped);
  EXPECT_FALSE(inj.xmit(0, 1, 1.5, 9, 1).dropped);  // outside the window
  EXPECT_FALSE(inj.xmit(2, 3, 0.5, 9, 0).dropped);  // other link
  EXPECT_DOUBLE_EQ(inj.xmit(0, 1, 2.5, 9, 0).extra_delay, 3e-3);
}

TEST(FaultInjector, CorruptPayloadFlipsFewBitsDeterministically) {
  FaultInjector inj(plan_with(FaultSchedule{}));
  const std::vector<std::byte> original(256, std::byte{0xAB});
  std::vector<std::byte> a = original;
  inj.corrupt_payload(a, /*msg_id=*/5, /*attempt=*/1);
  std::vector<std::byte> b = original;
  inj.corrupt_payload(b, 5, 1);
  EXPECT_EQ(a, b);  // replayable
  int flipped_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned x = std::to_integer<unsigned>(a[i] ^ original[i]);
    while (x) {
      flipped_bits += static_cast<int>(x & 1u);
      x >>= 1;
    }
  }
  EXPECT_GE(flipped_bits, 1);
  EXPECT_LE(flipped_bits, 3);
}

TEST(TransportPolicy, RetryDelayBacksOffExponentiallyAndSaturates) {
  TransportPolicy p;
  p.rto = 1e-3;
  p.backoff = 2.0;
  p.max_retry_delay = 5e-3;
  EXPECT_DOUBLE_EQ(p.retry_delay(0), 1e-3);
  EXPECT_DOUBLE_EQ(p.retry_delay(1), 2e-3);
  EXPECT_DOUBLE_EQ(p.retry_delay(2), 4e-3);
  EXPECT_DOUBLE_EQ(p.retry_delay(3), 5e-3);  // clamped
  EXPECT_DOUBLE_EQ(p.retry_delay(10), 5e-3);
}

// --- CheckpointStore -------------------------------------------------------

std::vector<std::byte> blob_of(const char* s) {
  std::vector<std::byte> b(std::strlen(s));
  std::memcpy(b.data(), s, b.size());
  return b;
}

TEST(CheckpointStore, RoundTripsBlobs) {
  CheckpointStore store;
  store.save(0, 1, blob_of("rank0@v1"));
  const auto got = store.load(0, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob_of("rank0@v1"));
  EXPECT_FALSE(store.load(1, 1).has_value());
  EXPECT_FALSE(store.load(0, 2).has_value());
}

TEST(CheckpointStore, DamagedBlobIsRefused) {
  CheckpointStore store;
  store.save(2, 0, blob_of("precious state"));
  store.damage(2, 0);
  EXPECT_FALSE(store.load(2, 0).has_value());
}

TEST(CheckpointBlob, WriterReaderRoundTrip) {
  BlobWriter w;
  w.put(42);
  w.put(2.5);
  w.put_vec(std::vector<double>{1.0, 2.0, 3.0});
  const std::vector<std::byte> bytes = w.take();
  BlobReader r(bytes);
  EXPECT_EQ(r.get<int>(), 42);
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
  EXPECT_EQ(r.get_vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(CheckpointBlob, TruncatedBlobThrows) {
  BlobWriter w;
  w.put(std::uint64_t{1000});  // claims a 1000-element vector follows
  const std::vector<std::byte> bytes = w.take();
  BlobReader r(bytes);
  EXPECT_THROW((void)r.get_vec<double>(), PreconditionError);
}

}  // namespace
}  // namespace bladed::fault
