// Tests for the extracted protocol models (src/mc/protocols.cpp): model
// construction, name round-trips, corpus integrity, fast clean verification
// of the handshake, and quick refutations of representative seeded bugs.
// The exhaustive clean proofs over every shipped protocol run in the
// bladed-mc --selftest ctest entry; these tests pin the pieces cheap enough
// for the unit suite.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mc/explorer.hpp"
#include "mc/protocols.hpp"

namespace mc = bladed::mc;

namespace {

mc::ExploreResult explore_bug(mc::Protocol protocol, mc::Bug bug,
                              const std::string& model_name = "") {
  mc::ModelConfig cfg;
  cfg.protocol = protocol;
  cfg.bug = bug;
  cfg.ranks = 2;
  cfg.slots = 1;
  for (const mc::Model& m : mc::build_models(cfg)) {
    if (!model_name.empty() && m.name != model_name) continue;
    mc::Explorer ex;
    mc::ExploreResult r = ex.explore(m);
    if (r.violation || (!model_name.empty() && m.name == model_name)) {
      return r;
    }
  }
  return {};
}

TEST(McProtocols, BuildModelsCoversEveryProtocol) {
  mc::ModelConfig cfg;
  cfg.protocol = mc::Protocol::kHandshake;
  auto handshake = mc::build_models(cfg);
  ASSERT_EQ(handshake.size(), 3u);
  EXPECT_EQ(handshake[0].name, "handshake-order");
  EXPECT_EQ(handshake[1].name, "handshake-progress");
  EXPECT_EQ(handshake[2].name, "handshake-race");

  cfg.protocol = mc::Protocol::kRecvFastpath;
  cfg.ranks = 3;
  auto recv = mc::build_models(cfg);
  ASSERT_EQ(recv.size(), 1u);
  // 1 receiver + (ranks - 1) senders.
  EXPECT_EQ(recv[0].actor_names.size(), 3u);

  cfg.protocol = mc::Protocol::kSlotPool;
  auto slot = mc::build_models(cfg);
  ASSERT_EQ(slot.size(), 1u);
  // One actor per rank: there is no scheduler actor, ranks dispatch.
  EXPECT_EQ(slot[0].actor_names.size(), 3u);
}

TEST(McProtocols, NamesRoundTrip) {
  for (const mc::Protocol p :
       {mc::Protocol::kHandshake, mc::Protocol::kRecvFastpath,
        mc::Protocol::kSlotPool}) {
    mc::Protocol parsed;
    ASSERT_TRUE(mc::parse_protocol(mc::protocol_name(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  for (const mc::SeededBug& sb : mc::seeded_bug_corpus()) {
    mc::Bug parsed;
    ASSERT_TRUE(mc::parse_bug(mc::bug_name(sb.bug), &parsed));
    EXPECT_EQ(parsed, sb.bug);
  }
  mc::Protocol p;
  EXPECT_FALSE(mc::parse_protocol("no-such-protocol", &p));
  mc::Bug b;
  EXPECT_FALSE(mc::parse_bug("no-such-bug", &b));
}

TEST(McProtocols, CorpusCoversEveryProtocolWithUniqueNames) {
  std::set<std::string> names;
  std::set<mc::Protocol> protocols;
  for (const mc::SeededBug& sb : mc::seeded_bug_corpus()) {
    EXPECT_TRUE(names.insert(sb.name).second) << sb.name;
    protocols.insert(sb.protocol);
    EXPECT_NE(sb.bug, mc::Bug::kNone);
  }
  EXPECT_EQ(protocols.size(), 3u);
  EXPECT_GE(names.size(), 10u);
}

TEST(McProtocols, HandshakeVerifiesCleanAtTwoRanks) {
  mc::ModelConfig cfg;
  cfg.protocol = mc::Protocol::kHandshake;
  cfg.ranks = 2;
  for (const mc::Model& m : mc::build_models(cfg)) {
    mc::Explorer ex;
    const mc::ExploreResult r = ex.explore(m);
    EXPECT_FALSE(r.violation.has_value()) << m.name;
    EXPECT_TRUE(r.stats.complete) << m.name;
  }
}

TEST(McProtocols, WeakClockIsRefutedByALostWakeup) {
  const mc::ExploreResult r = explore_bug(
      mc::Protocol::kHandshake, mc::Bug::kWeakClock, "handshake-progress");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, "lost-wakeup");
  // The counterexample must show the relaxed clock store still buffered
  // when the dispatch's re-check reads the stale cell.
  EXPECT_NE(r.schedule.find("buffered"), std::string::npos);
}

TEST(McProtocols, WeakPublishIsRefuted) {
  const mc::ExploreResult r =
      explore_bug(mc::Protocol::kHandshake, mc::Bug::kWeakPublish,
                  "handshake-progress");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, "lost-wakeup");
}

TEST(McProtocols, NoRecheckGrantsOutOfOrder) {
  const mc::ExploreResult r = explore_bug(
      mc::Protocol::kHandshake, mc::Bug::kNoRecheck, "handshake-order");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, "assertion");
}

TEST(McProtocols, DoubleGrantIsRefuted) {
  const mc::ExploreResult r = explore_bug(
      mc::Protocol::kHandshake, mc::Bug::kDoubleGrant, "handshake-race");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, "assertion");
}

TEST(McProtocols, PlainMailboxIsADataRace) {
  const mc::ExploreResult r =
      explore_bug(mc::Protocol::kRecvFastpath, mc::Bug::kPlainMailbox);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, "data-race");
}

TEST(McProtocols, HoldWhileParkedWedgesThePool) {
  const mc::ExploreResult r =
      explore_bug(mc::Protocol::kSlotPool, mc::Bug::kHoldWhileParked);
  ASSERT_TRUE(r.violation.has_value());
  // A rank parked for its grant while holding the last slot starves the
  // other rank, whose arrival is the dispatch that would grant it.
  EXPECT_TRUE(r.violation->kind == "lost-wakeup" ||
              r.violation->kind == "deadlock");
}

}  // namespace
