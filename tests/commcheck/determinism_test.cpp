/// Golden-trace determinism: the engine's min-clock scheduler makes event
/// recording deterministic, so two same-seed parallel runs must serialize to
/// byte-identical traces — the property that makes trace diffs usable as a
/// regression oracle.

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "commcheck/analyze.hpp"
#include "commcheck/recorder.hpp"
#include "treecode/parallel.hpp"

namespace {

using namespace bladed;

std::string treecode_trace(std::uint64_t seed, int host_threads = 1) {
  commcheck::Recorder recorder(4);
  treecode::ParallelConfig cfg;
  cfg.ranks = 4;
  cfg.particles = 600;
  cfg.steps = 2;
  cfg.seed = seed;
  cfg.cpu = &arch::tm5600_633();
  cfg.recorder = &recorder;
  cfg.host_threads = host_threads;
  (void)treecode::run_parallel_nbody(cfg);
  EXPECT_FALSE(recorder.trace().aborted);
  EXPECT_GT(recorder.trace().total_events(), 0U);
  return recorder.trace().canonical_bytes();
}

TEST(DeterminismTest, SameSeedTreecodeRunsRecordIdenticalTraces) {
  const std::string first = treecode_trace(7);
  const std::string second = treecode_trace(7);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, TraceIsByteIdenticalAcrossHostThreadCounts) {
  // The tentpole contract of the parallel engine: the host worker-pool size
  // is invisible to the simulation — golden traces recorded at any
  // --host-threads must match the serial engine's byte for byte.
  const std::string serial = treecode_trace(7, 1);
  for (int host_threads : {2, 3, 8}) {
    EXPECT_EQ(serial, treecode_trace(7, host_threads))
        << "trace diverged at host_threads=" << host_threads;
  }
}

TEST(DeterminismTest, TraceCarriesTheRunsStructure) {
  const std::string bytes = treecode_trace(7);
  // Header line + at least one event per rank.
  EXPECT_NE(bytes.find("commcheck-trace ranks=4 clean"), std::string::npos);
  EXPECT_NE(bytes.find("send"), std::string::npos);
  EXPECT_NE(bytes.find("recv"), std::string::npos);
}

TEST(DeterminismTest, RecordedTreecodeRunVerifiesClean) {
  commcheck::Recorder recorder(4);
  treecode::ParallelConfig cfg;
  cfg.ranks = 4;
  cfg.particles = 600;
  cfg.steps = 1;
  cfg.cpu = &arch::tm5600_633();
  cfg.recorder = &recorder;
  (void)treecode::run_parallel_nbody(cfg);
  const commcheck::Verdict v = commcheck::analyze(recorder.trace());
  EXPECT_TRUE(v.clean()) << v.to_string();
}

}  // namespace
