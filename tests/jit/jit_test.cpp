/// Golden tests for the tier-3 JIT (DESIGN.md §14): promotion by execution
/// count, bit-identical accounting against the two-tier engine, license
/// refusal and fallback, rollback on a miscompiled region, invalidation on
/// cache eviction, the budget cap, the translation-cache replay primitive,
/// and the dry-run lowering report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "cms/engine.hpp"
#include "cms/programs.hpp"
#include "jit/compile.hpp"
#include "jit/jit.hpp"

namespace bladed::jit {
namespace {

using cms::Instr;
using cms::Op;
using cms::Program;

Instr make(Op op, int a = 0, int b = 0, int c = 0, std::int64_t imm = 0) {
  Instr in;
  in.op = op;
  in.a = a;
  in.b = b;
  in.c = c;
  in.imm_i = imm;
  return in;
}

bool same_state(const cms::MachineState& a, const cms::MachineState& b) {
  return a.mem.size() == b.mem.size() &&
         std::memcmp(a.r, b.r, sizeof(a.r)) == 0 &&
         std::memcmp(a.f, b.f, sizeof(a.f)) == 0 &&
         std::memcmp(a.mem.data(), b.mem.data(),
                     a.mem.size() * sizeof(double)) == 0;
}

/// Everything except the jit_* counters must match the two-tier engine
/// bit for bit — the accounting invariant of DESIGN.md §14.
void expect_same_accounting(const cms::MorphingStats& t2,
                            const cms::MorphingStats& t3) {
  EXPECT_EQ(t2.total_cycles, t3.total_cycles);
  EXPECT_EQ(t2.interpreted_instructions, t3.interpreted_instructions);
  EXPECT_EQ(t2.interpret_cycles, t3.interpret_cycles);
  EXPECT_EQ(t2.native_block_executions, t3.native_block_executions);
  EXPECT_EQ(t2.native_cycles, t3.native_cycles);
  EXPECT_EQ(t2.translations, t3.translations);
  EXPECT_EQ(t2.translate_cycles, t3.translate_cycles);
  EXPECT_EQ(t2.retranslations, t3.retranslations);
  EXPECT_EQ(t2.cache_hits, t3.cache_hits);
  EXPECT_EQ(t2.cache_misses, t3.cache_misses);
  EXPECT_EQ(t2.cache_evictions, t3.cache_evictions);
}

cms::MorphingConfig tier3_config() {
  cms::MorphingConfig cfg = cms::cms_43x();
  attach_jit(cfg);
  // Pure tier comparison: no optimizer rewrite, no tier-2 license gate (the
  // JIT performs its own licensing; the prover hook gates *translations*,
  // which is orthogonal and exercised by the prove tests).
  cfg.optimizer = nullptr;
  cfg.prover = nullptr;
  return cfg;
}

TEST(JitTier, PromotionIsBitIdenticalToTierTwo) {
  const Program prog = cms::naive_daxpy_program(64);
  for (int run = 0; run < 3; ++run) {
    // Fresh engines each round, multiple runs per engine: cold promotion on
    // the first run, warm tier-3 afterwards.
    cms::MorphingEngine t2{cms::cms_43x()};
    cms::MorphingEngine t3{tier3_config()};
    for (int i = 0; i <= run; ++i) {
      cms::MachineState s2(4096);
      cms::MachineState s3(4096);
      const cms::MorphingStats r2 = t2.run(prog, s2);
      const cms::MorphingStats r3 = t3.run(prog, s3);
      EXPECT_TRUE(same_state(s2, s3)) << "run " << i;
      expect_same_accounting(r2, r3);
      EXPECT_EQ(r3.jit_rollbacks, 0u);
      EXPECT_EQ(r3.jit_refusals, 0u);
    }
  }
}

TEST(JitTier, PromotionFollowsExecutionCount) {
  const Program prog = cms::naive_daxpy_program(256);
  cms::MorphingConfig cfg = tier3_config();
  cms::MorphingEngine engine{cfg};
  cms::MachineState st(4096);
  const cms::MorphingStats first = engine.run(prog, st);
  // The loop runs 256 iterations: tier-2 promotes at hot_threshold, tier-3
  // at jit_threshold native executions, all within the first run.
  EXPECT_EQ(first.jit_regions, 1u);
  EXPECT_GT(first.jit_block_executions, 0u);
  EXPECT_LT(first.jit_block_executions, first.native_block_executions);
  // Warm run: everything hot runs tier-3, no recompilation.
  cms::MachineState st2(4096);
  const cms::MorphingStats warm = engine.run(prog, st2);
  EXPECT_EQ(warm.jit_regions, 0u);
  EXPECT_GT(warm.jit_block_executions, 0u);
  EXPECT_TRUE(same_state(st, st2));
}

TEST(JitTier, UnlicensedProgramFallsBackToTierTwo) {
  // A bne-latched loop: safe at run time (r1 walks 0..63 then exits at 64)
  // but the prover cannot bound r1 — the counted-loop argument needs a blt
  // latch and interval refinement on `!=` proves nothing. No license forms,
  // the JIT refuses, and the engine keeps the program correct on tier-2.
  Program prog;
  prog.push_back(make(Op::kMovi, 1, 0, 0, 0));     // i = 0
  prog.push_back(make(Op::kMovi, 2, 0, 0, 64));    // n = 64
  prog.push_back(make(Op::kFload, 0, 1, 0, 0));    // f0 = mem[i]
  prog.push_back(make(Op::kFadd, 0, 0, 0));        // f0 += f0
  prog.push_back(make(Op::kFstore, 0, 1, 0, 0));   // mem[i] = f0
  prog.push_back(make(Op::kAddi, 1, 1, 0, 1));     // ++i
  prog.push_back(make(Op::kBne, 1, 2, 0, 2));      // loop while i != n
  prog.push_back(make(Op::kHalt));
  const ProgramFacts facts = analyze_program(prog, 4096);
  ASSERT_TRUE(facts.valid);
  ASSERT_EQ(facts.proven_pc[2], 0u) << "premise: access must be unproven";

  cms::MorphingEngine t2{cms::cms_43x()};
  cms::MorphingEngine t3{tier3_config()};
  cms::MachineState s2(4096);
  cms::MachineState s3(4096);
  const cms::MorphingStats r2 = t2.run(prog, s2);
  const cms::MorphingStats r3 = t3.run(prog, s3);
  EXPECT_TRUE(same_state(s2, s3));
  expect_same_accounting(r2, r3);
  EXPECT_EQ(r3.jit_block_executions, 0u);
  EXPECT_EQ(r3.jit_regions, 0u);
  EXPECT_GE(r3.jit_refusals, 1u);
  // The refusal is permanent: later runs do not retry the compiler.
  cms::MachineState s4(4096);
  const cms::MorphingStats again = t3.run(prog, s4);
  EXPECT_EQ(again.jit_refusals, 0u);
  EXPECT_EQ(again.jit_block_executions, 0u);
}

/// A region that deliberately corrupts one fp register: the differential
/// gate must catch it on first entry, adopt the architectural result and
/// demote the entry permanently.
class CorruptRegion final : public cms::CompiledRegion {
 public:
  CorruptRegion(std::unique_ptr<cms::CompiledRegion> inner)
      : inner_(std::move(inner)) {}

  RunResult run(cms::MachineState& st, std::uint64_t max_blocks) override {
    RunResult res = inner_->run(st, max_blocks);
    st.f[0] += 1.0;  // miscompile
    return res;
  }
  RunResult run_reference(const cms::Program& prog, cms::MachineState& st,
                          std::uint64_t max_blocks) override {
    return inner_->run_reference(prog, st, max_blocks);
  }
  [[nodiscard]] const std::vector<std::size_t>& member_blocks()
      const override {
    return inner_->member_blocks();
  }

 private:
  std::unique_ptr<cms::CompiledRegion> inner_;
};

TEST(JitTier, DifferentialGateRollsBackMiscompiledRegion) {
  const Program prog = cms::naive_daxpy_program(64);
  cms::MorphingConfig cfg = tier3_config();
  const cms::RegionCompiler real = make_region_compiler();
  cfg.jit_compiler = [&real](const Program& p, std::size_t entry,
                             const cms::TranslationCache& cache,
                             std::size_t mem, bool* retry, std::string* why)
      -> std::unique_ptr<cms::CompiledRegion> {
    auto region = real(p, entry, cache, mem, retry, why);
    if (!region) return nullptr;
    return std::make_unique<CorruptRegion>(std::move(region));
  };
  cms::MorphingEngine t3{cfg};
  cms::MorphingEngine t2{cms::cms_43x()};
  cms::MachineState s3(4096);
  cms::MachineState s2(4096);
  const cms::MorphingStats r3 = t3.run(prog, s3);
  const cms::MorphingStats r2 = t2.run(prog, s2);
  // The corruption never reaches architectural state.
  EXPECT_TRUE(same_state(s2, s3));
  expect_same_accounting(r2, r3);
  EXPECT_EQ(r3.jit_rollbacks, 1u);
  // Demotion is permanent: the next run neither compiles nor re-enters.
  cms::MachineState s4(4096);
  const cms::MorphingStats again = t3.run(prog, s4);
  EXPECT_TRUE(same_state(s2, s4));
  EXPECT_EQ(again.jit_rollbacks, 0u);
  EXPECT_EQ(again.jit_block_executions, 0u);
  EXPECT_EQ(again.jit_regions, 0u);
}

/// Two counted inner loops under one outer loop, accessing disjoint
/// windows. With a cache too small for both bodies, every outer round
/// evicts one loop's translation while the other runs — a compiled region
/// whose member block is gone must invalidate, never run stale code.
Program two_loop_program(std::int64_t rounds, std::int64_t n) {
  Program p;
  p.push_back(make(Op::kMovi, 1, 0, 0, 0));       // 0: round = 0
  p.push_back(make(Op::kMovi, 2, 0, 0, rounds));  // 1
  p.push_back(make(Op::kMovi, 5, 0, 0, n));       // 2: nA
  p.push_back(make(Op::kMovi, 6, 0, 0, n));       // 3: nB
  p.push_back(make(Op::kMovi, 3, 0, 0, 0));       // 4: outer: iA = 0
  p.push_back(make(Op::kFload, 0, 3, 0, 0));      // 5: loop A body
  p.push_back(make(Op::kFadd, 0, 0, 0));          // 6
  p.push_back(make(Op::kFstore, 0, 3, 0, 0));     // 7
  p.push_back(make(Op::kAddi, 3, 3, 0, 1));       // 8
  p.push_back(make(Op::kBlt, 3, 5, 0, 5));        // 9
  p.push_back(make(Op::kMovi, 4, 0, 0, 0));       // 10: iB = 0
  p.push_back(make(Op::kFload, 1, 4, 0, 128));    // 11: loop B body
  p.push_back(make(Op::kFmul, 1, 1, 1));          // 12
  p.push_back(make(Op::kFstore, 1, 4, 0, 128));   // 13
  p.push_back(make(Op::kAddi, 4, 4, 0, 1));       // 14
  p.push_back(make(Op::kBlt, 4, 6, 0, 11));       // 15
  p.push_back(make(Op::kAddi, 1, 1, 0, 1));       // 16
  p.push_back(make(Op::kBlt, 1, 2, 0, 4));        // 17
  p.push_back(make(Op::kHalt));                   // 18
  return p;
}

TEST(JitTier, EvictionInvalidatesCompiledRegions) {
  const Program prog = two_loop_program(6, 48);
  cms::MorphingConfig cfg3 = tier3_config();
  cfg3.cache_molecules = 7;  // one 5-molecule loop body at most, never two
  cms::MorphingEngine t3{cfg3};
  cms::MorphingConfig cfg2 = cms::cms_43x();
  cfg2.cache_molecules = 7;
  cms::MorphingEngine t2{cfg2};
  cms::MachineState s3(4096);
  cms::MachineState s2(4096);
  const cms::MorphingStats r3 = t3.run(prog, s3);
  const cms::MorphingStats r2 = t2.run(prog, s2);
  EXPECT_TRUE(same_state(s2, s3));
  // The accounting equality proves every invalidation fell back to exactly
  // the tier-2 behavior (miss, retranslate, re-promote).
  expect_same_accounting(r2, r3);
  EXPECT_GT(r3.jit_invalidations, 0u);
  EXPECT_GT(r3.jit_block_executions, 0u);
}

TEST(JitTier, BlockBudgetStopsExactlyLikeTierTwo) {
  const Program prog = cms::naive_daxpy_program(256);
  for (const std::uint64_t budget : {1u, 17u, 40u, 101u, 257u}) {
    cms::MorphingEngine t2{cms::cms_43x()};
    cms::MorphingEngine t3{tier3_config()};
    // Warm both engines fully first so the budgeted run enters tier-3.
    cms::MachineState w2(4096);
    cms::MachineState w3(4096);
    (void)t2.run(prog, w2);
    (void)t3.run(prog, w3);
    cms::MachineState s2(4096);
    cms::MachineState s3(4096);
    const cms::MorphingStats r2 = t2.run(prog, s2, budget);
    const cms::MorphingStats r3 = t3.run(prog, s3, budget);
    EXPECT_TRUE(same_state(s2, s3)) << "budget " << budget;
    expect_same_accounting(r2, r3);
  }
}

TEST(JitTier, BitIdenticalAcrossHostThreadCounts) {
  // Engines are per-thread objects; the acceptance criterion is that any
  // host_threads fan-out (1, 2, 8) computes the same final state and the
  // same accounting. Run one engine per thread and compare all results.
  const Program prog = cms::naive_stencil_program(128);
  for (const int threads : {1, 2, 8}) {
    std::vector<cms::MachineState> states(threads, cms::MachineState(4096));
    std::vector<cms::MorphingStats> stats(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        cms::MorphingEngine engine{tier3_config()};
        (void)engine.run(prog, states[i]);  // cold
        states[i] = cms::MachineState(4096);
        stats[i] = engine.run(prog, states[i]);  // warm, tier-3
      });
    }
    for (std::thread& t : pool) t.join();
    for (int i = 1; i < threads; ++i) {
      EXPECT_TRUE(same_state(states[0], states[i])) << "thread " << i;
      expect_same_accounting(stats[0], stats[i]);
      EXPECT_EQ(stats[0].jit_block_executions, stats[i].jit_block_executions);
    }
  }
}

TEST(JitTier, ProgramChangeFlushesCompiledRegions) {
  cms::MorphingEngine engine{tier3_config()};
  const Program a = cms::naive_daxpy_program(64);
  const Program b = cms::naive_stencil_program(64);
  cms::MachineState sa(4096);
  EXPECT_GT(engine.run(a, sa).jit_regions, 0u);
  // Switching programs mid-engine must recompile from fresh profile counts
  // and still match the two-tier engine (which shares the same cache-warm
  // history) architecturally.
  cms::MachineState sb(4096);
  const cms::MorphingStats rb = engine.run(b, sb);
  EXPECT_GT(rb.jit_regions, 0u);
  cms::MorphingEngine fresh{cms::cms_43x()};
  cms::MachineState sa2(4096);
  (void)fresh.run(a, sa2);
  cms::MachineState sb2(4096);
  (void)fresh.run(b, sb2);
  EXPECT_TRUE(same_state(sb, sb2));
}

TEST(JitTier, MemorySizeChangeFlushesCompiledRegions) {
  // Regions drop bounds checks on licenses proved for one memory size, so
  // a run under another size must not reuse them: it recompiles when the
  // program still fits, and faults architecturally when it does not.
  cms::MorphingEngine engine{tier3_config()};
  const Program prog = cms::naive_daxpy_program(64);  // needs 129 doubles
  cms::MachineState big(4096);
  EXPECT_GT(engine.run(prog, big).jit_regions, 0u);
  cms::MachineState fits(256);
  const cms::MorphingStats r = engine.run(prog, fits);
  EXPECT_GT(r.jit_regions, 0u);
  cms::MachineState small(64);
  EXPECT_THROW((void)engine.run(prog, small), PreconditionError);
}

TEST(TranslationCacheReplay, PeekDoesNotPerturbAccounting) {
  cms::TranslationCache cache(1 << 12);
  cms::Translator translator;
  const Program prog = cms::naive_daxpy_program(8);
  cache.insert(translator.translate(prog, 0));
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  EXPECT_NE(cache.peek(0), nullptr);
  EXPECT_EQ(cache.peek(9999), nullptr);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
}

TEST(TranslationCacheReplay, ReplayMatchesPerLookupLruState) {
  // Two caches with identical contents; one takes per-block lookups, the
  // other a single replay_hits with the last-execution touch order. The
  // observable LRU state (who gets evicted next) must be identical.
  const Program prog = cms::naive_stencil_program(16);
  cms::Translator translator;
  const std::size_t pcs[] = {0, 7, 12};  // distinct block leaders
  auto fill = [&](cms::TranslationCache& cache) {
    for (const std::size_t pc : pcs) {
      ASSERT_TRUE(cache.insert(translator.translate(prog, pc)));
    }
  };
  cms::TranslationCache by_lookup(1 << 12);
  cms::TranslationCache by_replay(1 << 12);
  fill(by_lookup);
  fill(by_replay);
  // Execution sequence: 0, 7, 0, 12, 7  -> last executions ascending: 0,12,7.
  for (const std::size_t pc : {0u, 7u, 0u, 12u, 7u}) {
    ASSERT_NE(by_lookup.lookup(pc), nullptr);
  }
  by_replay.replay_hits({0, 12, 7}, 5);
  EXPECT_EQ(by_lookup.hits(), by_replay.hits());
  // Evict twice by filling with large translations; the LRU victims must
  // come out in the same order from both caches.
  auto victims = [&](cms::TranslationCache& cache) {
    std::vector<std::size_t> gone;
    for (int i = 0; i < 2; ++i) {
      cms::Translation big = translator.translate(prog, pcs[0]);
      big.entry_pc = 1000 + static_cast<std::size_t>(i);
      // Pad to force one eviction per insert.
      while (big.molecules.size() * 3 < cache.capacity_molecules()) {
        big.molecules.push_back(big.molecules.back());
      }
      (void)cache.insert(std::move(big));
      for (const std::size_t pc : pcs) {
        if (cache.peek(pc) == nullptr &&
            std::find(gone.begin(), gone.end(), pc) == gone.end()) {
          gone.push_back(pc);
        }
      }
    }
    return gone;
  };
  cms::TranslationCache lru_a(64);
  cms::TranslationCache lru_b(64);
  fill(lru_a);
  fill(lru_b);
  for (const std::size_t pc : {0u, 7u, 0u, 12u, 7u}) {
    ASSERT_NE(lru_a.lookup(pc), nullptr);
  }
  lru_b.replay_hits({0, 12, 7}, 5);
  EXPECT_EQ(victims(lru_a), victims(lru_b));
}

TEST(JitDryRun, ReportsLicensedRegionPlans) {
  const LowerReport report = lower_dry_run(cms::naive_daxpy_program(256), 4096);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_GE(report.compiled_regions, 1u);
  EXPECT_GT(report.total_raw_mem_ops, 0u);
  const std::string text = to_string(report);
  EXPECT_NE(text.find("raw memory op"), std::string::npos);
}

TEST(JitDryRun, RefusesInvalidProgram) {
  Program bad;
  bad.push_back(make(Op::kFload, 0, 3, 0, 1 << 20));  // way out of bounds
  bad.push_back(make(Op::kHalt));
  const LowerReport report = lower_dry_run(bad, 64);
  // check_program flags the constant out-of-bounds access; nothing lowers.
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.error.empty());
}

}  // namespace
}  // namespace bladed::jit
