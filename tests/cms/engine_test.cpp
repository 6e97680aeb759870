#include "cms/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "cms/programs.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"

namespace bladed::cms {
namespace {

MachineState daxpy_state(std::int64_t n) {
  MachineState st(static_cast<std::size_t>(2 * n + 8));
  for (std::int64_t i = 0; i < n; ++i) {
    st.mem[static_cast<std::size_t>(i)] = static_cast<double>(i);
    st.mem[static_cast<std::size_t>(n + i)] = 1.0;
  }
  return st;
}

TEST(Interpreter, DaxpyComputesCorrectResult) {
  const std::int64_t n = 100;
  MachineState st = daxpy_state(n);
  Interpreter interp;
  const InterpretResult r = interp.run(daxpy_program(n), st);
  EXPECT_TRUE(r.halted);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(st.mem[static_cast<std::size_t>(n + i)],
                     1.0 + 2.5 * static_cast<double>(i));
  }
  // 3 setup + 7 per iteration + halt.
  EXPECT_EQ(r.instructions, 3u + 7u * 100u + 1u);
}

TEST(Interpreter, CollectsBlockCounts) {
  const std::int64_t n = 50;
  MachineState st = daxpy_state(n);
  Interpreter interp;
  interp.run(daxpy_program(n), st);
  const auto& counts = interp.block_counts();
  // The entry region (which falls through into the loop body and executes
  // it once) runs once; the loop-head region at pc 3 runs the remaining
  // n-1 iterations.
  EXPECT_EQ(counts.at(0), 1u);
  EXPECT_EQ(counts.at(3), 49u);
}

TEST(MorphingEngine, ResultsIdenticalToInterpreter) {
  for (auto make : {+[] { return daxpy_program(64); },
                    +[] { return nr_rsqrt_program(30); },
                    +[] { return branchy_program(41); },
                    +[] { return many_blocks_program(5, 20); }}) {
    const Program prog = make();
    MachineState a(512), b(512);
    a.mem[0] = 4.0;
    b.mem[0] = 4.0;
    Interpreter pure;
    pure.run(prog, a);
    MorphingEngine engine;
    engine.run(prog, b);
    for (std::size_t i = 0; i < a.mem.size(); ++i) {
      ASSERT_DOUBLE_EQ(a.mem[i], b.mem[i]) << "mem[" << i << "]";
    }
  }
}

TEST(MorphingEngine, UnrolledDaxpyMatchesRolledResults) {
  const std::int64_t n = 66;
  MachineState rolled(256), unrolled(256);
  for (std::int64_t i = 0; i < n; ++i) {
    rolled.mem[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i);
    unrolled.mem[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i);
  }
  MorphingEngine engine;
  engine.run(unrolled_daxpy_program(n, 3), unrolled);
  // The unrolled program computes y[i] = a*x[i]; evaluate directly.
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(unrolled.mem[static_cast<std::size_t>(n + i)],
                     2.5 * 0.5 * static_cast<double>(i));
  }
}

TEST(MorphingEngine, WiderMoleculesPackComputeBoundCodeDenser) {
  // A compute-bound block with independent ALU/FPU/LSU work: the 128-bit
  // molecule (2 ALU + FPU + LSU per cycle) beats the 64-bit one. For
  // memory-bound loops the single LSU binds both widths equally — which is
  // why the ablation bench shows near-identical numbers for plain daxpy.
  Program prog;
  for (int u = 0; u < 6; ++u) {
    Instr in;
    in.op = Op::kAddi;
    in.a = 1 + u;
    in.b = 0;
    in.imm_i = u;
    prog.push_back(in);
  }
  for (int u = 0; u < 3; ++u) {
    Instr in;
    in.op = Op::kFmovi;
    in.a = u;
    in.imm_f = 1.5 * u;
    prog.push_back(in);
  }
  for (int u = 0; u < 2; ++u) {
    Instr in;
    in.op = Op::kFload;
    in.a = 4 + u;
    in.b = 0;
    in.imm_i = u;
    prog.push_back(in);
  }
  Instr halt;
  halt.op = Op::kHalt;
  prog.push_back(halt);

  Translator narrow(MoleculeLimits{2, 1, 1, 1, 1}, TranslatorCosts{});
  Translator wide;  // 4 atoms, 2 ALU
  const Translation tn = narrow.translate(prog, 0);
  const Translation tw = wide.translate(prog, 0);
  EXPECT_LT(tw.native_cycles(), tn.native_cycles());
  EXPECT_GT(tw.density(), tn.density());
}

TEST(MorphingEngine, NrRsqrtConverges) {
  const Program prog = nr_rsqrt_program(20);
  MachineState st(64);
  st.mem[0] = 2.0;  // rsqrt(2) = 0.7071...
  MorphingEngine engine;
  engine.run(prog, st);
  EXPECT_NEAR(st.mem[1], 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(MorphingEngine, HotLoopGetsTranslated) {
  const Program prog = daxpy_program(1000);
  MachineState st = daxpy_state(1000);
  MorphingEngine engine;
  const MorphingStats s = engine.run(prog, st);
  EXPECT_GE(s.translations, 1u);
  EXPECT_GT(s.native_block_executions, 900u);  // most iterations run native
  EXPECT_GT(s.cache_hits, 900u);
}

TEST(MorphingEngine, ColdCodeStaysInterpreted) {
  // Threshold 8: a loop of 4 iterations never gets hot.
  const Program prog = daxpy_program(4);
  MachineState st = daxpy_state(4);
  MorphingEngine engine;
  const MorphingStats s = engine.run(prog, st);
  EXPECT_EQ(s.translations, 0u);
  EXPECT_EQ(s.native_block_executions, 0u);
  EXPECT_GT(s.interpreted_instructions, 0u);
}

TEST(MorphingEngine, TranslationAmortizesOverIterations) {
  // §2.2: "the initial cost of the translation is amortized over repeated
  // executions" — cycles per iteration fall as the trip count grows.
  auto cycles_per_iter = [](std::int64_t n) {
    const Program prog = daxpy_program(n);
    MachineState st = daxpy_state(n);
    MorphingEngine engine;
    const MorphingStats s = engine.run(prog, st);
    return static_cast<double>(s.total_cycles) / static_cast<double>(n);
  };
  const double c100 = cycles_per_iter(100);
  const double c10k = cycles_per_iter(10000);
  EXPECT_LT(c10k, 0.5 * c100);
  // And at large trip counts CMS beats pure interpretation by a lot.
  const Program prog = daxpy_program(20000);
  MachineState st1 = daxpy_state(20000);
  MachineState st2 = daxpy_state(20000);
  MorphingEngine engine;
  const MorphingStats s = engine.run(prog, st1);
  const std::uint64_t interp = engine.interpret_only_cycles(prog, st2);
  EXPECT_GT(static_cast<double>(interp) / static_cast<double>(s.total_cycles),
            3.0);
}

TEST(MorphingEngine, WarmCacheAcrossRuns) {
  const Program prog = daxpy_program(500);
  MorphingEngine engine;
  MachineState st1 = daxpy_state(500);
  const MorphingStats cold = engine.run(prog, st1);
  MachineState st2 = daxpy_state(500);
  const MorphingStats warm = engine.run(prog, st2);
  EXPECT_EQ(warm.translations, 0u);  // still cached
  EXPECT_LT(warm.total_cycles, cold.total_cycles);
}

TEST(MorphingEngine, TinyCacheCausesRetranslation) {
  // Many hot blocks, cache big enough for only a few: evictions force
  // re-translation (the paper's motivation for a large translation cache).
  MorphingConfig small;
  small.cache_molecules = 8;
  small.hot_threshold = 2;
  MorphingEngine engine(small);
  const Program prog = many_blocks_program(12, 500);
  MachineState st(256);
  const MorphingStats s = engine.run(prog, st);
  EXPECT_GT(s.cache_evictions, 0u);
  EXPECT_GT(s.retranslations, 0u);

  // A generous cache eliminates the re-translations.
  MorphingConfig big;
  big.hot_threshold = 2;
  MorphingEngine engine2(big);
  MachineState st2(256);
  const MorphingStats s2 = engine2.run(prog, st2);
  EXPECT_EQ(s2.retranslations, 0u);
  EXPECT_LT(s2.total_cycles, s.total_cycles);
}

TEST(MorphingEngine, BranchyCodeTranslatesMoreRegionsButStillWins) {
  // The branchy loop splits into several short hot regions (loop head, the
  // two paths, the rejoin), each translated separately, while daxpy has one
  // hot loop body; both still beat interpretation clearly once hot.
  auto run = [](const Program& prog, std::size_t mem) {
    MachineState a(mem), b(mem);
    MorphingEngine engine;
    const MorphingStats s = engine.run(prog, a);
    const std::uint64_t interp = engine.interpret_only_cycles(prog, b);
    return std::pair<MorphingStats, double>(
        s, static_cast<double>(interp) / static_cast<double>(s.total_cycles));
  };
  const auto [daxpy_stats, daxpy_speedup] = run(daxpy_program(5000), 20000);
  const auto [branchy_stats, branchy_speedup] =
      run(branchy_program(5000), 64);
  EXPECT_GT(branchy_stats.translations, daxpy_stats.translations);
  EXPECT_GT(daxpy_speedup, 2.0);
  EXPECT_GT(branchy_speedup, 2.0);
}

TEST(MorphingEngine, Cms43BeatsCms42OnTheSameProgram) {
  // The flash-upgradeable CMS story (§2.1): the newer translator reaches
  // native execution sooner and pays less per translation.
  const Program prog = daxpy_program(2000);
  MachineState a = daxpy_state(2000), b = daxpy_state(2000);
  MorphingEngine old_cms(cms_42x());
  MorphingEngine new_cms(cms_43x());
  const MorphingStats s42 = old_cms.run(prog, a);
  const MorphingStats s43 = new_cms.run(prog, b);
  EXPECT_LT(s43.total_cycles, s42.total_cycles);
  EXPECT_LE(s43.interpreted_instructions, s42.interpreted_instructions);
  // Results identical, of course.
  for (std::size_t i = 0; i < a.mem.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.mem[i], b.mem[i]);
  }
}

TEST(MorphingEngine, StatsAreInternallyConsistent) {
  const Program prog = daxpy_program(2000);
  MachineState st = daxpy_state(2000);
  MorphingEngine engine;
  const MorphingStats s = engine.run(prog, st);
  EXPECT_EQ(s.total_cycles,
            s.interpret_cycles + s.translate_cycles + s.native_cycles);
  EXPECT_EQ(s.cache_hits + s.cache_misses,
            engine.cache().hits() + engine.cache().misses());
}

TEST(MorphingEngine, ResetClearsCache) {
  const Program prog = daxpy_program(500);
  MorphingEngine engine;
  MachineState st = daxpy_state(500);
  engine.run(prog, st);
  engine.reset();
  EXPECT_EQ(engine.cache().entries(), 0u);
  MachineState st2 = daxpy_state(500);
  const MorphingStats again = engine.run(prog, st2);
  EXPECT_GE(again.translations, 1u);  // must re-translate after reset
}

void expect_same_stats(const MorphingStats& a, const MorphingStats& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.interpreted_instructions, b.interpreted_instructions);
  EXPECT_EQ(a.interpret_cycles, b.interpret_cycles);
  EXPECT_EQ(a.native_block_executions, b.native_block_executions);
  EXPECT_EQ(a.native_cycles, b.native_cycles);
  EXPECT_EQ(a.translations, b.translations);
  EXPECT_EQ(a.translate_cycles, b.translate_cycles);
  EXPECT_EQ(a.retranslations, b.retranslations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.jit_regions, b.jit_regions);
  EXPECT_EQ(a.jit_block_executions, b.jit_block_executions);
  EXPECT_EQ(a.jit_rollbacks, b.jit_rollbacks);
  EXPECT_EQ(a.jit_refusals, b.jit_refusals);
  EXPECT_EQ(a.jit_invalidations, b.jit_invalidations);
}

bool same_state(const MachineState& a, const MachineState& b) {
  return std::memcmp(a.r, b.r, sizeof a.r) == 0 &&
         std::memcmp(a.f, b.f, sizeof a.f) == 0 && a.mem == b.mem;
}

TEST(MorphingEngine, ReusedEngineMatchesFreshOnADifferentProgram) {
  // The cache and the profile are keyed by pc, so a warm engine handed a
  // different program must start cold rather than run the old program's
  // translations.
  MorphingEngine reused;
  MachineState warmup(1024);
  (void)reused.run(naive_daxpy_program(256), warmup);
  MachineState a(1024);
  const MorphingStats sa = reused.run(naive_stencil_program(256), a);
  MorphingEngine fresh;
  MachineState b(1024);
  const MorphingStats sb = fresh.run(naive_stencil_program(256), b);
  expect_same_stats(sa, sb);
  EXPECT_EQ(sa.translations, 1u);
  EXPECT_TRUE(same_state(a, b));
}

TEST(MorphingEngine, EqualProgramCopyStaysWarm) {
  // A distinct but equal Program object (and the optimizer's fresh copy on
  // every run) reuses the warm cache.
  MorphingEngine engine;
  MachineState st1 = daxpy_state(500);
  EXPECT_GE(engine.run(daxpy_program(500), st1).translations, 1u);
  const Program copy = daxpy_program(500);
  MachineState st2 = daxpy_state(500);
  EXPECT_EQ(engine.run(copy, st2).translations, 0u);

  MorphingConfig cfg;
  cfg.opt_level = 2;
  cfg.optimizer = opt::engine_optimizer();
  MorphingEngine optimizing(cfg);
  MachineState st3(1024);
  EXPECT_GE(optimizing.run(naive_daxpy_program(256), st3).translations, 1u);
  MachineState st4(1024);
  EXPECT_EQ(optimizing.run(naive_daxpy_program(256), st4).translations, 0u);
  EXPECT_TRUE(same_state(st3, st4));
}

TEST(MorphingEngine, PinnedCacheThrashAtEveryTier) {
  // Undersized caches, so eviction and retranslation run: many_blocks
  // overflows cyclically (LRU then never hits), branchy mixes hits with
  // evictions. Values are the engine's accounting as of the hash-map
  // dispatch implementation; tier-3 must replay tier-2's exactly.
  struct Expect {
    std::uint64_t total_cycles, translations, retranslations, evictions,
        hits;
  };
  struct Case {
    const char* name;
    Program prog;
    std::size_t mem, cache_molecules;
    std::uint64_t hot_threshold;
    Expect interp[2], native[2];  // cold run, warm run
  };
  const Case cases[] = {
      {"many_blocks_40x50",
       many_blocks_program(40, 50),
       64,
       64,
       8,
       {{111364, 0, 0, 0, 0}, {111364, 0, 0, 0, 0}},
       {{6297172, 1763, 1722, 1747, 0}, {7304164, 2050, 2050, 2050, 0}}},
      {"branchy_2000",
       branchy_program(2000),
       16,
       8,
       2,
       {{201077, 0, 0, 0, 0}, {201077, 0, 0, 0, 0}},
       {{11707460, 2998, 2994, 2995, 1997},
        {11725203, 3003, 3001, 3002, 1998}}},
  };
  for (const Case& c : cases) {
    for (int tier = 1; tier <= 3; ++tier) {
      MorphingConfig cfg;
      cfg.cache_molecules = c.cache_molecules;
      cfg.hot_threshold = tier == 1 ? std::numeric_limits<std::uint64_t>::max()
                                    : c.hot_threshold;
      if (tier == 3) {
        jit::attach_jit(cfg);
        cfg.optimizer = nullptr;
        cfg.prover = nullptr;
      }
      MorphingEngine engine(cfg);
      for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE(std::string(c.name) + " tier " + std::to_string(tier) +
                     " run " + std::to_string(run));
        MachineState st(c.mem);
        const MorphingStats s = engine.run(c.prog, st);
        const Expect& e = tier == 1 ? c.interp[run] : c.native[run];
        EXPECT_EQ(s.total_cycles, e.total_cycles);
        EXPECT_EQ(s.translations, e.translations);
        EXPECT_EQ(s.retranslations, e.retranslations);
        EXPECT_EQ(s.cache_evictions, e.evictions);
        EXPECT_EQ(s.cache_hits, e.hits);
      }
    }
  }
}

TEST(MorphingEngine, ConcurrentEnginesMatchSerialRuns) {
  // Each engine's translator works in per-thread scratch; two engines
  // translating on two threads at once must account exactly as serially,
  // and a Translator shared by both threads must produce identical
  // schedules.
  struct Job {
    Program prog;
    std::size_t mem;
    MorphingConfig cfg;
  };
  MorphingConfig thrash;
  thrash.cache_molecules = 64;
  MorphingConfig tiny;
  tiny.cache_molecules = 8;
  tiny.hot_threshold = 2;
  const Job jobs[2] = {{many_blocks_program(40, 50), 64, thrash},
                       {branchy_program(2000), 16, tiny}};
  MorphingStats serial[2][2];
  MachineState serial_state[2] = {MachineState(64), MachineState(16)};
  for (int j = 0; j < 2; ++j) {
    MorphingEngine engine(jobs[j].cfg);
    for (int run = 0; run < 2; ++run) {
      serial_state[j] = MachineState(jobs[j].mem);
      serial[j][run] = engine.run(jobs[j].prog, serial_state[j]);
    }
  }
  const Translator shared;
  const Program blocks = many_blocks_program(300, 1);
  std::vector<std::size_t> leaders;
  for (std::size_t pc = 0; pc < blocks.size(); pc = block_end(blocks, pc)) {
    leaders.push_back(pc);
  }
  std::vector<Translation> reference;
  for (const std::size_t pc : leaders) {
    reference.push_back(shared.translate(blocks, pc));
  }

  MorphingStats threaded[2][2];
  MachineState threaded_state[2] = {MachineState(64), MachineState(16)};
  bool schedules_match[2] = {true, true};
  {
    std::vector<std::jthread> pool;
    for (int j = 0; j < 2; ++j) {
      pool.emplace_back([&, j] {
        MorphingEngine engine(jobs[j].cfg);
        for (int run = 0; run < 2; ++run) {
          threaded_state[j] = MachineState(jobs[j].mem);
          threaded[j][run] = engine.run(jobs[j].prog, threaded_state[j]);
          for (std::size_t i = 0; i < leaders.size(); ++i) {
            const Translation t = shared.translate(blocks, leaders[i]);
            const Translation& r = reference[i];
            bool same = t.entry_pc == r.entry_pc &&
                        t.instr_count == r.instr_count &&
                        t.molecules.size() == r.molecules.size();
            for (std::size_t m = 0; same && m < t.molecules.size(); ++m) {
              same = t.molecules[m].atoms == r.molecules[m].atoms &&
                     t.molecules[m].stall == r.molecules[m].stall &&
                     t.molecules[m].atom_pc == r.molecules[m].atom_pc;
            }
            schedules_match[j] = schedules_match[j] && same;
          }
        }
      });
    }
  }
  for (int j = 0; j < 2; ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    expect_same_stats(serial[j][0], threaded[j][0]);
    expect_same_stats(serial[j][1], threaded[j][1]);
    EXPECT_TRUE(same_state(serial_state[j], threaded_state[j]));
    EXPECT_TRUE(schedules_match[j]);
  }
}

}  // namespace
}  // namespace bladed::cms
