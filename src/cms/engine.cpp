#include "cms/engine.hpp"

#include <algorithm>
#include <cstring>

#include "check/verify_translation.hpp"

namespace bladed::cms {

MorphingConfig cms_42x() {
  MorphingConfig c;
  c.translator.cycles_per_instruction = 900;
  c.hot_threshold = 8;
  c.cache_molecules = 1 << 16;
  return c;
}

MorphingConfig cms_43x() {
  MorphingConfig c;
  c.translator.cycles_per_instruction = 600;
  c.hot_threshold = 4;
  c.cache_molecules = 1 << 17;
  return c;
}

MorphingEngine::MorphingEngine(MorphingConfig cfg)
    : cfg_(cfg),
      interpreter_(cfg.interpreter),
      translator_(cfg.molecule, cfg.translator),
      cache_(cfg.cache_molecules) {}

void MorphingEngine::reset() {
  cache_.clear();
  pcs_.clear();
  jit_entries_.clear();
  jit_mem_doubles_ = 0;
  interpreter_.reset_counts();
}

void MorphingEngine::bind_program(const Program& prog,
                                  std::size_t mem_doubles) {
  // Programs are never empty (validate), so an empty pcs_ means unbound.
  const std::uint64_t hash = content_hash(prog);
  if (prog.size() != pcs_.size() || hash != program_hash_) {
    reset();
    pcs_.assign(prog.size(), PcState{});
    program_hash_ = hash;
  }
  // Compiled regions run without bounds checks on the strength of licenses
  // proved for one memory size; under another they are recompiled from
  // fresh promotion counts.
  if (mem_doubles != jit_mem_doubles_) {
    jit_entries_.clear();
    for (PcState& p : pcs_) {
      p.native_count = 0;
      p.jit_refused = 0;
      p.jit_entry = 0;
    }
    jit_mem_doubles_ = mem_doubles;
  }
}

namespace {
/// Execute the block [pc, end) architecturally (shared semantics); returns
/// the next pc, sets `halted` when a halt retires.
std::size_t exec_block(const Program& prog, MachineState& st, std::size_t pc,
                       std::size_t end, bool& halted) {
  while (pc < end) {
    const Instr& in = prog[pc];
    if (in.op == Op::kHalt) {
      halted = true;
      return pc;
    }
    const std::size_t next = exec_instr(in, pc, st);
    if (is_branch(in.op)) return next;
    pc = next;
  }
  return pc;
}

/// Bitwise machine-state comparison for the differential gate. Doubles are
/// compared as raw bytes on purpose: the native tier must reproduce the
/// architectural result exactly, not approximately.
bool states_equal(const MachineState& a, const MachineState& b) {
  return a.mem.size() == b.mem.size() &&
         std::memcmp(a.r, b.r, sizeof(a.r)) == 0 &&
         std::memcmp(a.f, b.f, sizeof(a.f)) == 0 &&
         (a.mem.empty() ||
          std::memcmp(a.mem.data(), b.mem.data(),
                      a.mem.size() * sizeof(double)) == 0);
}
}  // namespace

MorphingStats MorphingEngine::run(const Program& source, MachineState& st,
                                  std::uint64_t max_block_executions) {
  validate(source, st.mem.size());
  // Rewrite through the optimizer hook first, so the profile counts, the
  // translator and the verify_translations gate below all see the program
  // that actually executes.
  Program optimized;
  if (cfg_.opt_level > 0 && cfg_.optimizer) {
    optimized = cfg_.optimizer(source, cfg_.opt_level, st.mem.size());
    validate(optimized, st.mem.size());
  }
  const Program& prog = optimized.empty() ? source : optimized;
  bind_program(prog, st.mem.size());
  const std::vector<std::size_t>& ends = interpreter_.block_ends(prog);
  MorphingStats s;
  const std::uint64_t hits0 = cache_.hits();
  const std::uint64_t misses0 = cache_.misses();
  const std::uint64_t evict0 = cache_.evictions();

  std::size_t pc = 0;
  bool halted = false;
  std::uint64_t blocks = 0;
  while (!halted && pc < prog.size() && blocks < max_block_executions) {
    PcState& ps = pcs_[pc];
    // Tier-3: a compiled region at this pc is the top tier. On rollback or
    // invalidation the entry disappears and we fall through to tier-2.
    if (ps.jit_entry) {
      std::size_t next = pc;
      if (run_jit_region(prog, pc, st, max_block_executions - blocks, next,
                         halted, blocks, s)) {
        pc = next;
        continue;
      }
    }
    ++blocks;
    std::uint64_t native = 0;
    if (cache_.lookup(pc, &native) != nullptr) {
      // Native execution out of the translation cache.
      const std::size_t entry = pc;
      pc = exec_block(prog, st, pc, ends[pc], halted);
      ++s.native_block_executions;
      s.native_cycles += native;
      // Tier-3 promotion: after jit_threshold native executions, hand the
      // region to the compiler. nullptr + retry backs off for another round
      // (e.g. successor blocks not yet translated); nullptr without retry is
      // a permanent refusal (no license).
      if (cfg_.jit_compiler && !ps.jit_refused && !ps.jit_entry &&
          ++ps.native_count >=
              (cfg_.jit_budget ? cfg_.jit_budget(prog, st.mem.size(), entry)
                               : cfg_.jit_threshold)) {
        bool retry = false;
        std::string why;
        auto region = cfg_.jit_compiler(prog, entry, cache_, st.mem.size(),
                                        &retry, &why);
        if (region) {
          ++s.jit_regions;
          jit_entries_[entry] =
              JitEntry{std::move(region), false, cache_.evictions()};
          ps.jit_entry = 1;
        } else if (retry) {
          ps.native_count = 0;
        } else {
          ps.jit_refused = 1;
          ++s.jit_refusals;
        }
      }
      continue;
    }
    ++ps.exec_count;
    if (ps.exec_count >= cfg_.hot_threshold) {
      // Hot: invoke the translator, cache the result, run native.
      Translation& t = scratch_;
      translator_.translate(prog, pc, t);
      if (cfg_.verify_translations) {
        const check::Report report =
            check::verify_translation(prog, t, translator_.limits());
        if (!report.ok()) {
          throw SimulationError(
              "CMS translation of block at pc " + std::to_string(pc) +
              " failed static verification:\n" + report.to_string());
        }
        if (cfg_.prover) {
          std::string why;
          if (!cfg_.prover(prog, pc, ends[pc], st.mem.size(), &why)) {
            throw SimulationError("CMS translation of block at pc " +
                                  std::to_string(pc) +
                                  " carries no region license: " + why);
          }
        }
      }
      s.translate_cycles += translator_.translation_cost(t.instr_count);
      ++s.translations;
      if (ps.ever_translated) ++s.retranslations;
      ps.ever_translated = 1;
      s.native_cycles += t.native_cycles();
      // On success the cache hands back a recycled molecule buffer, so the
      // next translation into scratch_ allocates nothing.
      cache_.insert_recycling(t);
      pc = exec_block(prog, st, pc, ends[pc], halted);
      ++s.native_block_executions;
      continue;
    }
    // Cold: interpret, collecting statistics.
    InterpretResult r;
    pc = interpreter_.run_block(prog, st, pc, r);
    halted = r.halted;
    s.interpreted_instructions += r.instructions;
    s.interpret_cycles += r.cycles;
  }

  s.cache_hits = cache_.hits() - hits0;
  s.cache_misses = cache_.misses() - misses0;
  s.cache_evictions = cache_.evictions() - evict0;
  s.total_cycles = s.interpret_cycles + s.translate_cycles + s.native_cycles;
  return s;
}

bool MorphingEngine::run_jit_region(const Program& prog, std::size_t pc,
                                    MachineState& st, std::uint64_t budget,
                                    std::size_t& next_pc, bool& halted,
                                    std::uint64_t& blocks,
                                    MorphingStats& stats) {
  const auto it = jit_entries_.find(pc);
  JitEntry& entry = it->second;
  // Invalidate when the cache evicted anything since compile time and a
  // member block is gone: tier-2 would miss and retranslate there, which the
  // frozen region cannot model. The entry pc falls back to tier-2; a later
  // re-promotion recompiles against the current cache contents.
  if (cache_.evictions() != entry.evictions_at_compile) {
    for (const std::size_t member : entry.region->member_blocks()) {
      if (cache_.peek(member) == nullptr) {
        jit_entries_.erase(it);
        pcs_[pc].native_count = 0;
        pcs_[pc].jit_entry = 0;
        ++stats.jit_invalidations;
        return false;
      }
    }
    entry.evictions_at_compile = cache_.evictions();
  }
  CompiledRegion::RunResult res;
  if (!entry.verified && cfg_.jit_verify_blocks > 0) {
    // First-entry differential gate: run the region natively and through the
    // architectural reference from the same snapshot, then compare bitwise.
    // The budget is capped so the double execution stays cheap; the region
    // resumes (now trusted) on the next loop iteration.
    const std::uint64_t gate =
        std::min<std::uint64_t>(budget, cfg_.jit_verify_blocks);
    MachineState reference = st;
    res = entry.region->run(st, gate);
    CompiledRegion::RunResult ref =
        entry.region->run_reference(prog, reference, gate);
    const bool match =
        res.next_pc == ref.next_pc && res.halted == ref.halted &&
        res.blocks == ref.blocks && res.native_cycles == ref.native_cycles &&
        res.touch_order == ref.touch_order && states_equal(st, reference);
    if (match) {
      entry.verified = true;
    } else {
      // Rollback: the architectural result stands and the entry is demoted
      // to tier-2 permanently.
      st = std::move(reference);
      res = std::move(ref);
      jit_entries_.erase(it);
      pcs_[pc].jit_entry = 0;
      pcs_[pc].jit_refused = 1;
      ++stats.jit_rollbacks;
    }
  } else {
    res = entry.region->run(st, budget);
  }
  // Replay the accounting the region absorbed, exactly as per-block tier-2
  // execution would have produced it: every dynamic block was a cache hit on
  // a resident translation, and the LRU ends up in last-execution order.
  cache_.replay_hits(res.touch_order, res.blocks);
  stats.native_block_executions += res.blocks;
  stats.native_cycles += res.native_cycles;
  stats.jit_block_executions += res.blocks;
  next_pc = res.next_pc;
  halted = res.halted;
  blocks += res.blocks;
  return true;
}

std::uint64_t MorphingEngine::interpret_only_cycles(const Program& prog,
                                                    MachineState& st) {
  Interpreter pure(cfg_.interpreter);
  const InterpretResult r = pure.run(prog, st);
  return r.cycles;
}

}  // namespace bladed::cms
