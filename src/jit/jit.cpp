#include "jit/jit.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "jit/compile.hpp"
#include "opt/opt.hpp"
#include "prove/prove.hpp"
#include "wcet/wcet.hpp"

namespace bladed::jit {

cms::RegionCompiler make_region_compiler() {
  auto cache = std::make_shared<std::unordered_map<std::uint64_t, ProgramFacts>>();
  return [cache](const cms::Program& prog, std::size_t entry_pc,
                 const cms::TranslationCache& tcache, std::size_t mem_doubles,
                 bool* retry, std::string* why)
             -> std::unique_ptr<cms::CompiledRegion> {
    const std::uint64_t key = cms::content_hash(prog, mem_doubles);
    auto it = cache->find(key);
    if (it == cache->end()) {
      it = cache->emplace(key, analyze_program(prog, mem_doubles)).first;
    }
    return compile_region(prog, entry_pc, &tcache, it->second, retry, why);
  };
}

void attach_jit(cms::MorphingConfig& cfg) {
  cfg.jit_compiler = make_region_compiler();
  // Tier-3 presumes the verified stack underneath it: the opt pipeline
  // rewrites the program before lowering, and the prover refuses unlicensed
  // hot regions at the tier-2 gate. Respect the caller's choices when set.
  if (!cfg.optimizer) cfg.optimizer = opt::engine_optimizer();
  if (!cfg.prover) cfg.prover = prove::engine_prover();
}

void attach_certified_budgets(cms::MorphingConfig& cfg) {
  const wcet::CostParams costs = wcet::CostParams::from(cfg);
  const std::uint64_t fallback = cfg.jit_threshold;
  // Interpreted warm-up dispatches before the first translation; only
  // dispatches after it can be cache hits, which is what the engine's
  // per-pc native count measures against the budget.
  const std::uint64_t warmup =
      costs.hot_threshold == 0 ? 0 : costs.hot_threshold - 1;
  auto memo = std::make_shared<
      std::unordered_map<std::uint64_t,
                         std::unordered_map<std::size_t, std::uint64_t>>>();
  cfg.jit_budget = [costs, fallback, warmup, memo](
                       const cms::Program& prog, std::size_t mem_doubles,
                       std::size_t entry_pc) -> std::uint64_t {
    const std::uint64_t key = cms::content_hash(prog, mem_doubles);
    auto it = memo->find(key);
    if (it == memo->end()) {
      std::unordered_map<std::size_t, std::uint64_t> budgets;
      const wcet::Certificate cert = wcet::certify(prog, mem_doubles, costs);
      if (cert.valid && cert.bounded) {
        for (const wcet::EntryCost& e : cert.entries) {
          // Cache hits possible at this entry: dispatches minus the
          // interpreted warm-up minus the translate-and-run dispatch.
          const std::uint64_t hits =
              e.max_dispatches > warmup + 1 ? e.max_dispatches - warmup - 1
                                            : 0;
          budgets[e.entry_pc] =
              hits >= fallback
                  ? 1  // certified hot: counting would get there anyway
                  : std::numeric_limits<std::uint64_t>::max();  // never
        }
      }
      it = memo->emplace(key, std::move(budgets)).first;
    }
    const auto b = it->second.find(entry_pc);
    return b == it->second.end() ? fallback : b->second;
  };
}

LowerReport lower_dry_run(const cms::Program& prog, std::size_t mem_doubles) {
  LowerReport report;
  const ProgramFacts facts = analyze_program(prog, mem_doubles);
  if (!facts.valid) {
    report.error = facts.error;
    return report;
  }
  report.valid = true;
  const prove::ProveResult proof = prove::prove_program(prog, mem_doubles);
  for (const prove::RegionLicense& region : proof.regions) {
    if (!region.licensed) continue;
    RegionPlan plan;
    plan.entry_pc = region.entry_pc;
    bool retry = false;
    std::string why;
    const std::unique_ptr<JitRegion> compiled =
        compile_region(prog, region.entry_pc, nullptr, facts, &retry, &why);
    if (compiled) {
      plan.compiled = true;
      plan.member_blocks = compiled->blocks().size();
      plan.code_length = compiled->code().size();
      plan.raw_mem_ops = compiled->raw_mem_ops();
      plan.exit_stubs = compiled->exit_stub_count();
      ++report.compiled_regions;
      report.total_raw_mem_ops += plan.raw_mem_ops;
    } else {
      plan.refusal = why;
    }
    report.plans.push_back(std::move(plan));
  }
  return report;
}

std::string to_string(const LowerReport& report) {
  std::ostringstream out;
  if (!report.valid) {
    out << "jit: program not lowerable: " << report.error << "\n";
    return out.str();
  }
  out << "jit: " << report.compiled_regions << "/" << report.plans.size()
      << " licensed region(s) lower, " << report.total_raw_mem_ops
      << " raw memory op(s) total\n";
  for (const RegionPlan& plan : report.plans) {
    out << "  region @pc " << plan.entry_pc << ": ";
    if (plan.compiled) {
      out << plan.member_blocks << " block(s), " << plan.code_length
          << " jit instr(s), " << plan.raw_mem_ops << " raw mem op(s), "
          << plan.exit_stubs << " exit stub(s)\n";
    } else {
      out << "refused: " << plan.refusal << "\n";
    }
  }
  return out.str();
}

}  // namespace bladed::jit
