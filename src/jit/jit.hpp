#pragma once

/// `bladed::jit` — the license-gated native execution tier for CMS hot
/// regions (DESIGN.md §14). The morphing engine's two classic tiers
/// interpret cold code and run hot blocks out of the translation cache;
/// this library adds a third: hot, prove-licensed regions are lowered to a
/// directly-threaded host form with bounds checks elided and run in one
/// tight dispatch loop. Entry points:
///
///   make_region_compiler — the cms::RegionCompiler hook, with per-program
///                          analysis (check_program + prove_program)
///                          memoized across entry pcs
///   attach_jit           — wire a MorphingConfig for tier-3: compiler hook
///                          plus (when unset) the verified opt pipeline and
///                          the prove-backed license gate
///   lower_dry_run        — plan every licensed region without executing
///                          (the `bladed-lint --jit` report)
///
/// Trust discipline matches bladed::opt: regions only form inside licensed
/// prove::RegionLicenses, the program must be clean under check_program,
/// and the engine differentially executes every region against the
/// architectural reference on first entry, rolling back to tier-2 on any
/// mismatch. Cycle accounting is attached at region entry/exit from the
/// cached translations' arch-model costs, so engine cycle counts are
/// bit-identical to the two-tier configuration.

#include <cstddef>
#include <string>
#include <vector>

#include "cms/engine.hpp"
#include "cms/isa.hpp"

namespace bladed::jit {

/// The tier-3 region compiler for MorphingConfig::jit_compiler. Analysis
/// (check_program + prove_program + license projection) runs once per
/// distinct program and is memoized behind a content hash, like
/// prove::engine_prover. The returned hook is not thread-safe; give each
/// engine its own.
[[nodiscard]] cms::RegionCompiler make_region_compiler();

/// Make tier-3 the default top tier of `cfg`: installs the region compiler,
/// and — when the caller has not chosen otherwise — the verified optimizer
/// pipeline (bladed::opt) and the prove-backed license gate
/// (prove::engine_prover) that refuse unlicensed hot regions.
void attach_jit(cms::MorphingConfig& cfg);

/// Certified promotion budgets: replaces the raw-execution-count promotion
/// rule with bladed::wcet's certified per-entry dispatch bounds. An entry
/// the certificate proves hot enough that counting would promote it anyway
/// compiles on its *first* native execution (no warm-up laps); an entry
/// certified too cold to ever reach the counting threshold is never
/// compiled (the compile work provably cannot amortize). Programs without
/// a license — unbounded or invalid — fall back to `cfg.jit_threshold`
/// counting, exactly as before. Cycle accounting is unaffected either way
/// (tier-3 bit-identity); only where compilation effort is spent moves.
/// Call after attach_jit; the certificate is memoized per program content.
void attach_certified_budgets(cms::MorphingConfig& cfg);

/// Dry-run lowering plan for one region entry (bladed-lint --jit).
struct RegionPlan {
  std::size_t entry_pc = 0;
  bool compiled = false;
  std::string refusal;          ///< reason when !compiled
  std::size_t member_blocks = 0;
  std::size_t code_length = 0;  ///< directly-threaded instructions emitted
  std::size_t raw_mem_ops = 0;  ///< loads/stores with bounds checks elided
  std::size_t exit_stubs = 0;
};

struct LowerReport {
  bool valid = false;    ///< program analyzable (check + prove clean)
  std::string error;     ///< why not, when !valid
  std::vector<RegionPlan> plans;  ///< one per licensed region entry
  std::size_t compiled_regions = 0;
  std::size_t total_raw_mem_ops = 0;
};

/// Plan the lowering of every licensed region of `prog` against a
/// hypothetically warm translation cache, without executing anything.
[[nodiscard]] LowerReport lower_dry_run(const cms::Program& prog,
                                        std::size_t mem_doubles);

[[nodiscard]] std::string to_string(const LowerReport& report);

}  // namespace bladed::jit
