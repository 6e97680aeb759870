#pragma once

/// The Code Morphing engine: the interpreter and translator "working in
/// tandem" (§2.2). Cold basic blocks are interpreted while execution counts
/// accumulate; when a block crosses the hotspot threshold it is translated
/// into molecules and cached; subsequent executions run native out of the
/// translation cache. Program results are identical in every mode (the
/// engine executes the same architectural semantics), and the cycle
/// accounting exposes the amortization the paper describes.

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cms/interpreter.hpp"
#include "cms/tcache.hpp"
#include "cms/translator.hpp"

namespace bladed::cms {

/// Hook rewriting a program before execution: (program, opt_level,
/// mem_doubles) -> optimized program. The engine stays independent of the
/// optimizer library; callers inject bladed::opt::engine_optimizer().
using ProgramOptimizer =
    std::function<Program(const Program&, int, std::size_t)>;

/// Hook licensing a translation region before it is cached: (program,
/// region begin pc, region end pc, mem_doubles, why) -> true when every
/// memory access in [begin, end) is proven in-bounds. Same decoupling as
/// ProgramOptimizer; callers inject bladed::prove::engine_prover().
using RegionProver = std::function<bool(const Program&, std::size_t,
                                        std::size_t, std::size_t,
                                        std::string*)>;

/// A hot region compiled to host-native (directly-threaded) form by the JIT
/// tier. The engine owns instances through the RegionCompiler hook; the
/// interface keeps src/cms independent of src/jit (same decoupling as
/// ProgramOptimizer / RegionProver).
class CompiledRegion {
 public:
  virtual ~CompiledRegion() = default;

  /// Outcome of executing the region: where the architectural pc ended up,
  /// the arch-model accounting the engine replays into MorphingStats, and
  /// the cached blocks the run touched (ascending by last execution) so the
  /// translation-cache LRU can be replayed exactly.
  struct RunResult {
    std::size_t next_pc = 0;
    bool halted = false;
    std::uint64_t blocks = 0;        ///< dynamic block executions absorbed
    std::uint64_t native_cycles = 0; ///< arch-model cycles for those blocks
    std::vector<std::size_t> touch_order;  ///< entry pcs, last-exec ascending
  };

  /// Execute natively starting at the region entry, for at most `max_blocks`
  /// dynamic blocks. Leaves `st` exactly as the architectural semantics
  /// would.
  virtual RunResult run(MachineState& st, std::uint64_t max_blocks) = 0;

  /// Execute the same region via the architectural reference semantics
  /// (shared exec_instr), with identical stop conditions. Used by the
  /// engine's first-entry differential gate.
  virtual RunResult run_reference(const Program& prog, MachineState& st,
                                  std::uint64_t max_blocks) = 0;

  /// Entry pcs of the cached blocks this region absorbed at compile time.
  /// If any of them is evicted or replaced, the region must be invalidated.
  [[nodiscard]] virtual const std::vector<std::size_t>& member_blocks()
      const = 0;
};

/// Hook compiling a hot licensed region to native form: (program, entry pc,
/// translation cache, mem_doubles, retry, why) -> compiled region or
/// nullptr. On nullptr, `*retry` tells the engine whether to try again later
/// (e.g. member blocks not yet translated) or refuse permanently (no
/// license). `*why` carries a human-readable reason for diagnostics.
using RegionCompiler = std::function<std::unique_ptr<CompiledRegion>(
    const Program&, std::size_t, const TranslationCache&, std::size_t, bool*,
    std::string*)>;

/// Hook choosing the tier-3 promotion budget for one entry pc: (program,
/// mem_doubles, entry_pc) -> native executions before the compiler is
/// tried. Lets a static analysis (bladed::wcet's certified dispatch
/// bounds) replace the raw-count default; the engine falls back to
/// `jit_threshold` when unset. Promotion timing never changes cycle
/// accounting (the compiled tier replays tier-2's), only when compilation
/// work is spent.
using JitBudget =
    std::function<std::uint64_t(const Program&, std::size_t, std::size_t)>;

/// Default for MorphingConfig::verify_translations: on in debug builds,
/// off when NDEBUG is defined (release).
#ifdef NDEBUG
inline constexpr bool kVerifyTranslationsDefault = false;
#else
inline constexpr bool kVerifyTranslationsDefault = true;
#endif

struct MorphingConfig {
  InterpreterCosts interpreter;
  MoleculeLimits molecule;
  TranslatorCosts translator;
  std::size_t cache_molecules = 1 << 16;
  /// Executions of a block before the translator is invoked.
  std::uint64_t hot_threshold = 8;
  /// Run bladed::check::verify_translation on every fresh translation
  /// before it is cached; a finding raises SimulationError. Defaults on in
  /// debug builds (the gate costs one pairwise pass per translated block).
  bool verify_translations = kVerifyTranslationsDefault;
  /// Optimization level handed to `optimizer` before execution; 0 (the
  /// default) runs the program exactly as written. When > 0 and `optimizer`
  /// is set, the engine interprets, translates and verifies the *optimized*
  /// program — translations of optimized regions pass through the same
  /// verify_translations gate as everything else.
  int opt_level = 0;
  ProgramOptimizer optimizer;
  /// When set (and verify_translations is on), every fresh translation must
  /// carry a region license: the prover is asked about the translated pc
  /// range and a refusal raises SimulationError. Unset (the default) the
  /// gate is inert — the engine runs unproven programs exactly as before.
  RegionProver prover;
  /// When set, cached blocks whose native execution count crosses
  /// `jit_threshold` are handed to the compiler; a compiled region becomes
  /// the top execution tier for that entry pc. Unset (the default) the
  /// engine behaves exactly as the two-tier configuration.
  RegionCompiler jit_compiler;
  /// Tier-2 native executions of a block before JIT compilation is tried.
  std::uint64_t jit_threshold = 16;
  /// When set, overrides `jit_threshold` per entry pc (see JitBudget);
  /// bladed::jit::attach_certified_budgets installs the wcet-derived hook.
  JitBudget jit_budget;
  /// Dynamic-block budget for the first-entry differential gate: the region
  /// runs natively and via the architectural reference for at most this many
  /// blocks and the resulting states are compared bitwise. Mismatch demotes
  /// the entry to tier-2 permanently. 0 disables the gate.
  std::uint64_t jit_verify_blocks = 64;
};

struct MorphingStats {
  std::uint64_t total_cycles = 0;
  std::uint64_t interpreted_instructions = 0;
  std::uint64_t interpret_cycles = 0;
  std::uint64_t native_block_executions = 0;
  std::uint64_t native_cycles = 0;
  std::uint64_t translations = 0;
  std::uint64_t translate_cycles = 0;
  std::uint64_t retranslations = 0;  ///< translations of a previously
                                     ///< translated (evicted) block
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t jit_regions = 0;            ///< regions compiled (tier-3)
  std::uint64_t jit_block_executions = 0;   ///< dynamic blocks run in tier-3
  std::uint64_t jit_rollbacks = 0;   ///< differential-gate mismatches
  std::uint64_t jit_refusals = 0;    ///< permanent refusals (no license)
  std::uint64_t jit_invalidations = 0;  ///< regions dropped (member evicted)
};

/// Configuration presets for the CMS versions the paper measured. §2.1:
/// "because CMS typically resides in standard flash ROMs ... improved
/// versions can be downloaded into already-deployed CPUs" — the MetaBlade
/// (CMS 4.2.x) vs MetaBlade2 (CMS 4.3.x) gap is partly this software.
[[nodiscard]] MorphingConfig cms_42x();  ///< as shipped on MetaBlade
/// 4.3.x: a faster translator (lower per-instruction cost), earlier
/// hotspot detection and a larger translation cache.
[[nodiscard]] MorphingConfig cms_43x();

class MorphingEngine {
 public:
  explicit MorphingEngine(MorphingConfig cfg = {});

  /// Run `prog` on `st` until halt (or the instruction budget). Returns the
  /// cycle accounting. Repeated calls with an equal program keep the
  /// translation cache warm, like repeated invocations of the same code on
  /// real hardware; a program with different contents starts cold.
  MorphingStats run(const Program& prog, MachineState& st,
                    std::uint64_t max_block_executions = 200'000'000);

  /// Cycles a pure interpreter (translation disabled) would need — baseline
  /// for the amortization metric.
  std::uint64_t interpret_only_cycles(const Program& prog,
                                      MachineState& st);

  [[nodiscard]] const TranslationCache& cache() const { return cache_; }
  [[nodiscard]] const MorphingConfig& config() const { return cfg_; }
  void reset();

 private:
  /// Tier-3 state for one entry pc: the compiled region plus the gate
  /// bookkeeping (verified once, refused permanently, or invalidated when
  /// the cache evicts a member block after `evictions_at_compile`).
  struct JitEntry {
    std::unique_ptr<CompiledRegion> region;
    bool verified = false;
    std::uint64_t evictions_at_compile = 0;
  };

  /// Runs a compiled region at `pc`, applying the differential first-entry
  /// gate and replaying the absorbed accounting into `stats` and the
  /// translation cache. Returns false when the region was rolled back or
  /// invalidated (caller falls through to tier-2 for this block).
  bool run_jit_region(const Program& prog, std::size_t pc, MachineState& st,
                      std::uint64_t budget, std::size_t& next_pc,
                      bool& halted, std::uint64_t& blocks,
                      MorphingStats& stats);

  /// Dispatch state for one program pc, 16 bytes: the hotspot profile, the
  /// retranslation flag and the tier-3 promotion bookkeeping.
  struct PcState {
    std::uint64_t exec_count : 61 = 0;      ///< cache-miss dispatches
    std::uint64_t ever_translated : 1 = 0;  ///< a retranslation next time
    std::uint64_t jit_refused : 1 = 0;      ///< tier-3 refused for good
    std::uint64_t jit_entry : 1 = 0;        ///< jit_entries_ holds pc
    std::uint64_t native_count = 0;  ///< tier-2 hits toward promotion
  };
  static_assert(sizeof(PcState) == 16);

  /// Point the engine at `prog` before a run on `mem_doubles` of memory.
  /// The translation cache, the profile and the tier-3 state are keyed by
  /// pc alone, so a program whose contents differ from the last one run
  /// starts cold; an equal program at a new address (a fresh optimizer
  /// copy) stays warm.
  void bind_program(const Program& prog, std::size_t mem_doubles);

  MorphingConfig cfg_;
  Interpreter interpreter_;
  Translator translator_;
  TranslationCache cache_;
  Translation scratch_;  ///< translator output, recycled through the cache
  std::vector<PcState> pcs_;  ///< indexed by pc of the bound program
  std::uint64_t program_hash_ = 0;  ///< content_hash of the bound program
  std::unordered_map<std::size_t, JitEntry> jit_entries_;
  std::size_t jit_mem_doubles_ = 0;  ///< memory size jit_entries_ serve
};

}  // namespace bladed::cms
