#pragma once

/// The CMS translator module (§2.1-2.2): re-compiles a hot basic block of
/// x86-like instructions into VLIW *molecules*. A molecule is 64 or 128 bits
/// and carries up to four RISC *atoms*, routed by format to the functional
/// units — two integer ALUs, one FPU, one load/store unit, one branch unit.
/// Molecules execute strictly in order (no out-of-order hardware), so the
/// translator performs dependence-aware list scheduling at translation time.

#include <array>
#include <vector>

#include "cms/isa.hpp"

namespace bladed::cms {

/// Per-molecule resource limits (the TM5600 configuration from §2.1).
struct MoleculeLimits {
  int max_atoms = 4;  ///< 128-bit molecule
  int alu = 2;
  int fpu = 1;
  int lsu = 1;
  int branch = 1;
};

struct Molecule {
  std::array<std::uint32_t, 4> atom_pc;  ///< source instruction indices
  int atoms = 0;
  /// Extra issue-stall cycles after this molecule (unpipelined fdiv/fsqrt).
  int stall = 0;
};

struct Translation {
  std::size_t entry_pc = 0;
  std::size_t instr_count = 0;       ///< source instructions covered
  std::vector<Molecule> molecules;
  /// Native cycles for one execution of the block: one per molecule plus
  /// stalls.
  [[nodiscard]] std::uint64_t native_cycles() const;
  /// Packing density: atoms per molecule.
  [[nodiscard]] double density() const;
};

struct TranslatorCosts {
  /// One-time translation cost per source instruction, native cycles. This
  /// is the investment the translation cache amortizes.
  int cycles_per_instruction = 900;
};

class Translator {
 public:
  explicit Translator(MoleculeLimits limits = {}, TranslatorCosts costs = {})
      : limits_(limits), costs_(costs) {}

  /// Translate the basic block beginning at `pc`.
  [[nodiscard]] Translation translate(const Program& prog,
                                      std::size_t pc) const;

  /// Same, into `out`, reusing its molecule storage. Dependence lists and
  /// scheduling state live in flat per-thread scratch, so once the scratch
  /// and `out` have grown to the largest block seen a translation
  /// allocates nothing; a Translator is safe to share across threads.
  /// Register operands must lie in [0, 64).
  void translate(const Program& prog, std::size_t pc, Translation& out) const;

  /// Cycles charged for performing a translation of `instr_count` source
  /// instructions.
  [[nodiscard]] std::uint64_t translation_cost(std::size_t instr_count) const {
    return static_cast<std::uint64_t>(costs_.cycles_per_instruction) *
           instr_count;
  }

  [[nodiscard]] const MoleculeLimits& limits() const { return limits_; }

 private:
  MoleculeLimits limits_;
  TranslatorCosts costs_;
};

}  // namespace bladed::cms
