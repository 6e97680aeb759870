#pragma once

/// A small x86-like source ISA for the Code Morphing Software simulator
/// (§2.2 of the paper). Programs in this ISA are what CMS sees: the
/// interpreter executes them one instruction at a time, the profiler finds
/// the hot basic blocks, and the translator re-compiles them into VLIW
/// molecules. The ISA is deliberately CISC-flavoured (reg+offset memory
/// operands, condition-code-free compare-and-branch) but small enough to be
/// fully simulated.
///
/// Machine model: 16 integer registers r0..r15, 8 fp registers f0..f7, a
/// flat memory of doubles addressed by integer registers. All registers are
/// zero-initialized; by convention the sample programs keep r0 at zero and
/// use it as the memory base register (the static checker models r0 as
/// always-initialized for this reason).

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bladed::cms {

enum class Op : std::uint8_t {
  // Integer ALU.
  kAddi,  ///< r[a] = r[b] + imm_i
  kAdd,   ///< r[a] = r[b] + r[c]
  kSub,   ///< r[a] = r[b] - r[c]
  kMuli,  ///< r[a] = r[b] * imm_i
  kMovi,  ///< r[a] = imm_i
  // Floating point.
  kFadd,   ///< f[a] = f[b] + f[c]
  kFsub,   ///< f[a] = f[b] - f[c]
  kFmul,   ///< f[a] = f[b] * f[c]
  kFdiv,   ///< f[a] = f[b] / f[c]
  kFsqrt,  ///< f[a] = sqrt(f[b])
  kFmovi,  ///< f[a] = imm_f
  // Memory (doubles).
  kFload,   ///< f[a] = mem[r[b] + imm_i]
  kFstore,  ///< mem[r[b] + imm_i] = f[a]
  // Control flow (absolute instruction-index targets).
  kBlt,  ///< if (r[a] < r[b]) goto imm_i
  kBne,  ///< if (r[a] != r[b]) goto imm_i
  kJmp,  ///< goto imm_i
  kHalt,
};

struct Instr {
  Op op = Op::kHalt;
  int a = 0;        ///< destination register (or branch lhs)
  int b = 0;        ///< source register
  int c = 0;        ///< second source register
  std::int64_t imm_i = 0;
  double imm_f = 0.0;
};

using Program = std::vector<Instr>;

struct MachineState {
  std::int64_t r[16] = {};
  double f[8] = {};
  std::vector<double> mem;

  explicit MachineState(std::size_t mem_doubles = 4096) : mem(mem_doubles) {}
};

/// Functional-unit class an op executes on (used by both the interpreter's
/// cost table and the translator's slot assignment).
enum class UnitClass : std::uint8_t { kAlu, kFpu, kLsu, kBranch, kNone };

/// The per-op facts below are inline because the interpreter, tier-2 and
/// the translator consult them for every instruction.
[[nodiscard]] constexpr UnitClass unit_of(Op op) {
  switch (op) {
    case Op::kAddi:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMuli:
    case Op::kMovi:
      return UnitClass::kAlu;
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
    case Op::kFsqrt:
    case Op::kFmovi:
      return UnitClass::kFpu;
    case Op::kFload:
    case Op::kFstore:
      return UnitClass::kLsu;
    case Op::kBlt:
    case Op::kBne:
    case Op::kJmp:
      return UnitClass::kBranch;
    case Op::kHalt:
      return UnitClass::kNone;
  }
  return UnitClass::kNone;
}

/// Result latency in native VLIW cycles (dependence distance to consumers).
[[nodiscard]] constexpr int latency_of(Op op) {
  switch (op) {
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
      return 3;  // 10-stage fp pipeline, forwarded
    case Op::kFdiv:
      return 28;
    case Op::kFsqrt:
      return 36;
    case Op::kFload:
      return 2;
    default:
      return 1;
  }
}

[[nodiscard]] constexpr bool is_branch(Op op) {
  return op == Op::kBlt || op == Op::kBne || op == Op::kJmp;
}

[[nodiscard]] constexpr bool is_mem_op(Op op) {
  return op == Op::kFload || op == Op::kFstore;
}

[[nodiscard]] constexpr bool writes_int_reg(Op op) {
  switch (op) {
    case Op::kAddi:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMuli:
    case Op::kMovi:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] constexpr bool writes_fp_reg(Op op) {
  switch (op) {
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
    case Op::kFsqrt:
    case Op::kFmovi:
    case Op::kFload:
      return true;
    default:
      return false;
  }
}

/// Operand-level facts shared by the translator's dependence analysis and
/// the `bladed::check` dataflow passes: does `in` read integer register
/// `reg` / fp register `reg`?
[[nodiscard]] constexpr bool reads_int_reg(const Instr& in, int reg) {
  switch (in.op) {
    case Op::kAddi:
    case Op::kMuli:
      return in.b == reg;
    case Op::kAdd:
    case Op::kSub:
      return in.b == reg || in.c == reg;
    case Op::kFload:
    case Op::kFstore:
      return in.b == reg;
    case Op::kBlt:
    case Op::kBne:
      return in.a == reg || in.b == reg;
    default:
      return false;
  }
}

[[nodiscard]] constexpr bool reads_fp_reg(const Instr& in, int reg) {
  switch (in.op) {
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
      return in.b == reg || in.c == reg;
    case Op::kFsqrt:
      return in.b == reg;
    case Op::kFstore:
      return in.a == reg;
    default:
      return false;
  }
}

/// Non-empty explanation when an operand register index of `in` is outside
/// its register file; empty string when all operands are in range. Shared
/// by validate() (which throws on it) and check::check_program (which turns
/// it into a diagnostic), so the two layers accept exactly the same
/// programs.
[[nodiscard]] std::string operand_range_error(const Instr& in);

/// Execute one instruction; returns the next pc. Shared by the interpreter
/// and the native-execution path so semantics are identical by construction.
[[nodiscard]] std::size_t exec_instr(const Instr& in, std::size_t pc,
                                     MachineState& st);

/// Validate static well-formedness (register indices, branch targets).
/// Branch targets may equal `prog.size()`: branching one past the end exits
/// the program like a halt (fallthrough-halt).
void validate(const Program& prog, std::size_t mem_doubles = 4096);

/// FNV-1a over every field of every instruction (imm_f by bit pattern),
/// starting from `salt`: equal programs hash equal. The engine notices a
/// changed program by it; jit and prove salt it with the memory size as a
/// per-program memoization key.
[[nodiscard]] std::uint64_t content_hash(const Program& prog,
                                         std::uint64_t salt = 0);

[[nodiscard]] std::string to_string(Op op);
/// Full rendering with operands, e.g. "fload f2, [r1+0]" or "blt r1, r2 -> 3".
[[nodiscard]] std::string to_string(const Instr& in);

}  // namespace bladed::cms
