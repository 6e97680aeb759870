#include "cms/isa.hpp"

#include <bit>
#include <cmath>

namespace bladed::cms {

std::string operand_range_error(const Instr& in) {
  const auto int_reg = [](int r) { return r >= 0 && r < 16; };
  const auto fp_reg = [](int r) { return r >= 0 && r < 8; };
  const auto bad = [&](const char* field) {
    return std::string(field) + " register of " + to_string(in.op) +
           " out of range";
  };
  switch (in.op) {
    case Op::kAddi:
    case Op::kMuli:
      if (!int_reg(in.a)) return bad("destination");
      if (!int_reg(in.b)) return bad("source");
      break;
    case Op::kAdd:
    case Op::kSub:
      if (!int_reg(in.a)) return bad("destination");
      if (!int_reg(in.b) || !int_reg(in.c)) return bad("source");
      break;
    case Op::kMovi:
      if (!int_reg(in.a)) return bad("destination");
      break;
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
      if (!fp_reg(in.a)) return bad("destination");
      if (!fp_reg(in.b) || !fp_reg(in.c)) return bad("source");
      break;
    case Op::kFsqrt:
      if (!fp_reg(in.a)) return bad("destination");
      if (!fp_reg(in.b)) return bad("source");
      break;
    case Op::kFmovi:
      if (!fp_reg(in.a)) return bad("destination");
      break;
    case Op::kFload:
      if (!fp_reg(in.a)) return bad("destination");
      if (!int_reg(in.b)) return bad("base");
      break;
    case Op::kFstore:
      if (!fp_reg(in.a)) return bad("source");
      if (!int_reg(in.b)) return bad("base");
      break;
    case Op::kBlt:
    case Op::kBne:
      if (!int_reg(in.a) || !int_reg(in.b)) return bad("comparison");
      break;
    case Op::kJmp:
    case Op::kHalt:
      break;
  }
  return {};
}

std::size_t exec_instr(const Instr& in, std::size_t pc, MachineState& st) {
  auto addr = [&](std::int64_t base, std::int64_t off) -> std::size_t {
    const std::int64_t a = base + off;
    BLADED_REQUIRE_MSG(a >= 0 && a < static_cast<std::int64_t>(st.mem.size()),
                       "memory access out of bounds");
    return static_cast<std::size_t>(a);
  };
  switch (in.op) {
    case Op::kAddi:
      st.r[in.a] = st.r[in.b] + in.imm_i;
      break;
    case Op::kAdd:
      st.r[in.a] = st.r[in.b] + st.r[in.c];
      break;
    case Op::kSub:
      st.r[in.a] = st.r[in.b] - st.r[in.c];
      break;
    case Op::kMuli:
      st.r[in.a] = st.r[in.b] * in.imm_i;
      break;
    case Op::kMovi:
      st.r[in.a] = in.imm_i;
      break;
    case Op::kFadd:
      st.f[in.a] = st.f[in.b] + st.f[in.c];
      break;
    case Op::kFsub:
      st.f[in.a] = st.f[in.b] - st.f[in.c];
      break;
    case Op::kFmul:
      st.f[in.a] = st.f[in.b] * st.f[in.c];
      break;
    case Op::kFdiv:
      st.f[in.a] = st.f[in.b] / st.f[in.c];
      break;
    case Op::kFsqrt:
      st.f[in.a] = std::sqrt(st.f[in.b]);
      break;
    case Op::kFmovi:
      st.f[in.a] = in.imm_f;
      break;
    case Op::kFload:
      st.f[in.a] = st.mem[addr(st.r[in.b], in.imm_i)];
      break;
    case Op::kFstore:
      st.mem[addr(st.r[in.b], in.imm_i)] = st.f[in.a];
      break;
    case Op::kBlt:
      return st.r[in.a] < st.r[in.b] ? static_cast<std::size_t>(in.imm_i)
                                     : pc + 1;
    case Op::kBne:
      return st.r[in.a] != st.r[in.b] ? static_cast<std::size_t>(in.imm_i)
                                      : pc + 1;
    case Op::kJmp:
      return static_cast<std::size_t>(in.imm_i);
    case Op::kHalt:
      return pc;  // callers treat pc-not-advancing on halt specially
  }
  return pc + 1;
}

void validate(const Program& prog, std::size_t mem_doubles) {
  BLADED_REQUIRE_MSG(!prog.empty(), "empty program");
  (void)mem_doubles;
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    const Instr& in = prog[pc];
    const std::string range_error = operand_range_error(in);
    BLADED_REQUIRE_MSG(range_error.empty(),
                       "instr " + std::to_string(pc) + ": " + range_error);
    if (is_branch(in.op)) {
      // Target == size() is allowed: it exits the program (fallthrough-halt).
      BLADED_REQUIRE_MSG(in.imm_i >= 0 &&
                             in.imm_i <= static_cast<std::int64_t>(prog.size()),
                         "branch target out of range");
    }
  }
  BLADED_REQUIRE_MSG(prog.back().op == Op::kHalt || is_branch(prog.back().op),
                     "program must end in a halt or a branch");
}

std::uint64_t content_hash(const Program& prog, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(salt);
  for (const Instr& in : prog) {
    mix(static_cast<std::uint64_t>(in.op));
    mix(static_cast<std::uint64_t>(in.a));
    mix(static_cast<std::uint64_t>(in.b));
    mix(static_cast<std::uint64_t>(in.c));
    mix(static_cast<std::uint64_t>(in.imm_i));
    mix(std::bit_cast<std::uint64_t>(in.imm_f));
  }
  return h;
}

std::string to_string(Op op) {
  switch (op) {
    case Op::kAddi: return "addi";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMuli: return "muli";
    case Op::kMovi: return "movi";
    case Op::kFadd: return "fadd";
    case Op::kFsub: return "fsub";
    case Op::kFmul: return "fmul";
    case Op::kFdiv: return "fdiv";
    case Op::kFsqrt: return "fsqrt";
    case Op::kFmovi: return "fmovi";
    case Op::kFload: return "fload";
    case Op::kFstore: return "fstore";
    case Op::kBlt: return "blt";
    case Op::kBne: return "bne";
    case Op::kJmp: return "jmp";
    case Op::kHalt: return "halt";
  }
  return "?";
}

std::string to_string(const Instr& in) {
  const auto r = [](int i) { return "r" + std::to_string(i); };
  const auto f = [](int i) { return "f" + std::to_string(i); };
  const auto mem = [&](const Instr& m) {
    return "[" + r(m.b) + (m.imm_i < 0 ? "" : "+") + std::to_string(m.imm_i) +
           "]";
  };
  const std::string op = to_string(in.op);
  switch (in.op) {
    case Op::kAddi:
    case Op::kMuli:
      return op + " " + r(in.a) + ", " + r(in.b) + ", " +
             std::to_string(in.imm_i);
    case Op::kAdd:
    case Op::kSub:
      return op + " " + r(in.a) + ", " + r(in.b) + ", " + r(in.c);
    case Op::kMovi:
      return op + " " + r(in.a) + ", " + std::to_string(in.imm_i);
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
      return op + " " + f(in.a) + ", " + f(in.b) + ", " + f(in.c);
    case Op::kFsqrt:
      return op + " " + f(in.a) + ", " + f(in.b);
    case Op::kFmovi:
      return op + " " + f(in.a) + ", " + std::to_string(in.imm_f);
    case Op::kFload:
      return op + " " + f(in.a) + ", " + mem(in);
    case Op::kFstore:
      return op + " " + mem(in) + ", " + f(in.a);
    case Op::kBlt:
    case Op::kBne:
      return op + " " + r(in.a) + ", " + r(in.b) + " -> " +
             std::to_string(in.imm_i);
    case Op::kJmp:
      return op + " -> " + std::to_string(in.imm_i);
    case Op::kHalt:
      return op;
  }
  return op;
}

}  // namespace bladed::cms
