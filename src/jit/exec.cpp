#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "jit/compile.hpp"

namespace bladed::jit {

cms::CompiledRegion::RunResult JitRegion::finish(std::size_t next_pc,
                                                 bool halted,
                                                 std::uint64_t executed) const {
  RunResult res;
  res.next_pc = next_pc;
  res.halted = halted;
  res.blocks = executed;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    res.native_cycles += counts_[i] * blocks_[i].native_cycles;
  }
  // Touch order for the translation-cache LRU replay: executed blocks,
  // ascending by each block's *last* execution, so replaying front-inserts
  // leaves exactly the LRU state a per-block lookup sequence would have.
  std::vector<std::uint32_t> touched;
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
    if (counts_[i] != 0) touched.push_back(i);
  }
  std::sort(touched.begin(), touched.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return last_seq_[a] < last_seq_[b];
            });
  res.touch_order.reserve(touched.size());
  for (const std::uint32_t i : touched) {
    res.touch_order.push_back(blocks_[i].entry_pc);
  }
  return res;
}

cms::CompiledRegion::RunResult JitRegion::run(cms::MachineState& st,
                                              std::uint64_t max_blocks) {
  counts_.assign(blocks_.size(), 0);
  last_seq_.assign(blocks_.size(), 0);
  std::int64_t* const r = st.r;
  double* const f = st.f;
  double* const mem = st.mem.data();
  const JInstr* const code = code_.data();
  std::uint64_t executed = 0;
  // Threaded dispatch (GCC/Clang labels-as-values): every handler ends in
  // its own indirect jump, so the host predictor sees one dispatch site per
  // guest op rather than one shared switch. Entries follow JOp's order.
  static const void* const handlers[] = {
      &&addi, &&add,  &&sub,   &&muli,  &&movi,  &&fadd, &&fsub,
      &&fmul, &&fdiv, &&fsqrt, &&fmovi, &&fload, &&fstore, &&blt,
      &&bne,  &&jmp,  &&enter, &&exit,  &&halt};
  static_assert(std::size(handlers) ==
                static_cast<std::size_t>(JOp::kHalt) + 1);
  const JInstr* in = code;
#define BLADED_JIT_DISPATCH() goto* handlers[static_cast<std::size_t>(in->op)]
  BLADED_JIT_DISPATCH();
enter:
  if (executed == max_blocks) {
    return finish(static_cast<std::size_t>(in->imm_i), false, executed);
  }
  ++executed;
  ++counts_[in->target];
  last_seq_[in->target] = executed;  // executed doubles as the sequence
  ++in;
  BLADED_JIT_DISPATCH();
addi:
  r[in->a] = r[in->b] + in->imm_i;
  ++in;
  BLADED_JIT_DISPATCH();
add:
  r[in->a] = r[in->b] + r[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
sub:
  r[in->a] = r[in->b] - r[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
muli:
  r[in->a] = r[in->b] * in->imm_i;
  ++in;
  BLADED_JIT_DISPATCH();
movi:
  r[in->a] = in->imm_i;
  ++in;
  BLADED_JIT_DISPATCH();
fadd:
  f[in->a] = f[in->b] + f[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
fsub:
  f[in->a] = f[in->b] - f[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
fmul:
  f[in->a] = f[in->b] * f[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
fdiv:
  f[in->a] = f[in->b] / f[in->c];
  ++in;
  BLADED_JIT_DISPATCH();
fsqrt:
  f[in->a] = std::sqrt(f[in->b]);
  ++in;
  BLADED_JIT_DISPATCH();
fmovi:
  f[in->a] = in->imm_f;
  ++in;
  BLADED_JIT_DISPATCH();
fload:
  // Bounds check elided: the access carries a prove::AccessProof.
  f[in->a] = mem[static_cast<std::size_t>(r[in->b] + in->imm_i)];
  ++in;
  BLADED_JIT_DISPATCH();
fstore:
  mem[static_cast<std::size_t>(r[in->b] + in->imm_i)] = f[in->a];
  ++in;
  BLADED_JIT_DISPATCH();
blt:
  in = code + (r[in->a] < r[in->b] ? in->target : in->target2);
  BLADED_JIT_DISPATCH();
bne:
  in = code + (r[in->a] != r[in->b] ? in->target : in->target2);
  BLADED_JIT_DISPATCH();
jmp:
  in = code + in->target;
  BLADED_JIT_DISPATCH();
exit:
  return finish(static_cast<std::size_t>(in->imm_i), false, executed);
halt:
  return finish(static_cast<std::size_t>(in->imm_i), true, executed);
#undef BLADED_JIT_DISPATCH
}

cms::CompiledRegion::RunResult JitRegion::run_reference(
    const cms::Program& prog, cms::MachineState& st,
    std::uint64_t max_blocks) {
  counts_.assign(blocks_.size(), 0);
  last_seq_.assign(blocks_.size(), 0);
  std::uint64_t executed = 0;
  std::uint64_t seq = 0;
  std::size_t pc = blocks_.empty() ? 0 : blocks_.front().entry_pc;
  for (;;) {
    const auto member = member_index_.find(pc);
    if (member == member_index_.end() || executed == max_blocks) {
      return finish(pc, false, executed);
    }
    ++executed;
    ++counts_[member->second];
    last_seq_[member->second] = ++seq;
    const std::size_t end = cms::block_end(prog, pc);
    while (pc < end) {
      const cms::Instr& in = prog[pc];
      if (in.op == cms::Op::kHalt) {
        return finish(pc, true, executed);
      }
      const std::size_t next = cms::exec_instr(in, pc, st);
      if (cms::is_branch(in.op)) {
        pc = next;
        break;
      }
      pc = next;
    }
  }
}

}  // namespace bladed::jit
