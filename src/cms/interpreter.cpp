#include "cms/interpreter.hpp"

namespace bladed::cms {

std::size_t block_end(const Program& prog, std::size_t pc) {
  std::size_t i = pc;
  while (i < prog.size()) {
    if (is_branch(prog[i].op) || prog[i].op == Op::kHalt) return i + 1;
    ++i;
  }
  return prog.size();
}

void Interpreter::index_program(const Program& prog) {
  // Fold the counts of the previously indexed program into the spill map so
  // block_counts() keeps its sum-since-reset semantics across programs.
  for (std::size_t pc = 0; pc < counts_.size(); ++pc) {
    if (counts_[pc] != 0) prior_counts_[pc] += counts_[pc];
  }
  const std::size_t n = prog.size();
  indexed_data_ = prog.data();
  indexed_size_ = n;
  // One backward pass: a terminator ends its own block, anything else ends
  // where its successor's block ends. The extra slot at n keeps pc == size
  // (an immediately-complete block) in bounds.
  end_of_.assign(n + 1, n);
  for (std::size_t i = n; i-- > 0;) {
    end_of_[i] = (is_branch(prog[i].op) || prog[i].op == Op::kHalt)
                     ? i + 1
                     : end_of_[i + 1];
  }
  counts_.assign(n + 1, 0);
}

std::unordered_map<std::size_t, std::uint64_t> Interpreter::block_counts()
    const {
  std::unordered_map<std::size_t, std::uint64_t> out = prior_counts_;
  for (std::size_t pc = 0; pc < counts_.size(); ++pc) {
    if (counts_[pc] != 0) out[pc] += counts_[pc];
  }
  return out;
}

void Interpreter::reset_counts() {
  prior_counts_.clear();
  counts_.clear();
  end_of_.clear();
  indexed_data_ = nullptr;
  indexed_size_ = 0;
}

std::size_t Interpreter::run_block(const Program& prog, MachineState& st,
                                   std::size_t pc, InterpretResult& result) {
  const std::vector<std::size_t>& ends = block_ends(prog);
  if (pc > indexed_size_) return pc;  // off-program pc: nothing to run
  ++counts_[pc];
  const std::size_t end = ends[pc];
  while (pc < end) {
    const Instr& in = prog[pc];
    if (in.op == Op::kHalt) {
      result.halted = true;
      ++result.instructions;
      result.cycles += costs_.dispatch_cycles;
      return pc;
    }
    const std::size_t next = exec_instr(in, pc, st);
    ++result.instructions;
    result.cycles +=
        static_cast<std::uint64_t>(costs_.dispatch_cycles + latency_of(in.op));
    if (is_branch(in.op)) {
      ++result.branches;
      return next;
    }
    pc = next;
  }
  return pc;
}

InterpretResult Interpreter::run(const Program& prog, MachineState& st,
                                 std::size_t pc,
                                 std::uint64_t max_instructions) {
  validate(prog, st.mem.size());
  InterpretResult result;
  while (!result.halted && result.instructions < max_instructions &&
         pc < prog.size()) {
    pc = run_block(prog, st, pc, result);
  }
  return result;
}

}  // namespace bladed::cms
