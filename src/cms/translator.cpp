#include "cms/translator.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace bladed::cms {

std::uint64_t Translation::native_cycles() const {
  std::uint64_t c = 0;
  for (const Molecule& m : molecules) {
    c += 1 + static_cast<std::uint64_t>(m.stall);
  }
  return c;
}

double Translation::density() const {
  if (molecules.empty()) return 0.0;
  std::size_t atoms = 0;
  for (const Molecule& m : molecules) atoms += static_cast<std::size_t>(m.atoms);
  return static_cast<double>(atoms) / static_cast<double>(molecules.size());
}

namespace {

/// Extra FPU-busy cycles for unpipelined operations.
int unpipelined_stall(Op op) {
  switch (op) {
    case Op::kFdiv:
      return latency_of(Op::kFdiv) - 1;
    case Op::kFsqrt:
      return latency_of(Op::kFsqrt) - 1;
    default:
      return 0;
  }
}

/// Per-instruction facts the dependence test needs, computed once per
/// instruction instead of once per instruction pair: register read/write
/// sets as bit masks (so RAW/WAW/WAR through either file is a handful of
/// ANDs), plus memory class, terminator flag and scheduling costs.
struct InstrFacts {
  std::uint64_t int_w = 0, int_r = 0, fp_w = 0, fp_r = 0;
  bool mem = false;
  bool store = false;
  bool terminator = false;
  int slot = 0;  ///< issue-slot class: ALU, FPU, LSU, branch/halt
  int latency = 1;
  int stall = 0;
};

std::uint64_t reg_bit(int reg) {
  BLADED_REQUIRE_MSG(reg >= 0 && reg < 64,
                     "translator: register operand out of range");
  return std::uint64_t{1} << reg;
}

InstrFacts facts_of(const Instr& in) {
  // A register an instruction reads is one of its operand fields, so the
  // read set is the fields the ISA predicate accepts.
  const auto read_set = [&in](bool (*reads)(const Instr&, int)) {
    std::uint64_t set = 0;
    for (const int reg : {in.a, in.b, in.c}) {
      if (reads(in, reg)) set |= reg_bit(reg);
    }
    return set;
  };
  InstrFacts f;
  f.int_w = writes_int_reg(in.op) ? reg_bit(in.a) : 0;
  f.fp_w = writes_fp_reg(in.op) ? reg_bit(in.a) : 0;
  f.int_r = read_set(reads_int_reg);
  f.fp_r = read_set(reads_fp_reg);
  f.mem = is_mem_op(in.op);
  f.store = in.op == Op::kFstore;
  f.terminator = is_branch(in.op) || in.op == Op::kHalt;
  // ALU, FPU and LSU slots, then one slot shared by branch and halt.
  static_assert(static_cast<int>(UnitClass::kNone) ==
                static_cast<int>(UnitClass::kBranch) + 1);
  f.slot = std::min(static_cast<int>(unit_of(in.op)),
                    static_cast<int>(UnitClass::kBranch));
  f.latency = latency_of(in.op);
  f.stall = unpipelined_stall(in.op);
  return f;
}

/// Must `b` (later in the block) wait for `a`? RAW, WAW and WAR through
/// integer and fp registers, conservative memory order (stores order
/// against every memory op), and the terminator after everything.
bool depends(const InstrFacts& a, const InstrFacts& b) {
  return ((a.int_w & (b.int_r | b.int_w)) | (b.int_w & a.int_r) |
          (a.fp_w & (b.fp_r | b.fp_w)) | (b.fp_w & a.fp_r)) != 0 ||
         (a.mem && b.mem && (a.store || b.store)) || b.terminator;
}

/// Flat translation state, reused across calls on one thread: the block's
/// instruction facts, the dependence graph as successor lists in one array
/// (instruction i's successors are succ[succ_begin[i] .. succ_begin[i+1])),
/// and the list scheduler's per-instruction state.
struct Scratch {
  std::vector<InstrFacts> facts;
  std::vector<std::size_t> succ_begin;
  std::vector<std::size_t> succ;
  std::vector<int> pending;   ///< predecessors not yet scheduled
  std::vector<int> earliest;  ///< cycle the scheduled preds' results land
  std::vector<std::size_t> live;  ///< unscheduled instructions, ascending
};

}  // namespace

Translation Translator::translate(const Program& prog, std::size_t pc) const {
  Translation t;
  translate(prog, pc, t);
  return t;
}

void Translator::translate(const Program& prog, std::size_t pc,
                           Translation& out) const {
  thread_local Scratch scratch;
  Scratch& sc = scratch;
  // The block runs to the first branch/halt at or after pc (block_end).
  sc.facts.clear();
  for (std::size_t i = pc; i < prog.size(); ++i) {
    sc.facts.push_back(facts_of(prog[i]));
    if (sc.facts.back().terminator) break;
  }
  BLADED_REQUIRE_MSG(!sc.facts.empty(), "empty translation region");
  const std::size_t n = sc.facts.size();

  // Dependence edges i -> j (i < j), each successor list ascending.
  sc.succ_begin.resize(n + 1);
  sc.succ.clear();
  sc.pending.assign(n, 0);
  sc.earliest.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    sc.succ_begin[i] = sc.succ.size();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (depends(sc.facts[i], sc.facts[j])) {
        sc.succ.push_back(j);
        ++sc.pending[j];
      }
    }
  }
  sc.succ_begin[n] = sc.succ.size();
  sc.live.resize(n);
  std::iota(sc.live.begin(), sc.live.end(), std::size_t{0});

  out.entry_pc = pc;
  out.instr_count = n;
  out.molecules.clear();

  // List scheduling: each molecule scans the unscheduled instructions in
  // program order and issues those whose predecessors have all retired
  // (results available by this cycle) while unit slots remain. An issued
  // instruction's successors see its finish cycle, which is past this one,
  // so dependent instructions never share a molecule.
  const int slots[4] = {limits_.alu, limits_.fpu, limits_.lsu, limits_.branch};
  std::size_t live = n;
  int cycle = 0;
  while (live > 0) {
    Molecule mol{};
    int used[4] = {};
    std::size_t kept = 0;
    std::size_t k = 0;
    for (; k < live && mol.atoms < limits_.max_atoms; ++k) {
      const std::size_t i = sc.live[k];
      const InstrFacts& f = sc.facts[i];
      if (sc.pending[i] != 0 || sc.earliest[i] > cycle ||
          used[f.slot] >= slots[f.slot]) {
        sc.live[kept++] = i;
        continue;
      }
      ++used[f.slot];
      const int finish = cycle + f.latency;
      for (std::size_t e = sc.succ_begin[i]; e < sc.succ_begin[i + 1]; ++e) {
        const std::size_t succ = sc.succ[e];
        --sc.pending[succ];
        sc.earliest[succ] = std::max(sc.earliest[succ], finish);
      }
      mol.atom_pc[static_cast<std::size_t>(mol.atoms)] =
          static_cast<std::uint32_t>(pc + i);
      ++mol.atoms;
      mol.stall = std::max(mol.stall, f.stall);
    }
    for (; k < live; ++k) sc.live[kept++] = sc.live[k];
    live = kept;
    if (mol.atoms > 0) {
      out.molecules.push_back(mol);
      cycle += 1 + mol.stall;
    } else {
      // Waiting on latency: an issue bubble. The Crusoe would issue a nop
      // molecule; charge it by extending the previous molecule's stall so
      // native_cycles stays exact.
      ++cycle;
      if (!out.molecules.empty()) {
        ++out.molecules.back().stall;
      } else {
        out.molecules.push_back(Molecule{});
      }
    }
  }
}

}  // namespace bladed::cms
