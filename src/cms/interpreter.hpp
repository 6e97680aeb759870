#pragma once

/// The CMS interpreter module (§2.2): executes x86-like instructions one at
/// a time, collects run-time execution counts per basic block (the
/// statistics the translator's hotspot detection uses), and charges the
/// per-instruction interpretation cost that makes translation worthwhile.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "cms/isa.hpp"

namespace bladed::cms {

struct InterpreterCosts {
  /// Decode/dispatch overhead per interpreted instruction, in native VLIW
  /// cycles (the price of the software x86 illusion).
  int dispatch_cycles = 12;
};

struct InterpretResult {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t branches = 0;
  bool halted = false;
};

class Interpreter {
 public:
  explicit Interpreter(InterpreterCosts costs = {}) : costs_(costs) {}

  /// Interpret from `pc` until a halt or until `max_instructions`; updates
  /// state in place. Records basic-block execution counts keyed by leader pc.
  InterpretResult run(const Program& prog, MachineState& st,
                      std::size_t pc = 0,
                      std::uint64_t max_instructions = 100'000'000);

  /// Interpret exactly one basic block starting at `pc` (up to and including
  /// its terminating branch, or up to a halt). Returns the next pc and adds
  /// cost to `result`.
  std::size_t run_block(const Program& prog, MachineState& st, std::size_t pc,
                        InterpretResult& result);

  /// The dispatch index for `prog`, (re)built when `prog` is not the program
  /// last indexed: element pc is one past the terminator of the block
  /// containing pc (block_end), element prog.size() is prog.size(). The
  /// engine's tier-2 path reads block ends from here too, so there is one
  /// index per engine. Valid until another program is indexed.
  const std::vector<std::size_t>& block_ends(const Program& prog) {
    if (prog.data() != indexed_data_ || prog.size() != indexed_size_) {
      index_program(prog);
    }
    return end_of_;
  }

  /// Snapshot of the block execution counts keyed by leader pc, summed over
  /// every program interpreted since the last reset_counts().
  [[nodiscard]] std::unordered_map<std::size_t, std::uint64_t> block_counts()
      const;
  void reset_counts();

  [[nodiscard]] const InterpreterCosts& costs() const { return costs_; }

 private:
  /// (Re)build the dispatch index for `prog`: end_of_[pc] is one past the
  /// terminator of the block containing pc, so run_block avoids the
  /// per-dispatch linear block_end scan; counts_ is the flat per-pc count
  /// table replacing the hash map on the hot path. Keyed on the program's
  /// (data pointer, size); counts for a previously indexed program are
  /// folded into prior_counts_ first. A program must not be mutated in
  /// place between runs without an intervening reset_counts() — the engine
  /// calls it whenever the contents of the program it runs change.
  void index_program(const Program& prog);

  InterpreterCosts costs_;
  const Instr* indexed_data_ = nullptr;
  std::size_t indexed_size_ = 0;
  std::vector<std::size_t> end_of_;
  std::vector<std::uint64_t> counts_;
  std::unordered_map<std::size_t, std::uint64_t> prior_counts_;
};

/// End of the basic block starting at `pc`: one past its terminator (the
/// index after the first branch/halt at or after pc).
[[nodiscard]] std::size_t block_end(const Program& prog, std::size_t pc);

}  // namespace bladed::cms
