/// CMS ablations (§2 design claims, quantified on the CMS simulator):
///  (a) translation amortization — cycles/iteration vs loop trip count;
///  (b) translation-cache capacity — evictions force re-translation;
///  (c) molecule width — 2-atom (64-bit) vs 4-atom (128-bit) molecules;
///  (d) hotspot threshold sensitivity;
///  (e) interpreter dispatch fast path — indexed block dispatch vs the
///      historical per-dispatch block_end rescan + hash-map counting;
///  (f) the verified optimizer (opt/) — engine cycles at opt_level 0 vs 2,
///      asserted bit-identical final machine state;
///  (g) the tier-3 JIT (jit/) — host wall time of the license-gated native
///      tier vs the tier-2 dispatch fast path, asserted bit-identical final
///      state and engine cycles (rows `jit.*`, gated in CI: the same-process
///      t2/t3 wall ratio, and the cycles exactly);
///  (h) the static cycle certifier (wcet/) — certified tier-2 bounds next
///      to the measured engine cycles for the golden kernels (rows
///      `wcet.*`, exact-stability gated: certification is pure static
///      analysis, any drift is a real change).
///
/// Flags (scripts/bench.sh passes none, so defaults reproduce the paper
/// run): --reps N for the JIT tier comparison, --no-jit to skip (g).

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "bench/bench_util.hpp"
#include "cms/engine.hpp"
#include "cms/programs.hpp"
#include "hostperf/benchjson.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"
#include "tools/cli.hpp"
#include "wcet/wcet.hpp"

namespace {

using namespace bladed;
using namespace bladed::cms;

MachineState daxpy_state(std::int64_t n) {
  MachineState st(static_cast<std::size_t>(2 * n + 8));
  for (std::int64_t i = 0; i < n; ++i) {
    st.mem[static_cast<std::size_t>(i)] = static_cast<double>(i);
  }
  return st;
}

/// The pre-fast-path interpreter loop, reproduced from public ISA pieces:
/// every dispatch rescans for the block terminator via block_end and counts
/// through an unordered_map. Baseline for ablation (e).
InterpretResult legacy_interpret(const Program& prog, MachineState& st,
                                 const InterpreterCosts& costs) {
  std::unordered_map<std::size_t, std::uint64_t> counts;
  InterpretResult result;
  std::size_t pc = 0;
  while (!result.halted && pc < prog.size()) {
    ++counts[pc];
    const std::size_t end = block_end(prog, pc);
    while (pc < end) {
      const Instr& in = prog[pc];
      if (in.op == Op::kHalt) {
        result.halted = true;
        ++result.instructions;
        result.cycles += costs.dispatch_cycles;
        break;
      }
      const std::size_t next = exec_instr(in, pc, st);
      ++result.instructions;
      result.cycles +=
          static_cast<std::uint64_t>(costs.dispatch_cycles + latency_of(in.op));
      if (is_branch(in.op)) {
        ++result.branches;
        pc = next;
        goto dispatched;
      }
      pc = next;
    }
  dispatched:;
  }
  return result;
}

/// Alternating timed blocks per tier in (g); the fastest block of each
/// tier is reported.
constexpr int kJitBlocks = 9;

/// (g): run `prog` through warmed tier-2 and tier-3 engines in alternating
/// blocks of `reps` runs, assert the tier-3 contract, append a table row
/// and the paired "jit.<name>.t2" / "jit.<name>.t3" report rows (gated
/// pairwise by scripts/bench_gate.py). Alternation puts a preempted block
/// or a clock drift on both tiers alike, and each tier's fastest block
/// discards it. Returns false (after printing MISMATCH) if the tiers
/// diverge.
bool jit_tier_compare(const std::string& name, const Program& prog, int reps,
                      TablePrinter& t, hostperf::BenchReport& report) {
  constexpr std::int64_t kN = 258;
  MorphingEngine tier2{cms_43x()};
  MorphingConfig cfg3 = cms_43x();
  jit::attach_jit(cfg3);
  cfg3.optimizer = nullptr;  // isolate the execution-tier effect:
  cfg3.prover = nullptr;     // same program, same tier-2 gates
  MorphingEngine tier3{cfg3};
  // Warm both engines fully (translation cache hot, region compiled and
  // past its first-entry differential gate) — the tier comparison is about
  // steady-state execution, as on a long-lived node.
  for (int i = 0; i < 2; ++i) {
    MachineState w2 = daxpy_state(kN), w3 = daxpy_state(kN);
    (void)tier2.run(prog, w2);
    (void)tier3.run(prog, w3);
  }
  MorphingStats s2, s3;
  MachineState f2 = daxpy_state(kN), f3 = daxpy_state(kN);
  const auto block = [&](MorphingEngine& engine, MorphingStats& stats,
                         MachineState& final_state) {
    hostperf::WallTimer w;
    for (int i = 0; i < reps; ++i) {
      MachineState st = daxpy_state(kN);
      stats = engine.run(prog, st);
      final_state = st;
    }
    return w.seconds();
  };
  double t2_s = std::numeric_limits<double>::infinity();
  double t3_s = t2_s;
  for (int b = 0; b < kJitBlocks; ++b) {
    t2_s = std::min(t2_s, block(tier2, s2, f2));
    t3_s = std::min(t3_s, block(tier3, s3, f3));
  }

  // The tier-3 contract: architectural state AND engine accounting are
  // bit-identical to tier-2 — only host wall time changes.
  if (std::memcmp(f2.r, f3.r, sizeof f2.r) != 0 ||
      std::memcmp(f2.f, f3.f, sizeof f2.f) != 0 ||
      std::memcmp(f2.mem.data(), f3.mem.data(),
                  f2.mem.size() * sizeof(double)) != 0 ||
      s2.total_cycles != s3.total_cycles ||
      s2.native_block_executions != s3.native_block_executions) {
    std::printf("MISMATCH: tier-3 diverges from tier-2 on %s\n", name.c_str());
    return false;
  }
  t.add_row({name, TablePrinter::num(t2_s, 3), TablePrinter::num(t3_s, 3),
             TablePrinter::num(t2_s / t3_s, 2),
             s2.total_cycles == s3.total_cycles ? "yes" : "NO"});
  report.add({"jit." + name + ".t2", t2_s, 0.0,
              static_cast<double>(s2.native_block_executions),
              static_cast<double>(s2.total_cycles)});
  report.add({"jit." + name + ".t3", t3_s, 0.0,
              static_cast<double>(s3.native_block_executions),
              static_cast<double>(s3.total_cycles)});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 400;
  bool no_jit = false;
  cli::Parser parser("ablation_cms",
                     "usage: ablation_cms [--reps N] [--no-jit]\n"
                     "  --reps N   executions per timed block in the JIT\n"
                     "             tier comparison (default 400)\n"
                     "  --no-jit   skip the tier-3 ablation\n");
  parser.flag("--no-jit", &no_jit).int_value("--reps", &reps, 1, 1000000);
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;

  bench::print_header("Ablation", "Code Morphing Software (§2.2)");

  {  // (a) amortization
    TablePrinter t({"Loop trips", "CMS cycles/iter", "Interp cycles/iter",
                    "Speedup"});
    for (std::int64_t n : {16, 64, 256, 1024, 8192, 65536}) {
      const Program prog = daxpy_program(n);
      MachineState a = daxpy_state(n), b = daxpy_state(n);
      MorphingEngine engine;
      const MorphingStats s = engine.run(prog, a);
      const std::uint64_t interp = engine.interpret_only_cycles(prog, b);
      t.add_row({std::to_string(n),
                 TablePrinter::num(double(s.total_cycles) / double(n), 1),
                 TablePrinter::num(double(interp) / double(n), 1),
                 TablePrinter::num(double(interp) / double(s.total_cycles),
                                   2)});
    }
    std::printf("(a) translation amortization over repeated executions\n");
    bench::print_table(t);
  }

  {  // (b) cache capacity
    TablePrinter t({"Cache (molecules)", "Translations", "Retranslations",
                    "Evictions", "Total cycles"});
    const Program prog = many_blocks_program(16, 2000);
    for (std::size_t cap : {8u, 16u, 32u, 64u, 4096u}) {
      MorphingConfig cfg;
      cfg.cache_molecules = cap;
      cfg.hot_threshold = 4;
      MorphingEngine engine(cfg);
      MachineState st(256);
      const MorphingStats s = engine.run(prog, st);
      t.add_row({std::to_string(cap), std::to_string(s.translations),
                 std::to_string(s.retranslations),
                 std::to_string(s.cache_evictions),
                 TablePrinter::grouped(
                     static_cast<long long>(s.total_cycles))});
    }
    std::printf("(b) translation-cache capacity (16 hot blocks round-robin)\n");
    bench::print_table(t);
  }

  {  // (c) molecule width
    TablePrinter t({"Molecule", "Program", "Density (atoms/mol)",
                    "Native cycles/exec"});
    for (int width : {2, 4}) {
      MoleculeLimits lim;
      lim.max_atoms = width;
      if (width == 2) lim.alu = 1;  // 64-bit molecules carry fewer ALU atoms
      Translator tr(lim);
      for (const auto& [name, prog, pc] :
           {std::tuple{"daxpy body", daxpy_program(64), std::size_t{3}},
            std::tuple{"daxpy body, unrolled x3",
                       unrolled_daxpy_program(66, 3), std::size_t{3}},
            std::tuple{"NR rsqrt body", nr_rsqrt_program(64),
                       std::size_t{6}}}) {
        const Translation tl = tr.translate(prog, pc);
        t.add_row({width == 2 ? "64-bit (2 atoms)" : "128-bit (4 atoms)",
                   name, TablePrinter::num(tl.density(), 2),
                   std::to_string(tl.native_cycles())});
      }
    }
    std::printf("(c) molecule width (\"each molecule can be 64 or 128 bits\")\n");
    bench::print_table(t);
  }

  {  // (d) hotspot threshold
    TablePrinter t({"Hot threshold", "Translations", "Interp instrs",
                    "Total cycles"});
    const Program prog = branchy_program(4000);
    for (std::uint64_t thr : {1u, 4u, 16u, 64u, 1024u}) {
      MorphingConfig cfg;
      cfg.hot_threshold = thr;
      MorphingEngine engine(cfg);
      MachineState st(64);
      const MorphingStats s = engine.run(prog, st);
      t.add_row({std::to_string(thr), std::to_string(s.translations),
                 TablePrinter::grouped(
                     static_cast<long long>(s.interpreted_instructions)),
                 TablePrinter::grouped(
                     static_cast<long long>(s.total_cycles))});
    }
    std::printf("(d) hotspot threshold (filter \"infrequently executed code\")\n");
    bench::print_table(t);
  }

  {  // (e) interpreter dispatch fast path
    hostperf::BenchReport report =
        hostperf::BenchReport::from_env("ablation_cms", 1);
    TablePrinter t({"Program", "Instrs", "Indexed s", "Rescan s", "Speedup"});
    for (const auto& [name, prog] :
         {std::pair{std::string("daxpy n=65536"), daxpy_program(65536)},
          std::pair{std::string("unrolled daxpy x3"),
                    unrolled_daxpy_program(65535, 3)},
          std::pair{std::string("branchy n=200000"),
                    branchy_program(200000)}}) {
      MachineState a(static_cast<std::size_t>(2 * 65536 + 8));
      MachineState b = a;
      Interpreter interp;
      {  // warm-up: fault in the index/count arrays and the program
        MachineState w = a;
        (void)interp.run(prog, w);
        MachineState v = a;
        (void)legacy_interpret(prog, v, interp.costs());
      }
      hostperf::WallTimer tf;
      const InterpretResult fast = interp.run(prog, a);
      const double fast_s = tf.seconds();
      hostperf::WallTimer ts;
      const InterpretResult slow = legacy_interpret(prog, b, interp.costs());
      const double slow_s = ts.seconds();
      if (fast.instructions != slow.instructions ||
          fast.cycles != slow.cycles) {
        std::printf("MISMATCH: indexed and rescan dispatch disagree on %s\n",
                    name.c_str());
        return 1;
      }
      t.add_row({name, TablePrinter::grouped(static_cast<long long>(
                           fast.instructions)),
                 TablePrinter::num(fast_s, 3), TablePrinter::num(slow_s, 3),
                 TablePrinter::num(slow_s / fast_s, 2)});
      report.add({"dispatch." + name, fast_s, 0.0,
                  static_cast<double>(fast.instructions),
                  static_cast<double>(fast.cycles)});
    }
    std::printf(
        "(e) interpreter dispatch: precomputed block index + flat counters "
        "vs per-dispatch rescan + hash map\n");
    bench::print_table(t);
  }

  {  // (f) verified optimizer
    hostperf::BenchReport report =
        hostperf::BenchReport::from_env("ablation_cms", 1);
    TablePrinter t({"Program", "Instrs l0", "Instrs l2", "Cycles l0",
                    "Cycles l2", "Delta"});
    for (const auto& [name, prog] :
         {std::pair{std::string("naive_daxpy_n256"),
                    naive_daxpy_program(256)},
          std::pair{std::string("naive_mg_stencil_n256"),
                    naive_stencil_program(256)},
          std::pair{std::string("daxpy_n256"), daxpy_program(256)},
          std::pair{std::string("unrolled_daxpy_n258_u3"),
                    unrolled_daxpy_program(258, 3)}}) {
      MachineState st0 = daxpy_state(258), st2 = daxpy_state(258);

      hostperf::WallTimer t0;
      MorphingEngine plain;
      const MorphingStats s0 = plain.run(prog, st0);
      const double l0_s = t0.seconds();

      MorphingConfig cfg;
      cfg.opt_level = 2;
      cfg.optimizer = bladed::opt::engine_optimizer();
      hostperf::WallTimer t2;
      MorphingEngine opt_engine(cfg);
      const MorphingStats s2 = opt_engine.run(prog, st2);
      const double l2_s = t2.seconds();

      // The whole point of the translation-validation discipline: the
      // optimized run is indistinguishable from the original in every
      // architecturally visible bit.
      if (std::memcmp(st0.r, st2.r, sizeof st0.r) != 0 ||
          std::memcmp(st0.f, st2.f, sizeof st0.f) != 0 ||
          std::memcmp(st0.mem.data(), st2.mem.data(),
                      st0.mem.size() * sizeof(double)) != 0) {
        std::printf("MISMATCH: opt_level 2 diverges from opt_level 0 on %s\n",
                    name.c_str());
        return 1;
      }

      const bladed::opt::OptResult opt_res = bladed::opt::optimize(
          prog, {.level = 2, .mem_doubles = st0.mem.size()});
      const double delta = double(s2.total_cycles) / double(s0.total_cycles);
      t.add_row({name, std::to_string(prog.size()),
                 std::to_string(opt_res.program.size()),
                 TablePrinter::grouped(static_cast<long long>(s0.total_cycles)),
                 TablePrinter::grouped(static_cast<long long>(s2.total_cycles)),
                 TablePrinter::num((delta - 1.0) * 100.0, 1) + "%"});
      report.add({"opt." + name + ".l0", l0_s, 0.0,
                  static_cast<double>(prog.size()),
                  static_cast<double>(s0.total_cycles)});
      report.add({"opt." + name + ".l2", l2_s, 0.0,
                  static_cast<double>(opt_res.program.size()),
                  static_cast<double>(s2.total_cycles)});
    }
    std::printf(
        "(f) analysis-driven optimization (opt_level 2 vs as-written), "
        "final state bit-identical by construction and by assertion\n");
    bench::print_table(t);
  }

  // (g) tier-3 JIT (--no-jit skips)
  if (!no_jit) {
    hostperf::BenchReport report =
        hostperf::BenchReport::from_env("ablation_cms", 1);
    TablePrinter t({"Program", "Tier-2 s", "Tier-3 s", "Speedup",
                    "Cycles equal"});
    for (const auto& [name, prog] :
         {std::pair{std::string("naive_daxpy_n256"),
                    naive_daxpy_program(256)},
          std::pair{std::string("naive_mg_stencil_n256"),
                    naive_stencil_program(256)}}) {
      if (!jit_tier_compare(name, prog, reps, t, report)) {
        return 1;
      }
    }
    std::printf(
        "(g) tier-3 JIT: hot licensed regions directly threaded with bounds "
        "checks elided, vs the tier-2 per-instruction fast path\n");
    bench::print_table(t);
  }

  {  // (h) static cycle certification precision on the golden kernels
    hostperf::BenchReport report =
        hostperf::BenchReport::from_env("ablation_cms", 1);
    TablePrinter t({"Program", "Measured cycles", "Certified lo", "Certified hi",
                    "Upper/actual"});
    for (const auto& [name, prog] :
         {std::pair{std::string("naive_daxpy_n256"),
                    naive_daxpy_program(256)},
          std::pair{std::string("naive_mg_stencil_n256"),
                    naive_stencil_program(256)}}) {
      MachineState st = daxpy_state(258);
      const MorphingConfig cfg;
      const wcet::Certificate cert =
          wcet::certify(prog, st.mem.size(), wcet::CostParams::from(cfg));
      if (!cert.bounded) {
        std::printf("UNBOUNDED: certifier refused golden kernel %s\n",
                    name.c_str());
        return 1;
      }
      MorphingEngine engine(cfg);
      const MorphingStats s = engine.run(prog, st);
      if (s.total_cycles < cert.tier2.lower ||
          s.total_cycles > cert.tier2.upper) {
        std::printf("UNSOUND: %s ran %llu cycles outside certified "
                    "[%llu, %llu]\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.total_cycles),
                    static_cast<unsigned long long>(cert.tier2.lower),
                    static_cast<unsigned long long>(cert.tier2.upper));
        return 1;
      }
      t.add_row({name,
                 TablePrinter::grouped(static_cast<long long>(s.total_cycles)),
                 TablePrinter::grouped(
                     static_cast<long long>(cert.tier2.lower)),
                 TablePrinter::grouped(
                     static_cast<long long>(cert.tier2.upper)),
                 TablePrinter::num(double(cert.tier2.upper) /
                                       double(s.total_cycles),
                                   2)});
      // Both metrics are deterministic: ops carries the measured engine
      // cycles, cycles the certified upper bound. Gated exactly (wcet.*).
      report.add({"wcet." + name, 0.0, 0.0,
                  static_cast<double>(s.total_cycles),
                  static_cast<double>(cert.tier2.upper)});
    }
    std::printf(
        "(h) static cycle certification (wcet/): sound tier-2 bounds, "
        "upper within 2x of the measured run on the golden kernels\n");
    bench::print_table(t);
  }

  bench::print_note(
      "the paper's §2.2 claims reproduced: caching translations amortizes "
      "the one-time cost; an adequate cache avoids re-translation; wider "
      "molecules pack more ILP on straight-line fp code.");
  return 0;
}
