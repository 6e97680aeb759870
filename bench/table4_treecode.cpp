/// Table 4: historical treecode performance across clusters and
/// supercomputers (whole-machine Gflops and Mflops per processor). The two
/// MetaBlade rows are recomputed from scratch by this repository: a real
/// (scaled) parallel treecode run on the simulated 24-blade cluster. The
/// historical rows come from the machine database reconstructed from the
/// authors' treecode publication series (core/presets.cpp).
///
/// `--host-threads N` sets how many simulated ranks compute concurrently on
/// the host (results are bit-identical; only host wall-clock changes);
/// `--quick` shrinks the problem for the CI bench gate. With
/// BLADED_BENCH_JSON set, each modelled run is emitted as a bladed-bench-v1
/// record.

#include "arch/registry.hpp"
#include "bench/bench_util.hpp"
#include "core/presets.hpp"
#include "hostperf/benchjson.hpp"
#include "tools/cli.hpp"
#include "treecode/parallel.hpp"
#include "treecode/perf.hpp"

namespace {

using namespace bladed;

int g_host_threads = 1;
std::size_t g_particles = 240000;

/// Model a MetaBlade-class 24-blade run and return sustained Gflops.
double modelled_gflops(const arch::ProcessorModel& cpu, const char* name,
                       hostperf::BenchReport& report) {
  treecode::ParallelConfig cfg;
  cfg.ranks = 24;
  cfg.particles = g_particles;
  cfg.steps = 1;
  cfg.cpu = &cpu;
  cfg.network = simnet::NetworkModel::fast_ethernet();
  cfg.host_threads = g_host_threads;
  hostperf::WallTimer timer;
  const treecode::ParallelResult r = treecode::run_parallel_nbody(cfg);
  report.add({name, timer.seconds(), r.elapsed_seconds,
              static_cast<double>(r.interactions),
              static_cast<double>(r.total_flops)});
  return r.sustained_gflops;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  cli::Parser parser("table4_treecode",
                     "usage: table4_treecode [--host-threads N] [--quick]\n");
  parser.int_value("--host-threads", &g_host_threads, 1, 64)
      .flag("--quick", &quick);
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (quick) g_particles = 24000;

  bench::print_header(
      "Table 4", "Historical treecode performance (Gflops, Mflops/proc)");

  hostperf::BenchReport report =
      hostperf::BenchReport::from_env("table4_treecode", g_host_threads);
  const double mb =
      modelled_gflops(arch::tm5600_633(), "metablade.ranks24", report);
  const double mb2 =
      modelled_gflops(arch::tm5800_800(), "metablade2.ranks24", report);

  TablePrinter t({"Machine", "CPUs", "Gflops", "Mflops/proc", "Source"});
  for (const core::HistoricalMachine& m : core::treecode_history()) {
    double gflops = m.gflops;
    std::string source = "paper (reconstructed)";
    if (m.modelled_here) {
      gflops = m.machine == "MetaBlade" ? mb : mb2;
      source = "this repo (simulated run)";
    }
    t.add_row({m.site + " " + m.machine, std::to_string(m.procs),
               TablePrinter::num(gflops, 2),
               TablePrinter::num(gflops * 1000.0 / m.procs, 1), source});
  }
  bench::print_table(t);

  std::printf("MetaBlade  modelled: %.2f Gflops (paper measured: 2.1)\n", mb);
  std::printf("MetaBlade2 modelled: %.2f Gflops (paper measured: 3.3)\n", mb2);
  std::printf("MetaBlade2/MetaBlade: %.2f (paper: ~1.57, \"about 50%% better\")\n\n",
              mb2 / mb);

  bench::print_note(
      "prose targets: MetaBlade2 places behind only the Origin 2000; the "
      "TM5600 is ~2x a Pentium Pro 200 (Loki) per processor and ~equal to "
      "Avalon's 533-MHz Alphas; single-proc rates per the cost model are in "
      "treecode/perf.hpp.");
  return 0;
}
