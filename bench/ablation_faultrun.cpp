/// Executed fault ablation: runs the parallel treecode under injected
/// failures with the fault-tolerant transport and coordinated
/// checkpoint/restart, and converts the *measured* recovery overhead into
/// downtime dollars — the first executed (rather than assumed) input to the
/// paper's Table 5 DTC arithmetic. Table 5 prices a failure as a fixed
/// outage (4 h x 24 nodes x $5/CPU-hour); here the repair outage sits on the
/// virtual timeline and the run additionally pays what the point estimate
/// ignores: failure detection latency and recomputation of the work lost
/// since the last checkpoint.

#include <cmath>
#include <cstdio>

#include "arch/registry.hpp"
#include "bench/bench_util.hpp"
#include "npb/parallel.hpp"
#include "ops/failures.hpp"
#include "treecode/checkpoint.hpp"
#include "treecode/parallel.hpp"

namespace {

bool same_particles(const bladed::treecode::ParticleSet& a,
                    const bladed::treecode::ParticleSet& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z && a.vx == b.vx &&
         a.vy == b.vy && a.vz == b.vz && a.m == b.m;
}

}  // namespace

int main() {
  using namespace bladed;
  bench::print_header("§4.1 DTC (executed)",
                      "Fault injection, recovery, and measured downtime");

  const arch::ProcessorModel& cpu = arch::tm5600_633();
  constexpr int kNodes = 24;
  constexpr double kRepairSeconds = 4.0 * 3600.0;  // Table 5's 4 h outage
  constexpr double kDollarsPerCpuHour = 5.0;

  treecode::ParallelConfig base;
  base.ranks = kNodes;
  base.particles = 1200;
  base.steps = 6;
  base.seed = 7;
  base.cpu = &cpu;

  // Fault-free reference (the original engine path, no FT transport).
  const treecode::ParallelResult ref = treecode::run_parallel_nbody(base);

  // FT machinery on, no faults: what the reliable transport + checkpoints
  // cost by themselves.
  treecode::FtConfig ft;
  ft.base = base;
  ft.checkpoint_every = 2;
  ft.recovery.restart_penalty_seconds = kRepairSeconds;
  const treecode::FtResult clean = treecode::run_parallel_nbody_ft(ft);
  const double t_run = clean.result.elapsed_seconds;

  TablePrinter overhead({"Configuration", "Virtual s", "vs baseline",
                         "Bytes", "Checkpoints"});
  overhead.add_row({"fault-free engine",
                    TablePrinter::num(ref.elapsed_seconds, 4), "1.00x",
                    TablePrinter::num(static_cast<double>(ref.bytes), 0),
                    "0"});
  overhead.add_row(
      {"FT transport + checkpoints, no faults",
       TablePrinter::num(t_run, 4),
       TablePrinter::num(t_run / ref.elapsed_seconds, 2) + "x",
       TablePrinter::num(static_cast<double>(clean.result.bytes), 0),
       TablePrinter::num(clean.recovery.checkpoints, 0)});
  bench::print_table(overhead);

  // Two executed failures: a node crash at ~35% and ~70% of the run, each
  // on top of link-level noise (drop / corruption / transient-delay
  // windows). Every failure is detected, the survivors raise typed errors,
  // and the driver restarts from the last coordinated checkpoint.
  TablePrinter runs({"Crash at", "Restarts", "Resume step", "Drops",
                     "CRC rejects", "Retransmits", "Lost virtual s",
                     "Bit-identical"});
  double lost_sum = 0.0;
  std::uint64_t crash_sum = 0;
  for (const double frac : {0.35, 0.7}) {
    treecode::FtConfig faulted = ft;
    faulted.recovery.schedule.link_drop(-1, -1, 0.0, 0.25 * t_run, 0.10)
        .corrupt(-1, -1, 0.05 * t_run, 0.30 * t_run, 0.08)
        .delay(-1, -1, 0.0, 0.20 * t_run, 150e-6, 0.20)
        .crash(static_cast<int>(5 + 11 * frac), frac * t_run);
    const treecode::FtResult r = treecode::run_parallel_nbody_ft(faulted);
    const fault::FaultStats& s = r.recovery.fault_stats;
    lost_sum += r.recovery.lost_virtual_seconds;
    crash_sum += s.crashes;
    runs.add_row({TablePrinter::num(100.0 * frac, 0) + "% of run",
                  TablePrinter::num(r.recovery.restarts, 0),
                  TablePrinter::num(r.recovery.resumed_from, 0),
                  TablePrinter::num(static_cast<double>(s.drops), 0),
                  TablePrinter::num(static_cast<double>(s.crc_rejects), 0),
                  TablePrinter::num(static_cast<double>(s.retransmits), 0),
                  TablePrinter::num(r.recovery.lost_virtual_seconds, 1),
                  same_particles(r.result.particles_out, ref.particles_out)
                      ? "yes"
                      : "NO"});
  }
  bench::print_table(runs);

  // Graceful degradation: lose a node for good and finish on the survivors.
  {
    treecode::FtConfig degrade = ft;
    degrade.recovery.schedule.crash(9, 0.5 * t_run);
    degrade.on_node_loss = treecode::NodeLossPolicy::kDegrade;
    const treecode::FtResult r = treecode::run_parallel_nbody_ft(degrade);
    std::printf("degraded finish: %d -> %d ranks, %d restart(s), energy "
                "drift vs reference %.2e\n\n",
                kNodes, r.final_ranks, r.recovery.restarts,
                std::abs(r.result.kinetic + r.result.potential -
                         (ref.kinetic + ref.potential)));
  }

  // EP under the same machinery (batch checkpoints of the partial sums).
  {
    npb::NpbFaultConfig nf;
    nf.base.ranks = kNodes;
    nf.base.cpu = &cpu;
    nf.recovery.restart_penalty_seconds = kRepairSeconds;
    const npb::ParallelEpResult ep_ref = npb::run_parallel_ep(nf.base, 16);
    nf.recovery.schedule.crash(3, 0.4 * ep_ref.elapsed_seconds);
    const npb::ParallelEpFtResult ep =
        npb::run_parallel_ep_ft(nf, /*m=*/16, /*batches=*/4);
    std::printf("EP class-mini under a crash: %d restart(s), %d checkpoints, "
                "pairs verified: %s\n\n",
                ep.recovery.restarts, ep.recovery.checkpoints,
                ep.ep.global.pairs == (1ULL << 16) ? "yes" : "NO");
  }

  // DTC closure: price the executed recovery against Table 5's statistics.
  // Per-failure overhead = repair outage (on the virtual timeline) +
  // detection + recomputation since the last checkpoint, all measured.
  const ops::OperationsConfig trad = ops::traditional_ops();
  const ops::MonteCarloResult mc = ops::simulate(trad, 10000, 2002);
  const double lost_per_failure =
      crash_sum > 0 ? lost_sum / static_cast<double>(crash_sum) : 0.0;
  const double executed_dtc = mc.failures.mean * (lost_per_failure / 3600.0) *
                              kNodes * kDollarsPerCpuHour;
  const double statistical_per_failure = kRepairSeconds;

  TablePrinter dtc({"DTC input", "Per-failure outage h", "4-year $"});
  dtc.add_row({"Table 5 / Monte Carlo (assumed 4 h)",
               TablePrinter::num(statistical_per_failure / 3600.0, 2),
               TablePrinter::num(mc.downtime_cost.mean, 0)});
  dtc.add_row({"executed (measured recovery)",
               TablePrinter::num(lost_per_failure / 3600.0, 6),
               TablePrinter::num(executed_dtc, 0)});
  bench::print_table(dtc);

  bench::print_note(
      "the executed per-failure outage exceeds the assumed 4 h by the "
      "detection latency plus the recomputation of work since the last "
      "checkpoint, so the executed DTC lands slightly above the Monte Carlo "
      "mean — same sign, same order of magnitude, and the gap is exactly "
      "the term Table 5's point arithmetic ignores.");
  return 0;
}
