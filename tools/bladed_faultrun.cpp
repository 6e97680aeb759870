/// bladed-faultrun: run the parallel treecode under a seeded fault schedule
/// and print the executed-fault recovery report — the command-line front end
/// of the bladed::fault layer. `--selftest` replays the same seed twice and
/// fails unless the recovery trace and final particle state are
/// bit-identical (the determinism contract, wired into ctest).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "arch/registry.hpp"
#include "cli.hpp"
#include "fault/injector.hpp"
#include "treecode/checkpoint.hpp"

namespace {

struct Options {
  std::uint64_t seed = 2002;
  int ranks = 8;
  std::size_t particles = 400;
  int steps = 4;
  double ambient_c = 25.0;
  double acceleration = 0.0;  // 0 = pick one that lands ~4 events in-run
  double crash_at = 0.6;      // fraction of the fault-free run; <0 = none
  bool degrade = false;
  bool trace = false;
  bool selftest = false;
  int host_threads = 1;
};

constexpr const char* kUsage =
    ("usage: bladed-faultrun [options]\n"
      "  --seed N        fault + schedule seed (default 2002)\n"
      "  --ranks N       simulated nodes (default 8)\n"
      "  --particles N   N-body size (default 400)\n"
      "  --steps N       integration steps (default 4)\n"
      "  --ambient C     room temperature for the Arrhenius schedule\n"
      "  --accel X       accelerated-life factor (default: auto)\n"
      "  --crash-at F    crash one node at fraction F of the run; -1 = off\n"
      "  --degrade       finish on the survivors instead of replacing\n"
      "  --trace         dump the executed-fault trace\n"
      "  --selftest      replay determinism check (exit 1 on mismatch)\n"
     "  --host-threads N  host worker threads for compute regions\n"
     "                  (1 = serial, 0 = auto; results are identical)\n");

bladed::treecode::FtResult run_once(const Options& o, double t_ref) {
  using namespace bladed;
  treecode::FtConfig ft;
  ft.base.ranks = o.ranks;
  ft.base.particles = o.particles;
  ft.base.steps = o.steps;
  ft.base.seed = o.seed;
  ft.base.cpu = &arch::tm5600_633();
  ft.base.host_threads = o.host_threads;
  ft.recovery.fault_seed = o.seed;
  ft.checkpoint_every = 2;
  ft.recovery.restart_penalty_seconds = 0.25;
  if (o.degrade) ft.on_node_loss = treecode::NodeLossPolicy::kDegrade;

  fault::ScheduleConfig sc;
  sc.nodes = o.ranks;
  sc.horizon_seconds = t_ref;
  sc.ambient = Celsius(o.ambient_c);
  sc.seed = o.seed;
  sc.mix.crash = 0.0;  // crashes are placed explicitly below
  // Auto-acceleration: aim for ~4 link-level events inside the run.
  sc.acceleration =
      o.acceleration > 0.0
          ? o.acceleration
          : 4.0 / (sc.reliability.failure_rate(sc.ambient) * o.ranks *
                   (t_ref / (kHoursPerYear.value() * 3600.0)));
  ft.recovery.schedule = fault::FaultSchedule::generate(sc);
  if (o.crash_at >= 0.0)
    ft.recovery.schedule.crash(static_cast<int>(o.seed % o.ranks),
                               o.crash_at * t_ref);
  return treecode::run_parallel_nbody_ft(ft);
}

void report(const bladed::treecode::FtResult& r) {
  const auto& s = r.recovery.fault_stats;
  std::printf("attempts %d  restarts %d  checkpoints %d  final ranks %d\n",
              r.recovery.attempts, r.recovery.restarts,
              r.recovery.checkpoints, r.final_ranks);
  std::printf("virtual s: total %.6g  lost %.6g  (app %.6g)\n",
              r.recovery.total_virtual_seconds,
              r.recovery.lost_virtual_seconds,
              r.result.elapsed_seconds);
  std::printf(
      "executed faults: %llu drops  %llu corruptions (%llu caught)  "
      "%llu delays  %llu crashes  %llu retransmits  %llu lost\n",
      static_cast<unsigned long long>(s.drops),
      static_cast<unsigned long long>(s.corruptions),
      static_cast<unsigned long long>(s.crc_rejects),
      static_cast<unsigned long long>(s.delays),
      static_cast<unsigned long long>(s.crashes),
      static_cast<unsigned long long>(s.retransmits),
      static_cast<unsigned long long>(s.messages_lost));
}

bool same_state(const bladed::treecode::FtResult& a,
                const bladed::treecode::FtResult& b) {
  const auto& p = a.result.particles_out;
  const auto& q = b.result.particles_out;
  return a.recovery.fault_trace == b.recovery.fault_trace &&
         a.recovery.total_virtual_seconds ==
             b.recovery.total_virtual_seconds &&
         p.x == q.x &&
         p.y == q.y && p.z == q.z && p.vx == q.vx && p.vy == q.vy &&
         p.vz == q.vz;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bladed::cli::Parser p("bladed-faultrun", kUsage);
  p.u64_value("--seed", &o.seed)
      .int_value("--ranks", &o.ranks, 1, 64)
      .size_value("--particles", &o.particles)
      .int_value("--steps", &o.steps, 1, 1000)
      .double_value("--ambient", &o.ambient_c, -273.0, 1000.0)
      .double_value("--accel", &o.acceleration, 0.0, 1e12)
      .double_value("--crash-at", &o.crash_at, -1.0, 1.0)
      .flag("--degrade", &o.degrade)
      .flag("--trace", &o.trace)
      .flag("--selftest", &o.selftest)
      .int_value("--host-threads", &o.host_threads, 0, 256);
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  try {
    // Fault-free reference run fixes the schedule horizon and crash time.
    bladed::treecode::ParallelConfig base;
    base.ranks = o.ranks;
    base.particles = o.particles;
    base.steps = o.steps;
    base.seed = o.seed;
    base.cpu = &bladed::arch::tm5600_633();
    base.host_threads = o.host_threads;
    const double t_ref =
        bladed::treecode::run_parallel_nbody(base).elapsed_seconds;

    const bladed::treecode::FtResult r = run_once(o, t_ref);
    report(r);
    if (o.trace) {
      for (const auto& e : r.recovery.fault_trace)
        std::printf("  t=%-12.6g %-10s node %d peer %d attempt %d\n", e.time,
                    bladed::fault::to_string(e.action), e.node, e.peer,
                    e.attempt);
    }
    if (o.selftest) {
      const bladed::treecode::FtResult again = run_once(o, t_ref);
      if (!same_state(r, again)) {
        std::fprintf(stderr,
                     "faultrun: replay DIVERGED (trace %zu vs %zu events)\n",
                     r.recovery.fault_trace.size(),
                     again.recovery.fault_trace.size());
        return 1;
      }
      std::puts("faultrun: replay bit-identical (trace, timing, state)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultrun: %s\n", e.what());
    return 1;
  }
  return 0;
}
