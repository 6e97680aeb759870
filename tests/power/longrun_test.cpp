#include "power/longrun.hpp"

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "microkernel/microkernel.hpp"

namespace bladed::power {
namespace {

arch::KernelProfile work() {
  return micro::microkernel_profile(micro::SqrtImpl::kKarp, false, 500000);
}

TEST(LongRun, LadderIsSortedAndTopMatchesDatasheet) {
  for (const LongRunLadder& l : {tm5600_ladder(), tm5800_800_ladder()}) {
    for (std::size_t i = 1; i < l.states.size(); ++i) {
      EXPECT_GT(l.states[i].frequency.value(),
                l.states[i - 1].frequency.value());
      EXPECT_GE(l.states[i].volts, l.states[i - 1].volts);
    }
    EXPECT_NEAR(l.active_watts(l.top()).value(), l.top_watts.value(), 1e-9);
  }
  EXPECT_NEAR(tm5600_ladder().top().frequency.value(), 633.0, 1e-9);
}

TEST(LongRun, PowerScalesSuperlinearlyDownTheLadder) {
  const LongRunLadder l = tm5600_ladder();
  // 300 MHz / 1.2 V vs 633 MHz / 1.6 V: dynamic power ratio
  // (300/633)(1.2/1.6)^2 = 0.267 -> well under the frequency ratio 0.474.
  const double bottom = l.active_watts(l.bottom()).value();
  const double top = l.active_watts(l.top()).value();
  const double freq_ratio = 300.0 / 633.0;
  EXPECT_LT((bottom - l.static_watts.value()) /
                (top - l.static_watts.value()),
            freq_ratio);
}

TEST(LongRun, IdleBelowEveryActiveState) {
  const LongRunLadder l = tm5600_ladder();
  for (const PerfState& s : l.states) {
    EXPECT_LT(l.idle_watts().value(), l.active_watts(s).value());
  }
  EXPECT_GE(l.idle_watts().value(), l.static_watts.value());
}

TEST(LongRun, SlowerStateTakesProportionallyLonger) {
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const EnergyReport fast = energy_to_solution(cpu, l, work(), l.top());
  const EnergyReport slow = energy_to_solution(cpu, l, work(), l.bottom());
  EXPECT_NEAR(slow.seconds / fast.seconds, 633.0 / 300.0, 1e-9);
}

TEST(LongRun, SlowAndLowUsesLessEnergyPerWorkUnit) {
  // Without idle power, V^2 scaling makes the bottom state the most
  // energy-efficient per operation.
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const EnergyReport fast = energy_to_solution(cpu, l, work(), l.top());
  const EnergyReport slow = energy_to_solution(cpu, l, work(), l.bottom());
  EXPECT_LT(slow.joules, fast.joules);
}

TEST(LongRun, IdleFloorCreatesAnEnergyOptimumOverAPeriod) {
  // Over a fixed period the bottom state is NOT automatically best: idle
  // power during the slack favours finishing earlier. The governor's pick
  // must beat or match both extremes.
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const arch::KernelProfile p = work();
  const double top_time = energy_to_solution(cpu, l, p, l.top()).seconds;
  const double period = 1.2 * top_time * (633.0 / 300.0);

  const PerfState chosen = pick_state(cpu, l, p, period);
  const double chosen_e = energy_over_period(cpu, l, p, chosen, period);
  for (const PerfState& s : l.states) {
    const double e = energy_over_period(cpu, l, p, s, period);
    EXPECT_LE(chosen_e, e + 1e-12) << s.frequency.value();
  }
}

TEST(LongRun, TightDeadlineForcesTopState) {
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const arch::KernelProfile p = work();
  const double top_time = energy_to_solution(cpu, l, p, l.top()).seconds;
  const PerfState s = pick_state(cpu, l, p, top_time * 1.01);
  EXPECT_NEAR(s.frequency.value(), 633.0, 1e-9);
}

TEST(LongRun, LooseDeadlinePrefersLowerState) {
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const arch::KernelProfile p = work();
  const double top_time = energy_to_solution(cpu, l, p, l.top()).seconds;
  const PerfState s = pick_state(cpu, l, p, 10.0 * top_time);
  EXPECT_LT(s.frequency.value(), 633.0);
}

TEST(LongRun, ImpossibleDeadlineThrows) {
  const LongRunLadder l = tm5600_ladder();
  const auto& cpu = arch::tm5600_633();
  const arch::KernelProfile p = work();
  const double top_time = energy_to_solution(cpu, l, p, l.top()).seconds;
  EXPECT_THROW((void)pick_state(cpu, l, p, 0.5 * top_time), SimulationError);
  EXPECT_THROW((void)energy_over_period(cpu, l, p, l.bottom(), 0.0),
               PreconditionError);
}

TEST(LongRun, Tm5800LadderIsStrictlyMoreEfficient) {
  // The newer part does the same work in fewer joules at every rung depth.
  const auto& cpu56 = arch::tm5600_633();
  const auto& cpu58 = arch::tm5800_800();
  const LongRunLadder l56 = tm5600_ladder();
  const LongRunLadder l58 = tm5800_800_ladder();
  const arch::KernelProfile p = work();
  EXPECT_LT(energy_to_solution(cpu58, l58, p, l58.top()).joules,
            energy_to_solution(cpu56, l56, p, l56.top()).joules);
}

}  // namespace
}  // namespace bladed::power
