#include "arch/cost_model.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace bladed::arch {

// gtest prints a parameter it has no printer for as a raw byte dump, which
// for ProcessorModel includes heap addresses; test discovery copies that dump
// into the registered test names, so they changed with every build.
void PrintTo(const ProcessorModel& m, std::ostream* os) { *os << m.short_name; }

namespace {

KernelProfile balanced_kernel() {
  KernelProfile p;
  p.name = "balanced";
  p.ops.fadd = 1'000'000;
  p.ops.fmul = 1'000'000;
  p.ops.iop = 500'000;
  p.ops.load = 600'000;
  p.ops.store = 200'000;
  p.ops.branch = 100'000;
  p.dependency = 0.3;
  p.miss_intensity = 0.05;
  return p;
}

TEST(CostModel, TimeIsPositiveAndMflopsBelowPeak) {
  for (const ProcessorModel& m : all_processors()) {
    const CostBreakdown c = estimate(m, balanced_kernel());
    EXPECT_GT(c.seconds, 0.0) << m.name;
    EXPECT_GT(c.mflops, 0.0) << m.name;
    EXPECT_LE(c.mflops, m.peak_mflops() * 1.0001) << m.name;
    EXPECT_LE(c.percent_of_peak, 100.01) << m.name;
  }
}

TEST(CostModel, ScalesLinearlyWithOpCounts) {
  const ProcessorModel& cpu = pentium3_500();
  KernelProfile p = balanced_kernel();
  const double t1 = estimate_seconds(cpu, p);
  p.ops *= 10;
  const double t10 = estimate_seconds(cpu, p);
  EXPECT_NEAR(t10 / t1, 10.0, 1e-9);
}

TEST(CostModel, ScaleFieldMatchesScalingCounts) {
  const ProcessorModel& cpu = tm5600_633();
  KernelProfile p = balanced_kernel();
  KernelProfile scaled = p;
  scaled.scale = 7.0;
  KernelProfile multiplied = p;
  multiplied.ops *= 7;
  EXPECT_NEAR(estimate_seconds(cpu, scaled),
              estimate_seconds(cpu, multiplied), 1e-12);
  // Rates are intensive: unchanged by scale.
  EXPECT_NEAR(estimate_mflops(cpu, scaled), estimate_mflops(cpu, p), 1e-9);
}

TEST(CostModel, HigherClockIsFasterAllElseEqual) {
  ProcessorModel slow = pentium3_500();
  ProcessorModel fast = slow;
  fast.clock = Megahertz(1000.0);
  const KernelProfile p = balanced_kernel();
  EXPECT_NEAR(estimate_seconds(slow, p) / estimate_seconds(fast, p), 2.0,
              1e-9);
}

TEST(CostModel, DependencyReducesThroughput) {
  const ProcessorModel& cpu = power3_375();
  KernelProfile free = balanced_kernel();
  free.dependency = 0.0;
  KernelProfile chained = balanced_kernel();
  chained.dependency = 0.9;
  EXPECT_GT(estimate_mflops(cpu, free), estimate_mflops(cpu, chained));
}

TEST(CostModel, MissIntensityReducesThroughput) {
  const ProcessorModel& cpu = athlon_mp_1200();
  KernelProfile hot = balanced_kernel();
  hot.miss_intensity = 0.0;
  KernelProfile cold = balanced_kernel();
  cold.miss_intensity = 1.0;
  EXPECT_GT(estimate_mflops(cpu, hot), 1.5 * estimate_mflops(cpu, cold));
}

TEST(CostModel, MorphOverheadSlowsDown) {
  ProcessorModel base = tm5600_633();
  base.morph_overhead = 1.0;
  ProcessorModel taxed = base;
  taxed.morph_overhead = 1.3;
  const KernelProfile p = balanced_kernel();
  EXPECT_NEAR(estimate_seconds(taxed, p) / estimate_seconds(base, p), 1.3,
              1e-9);
}

TEST(CostModel, SqrtHeavyKernelFavoursHardwareSqrt) {
  KernelProfile p;
  p.name = "sqrt-heavy";
  p.ops.fsqrt = 1'000'000;
  p.ops.fadd = 1'000'000;
  // Power3 (hardware fsqrt, 22 cycles) must beat EV56 (software, ~70) per
  // clock on this mix.
  const CostBreakdown p3 = estimate(power3_375(), p);
  const CostBreakdown ev = estimate(alpha_ev56_533(), p);
  const double p3_per_clock = p3.mflops / power3_375().clock.value();
  const double ev_per_clock = ev.mflops / alpha_ev56_533().clock.value();
  EXPECT_GT(p3_per_clock, 2.0 * ev_per_clock);
}

TEST(CostModel, SharedFpuSerializesAddsAndMuls) {
  // On the TM5600 (single FPU) a mul-only kernel and an equal add+mul kernel
  // of the same total flops take the same time; on the EV56 (separate pipes)
  // the mixed kernel is ~2x faster.
  KernelProfile mixed;
  mixed.ops.fadd = 500'000;
  mixed.ops.fmul = 500'000;
  mixed.dependency = 0.0;
  KernelProfile muls;
  muls.ops.fmul = 1'000'000;
  muls.dependency = 0.0;

  const double tm_ratio = estimate_seconds(tm5600_633(), muls) /
                          estimate_seconds(tm5600_633(), mixed);
  const double ev_ratio = estimate_seconds(alpha_ev56_533(), muls) /
                          estimate_seconds(alpha_ev56_533(), mixed);
  EXPECT_NEAR(tm_ratio, 1.0, 0.05);
  EXPECT_GT(ev_ratio, 1.6);
}

TEST(CostModel, RejectsNonPositiveScale) {
  KernelProfile p = balanced_kernel();
  p.scale = 0.0;
  EXPECT_THROW((void)estimate(tm5600_633(), p), PreconditionError);
}

class EveryProcessorTest : public ::testing::TestWithParam<ProcessorModel> {};

TEST_P(EveryProcessorTest, BreakdownComponentsAreConsistent) {
  const ProcessorModel& m = GetParam();
  const CostBreakdown c = estimate(m, balanced_kernel());
  // The blended total must lie between max(component) (full overlap) and the
  // serial sum (no overlap), pre-tax.
  const double serial =
      c.fp_cycles + c.int_cycles + c.mem_cycles + c.branch_cycles;
  const double overlapped = std::max(
      {c.fp_cycles, c.int_cycles, c.mem_cycles, c.branch_cycles});
  const double pretax = c.total_cycles / m.morph_overhead * m.tuning;
  EXPECT_GE(pretax, overlapped * 0.999);
  EXPECT_LE(pretax, serial * 1.001);
}

TEST_P(EveryProcessorTest, MopsAtLeastMflops) {
  const CostBreakdown c = estimate(GetParam(), balanced_kernel());
  EXPECT_GE(c.mops, c.mflops);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryProcessorTest,
    ::testing::ValuesIn(all_processors().begin(), all_processors().end()),
    [](const ::testing::TestParamInfo<ProcessorModel>& info) {
      std::string n = info.param.short_name;
      for (char& ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return n;
    });

}  // namespace
}  // namespace bladed::arch
