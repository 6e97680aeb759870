#include "arch/roofline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace bladed::arch {
namespace {

KernelProfile compute_kernel() {
  KernelProfile p;
  p.name = "compute";
  p.ops.fadd = 1'000'000;
  p.ops.fmul = 1'000'000;
  p.ops.load = 10'000;  // intensity 200
  p.miss_intensity = 0.1;
  p.dependency = 0.0;
  return p;
}

KernelProfile memory_kernel() {
  KernelProfile p;
  p.name = "memory";
  p.ops.fadd = 100'000;
  p.ops.load = 1'000'000;
  p.ops.store = 500'000;  // intensity 0.067
  p.miss_intensity = 0.9;
  p.dependency = 0.0;
  return p;
}

TEST(Roofline, ClassifiesComputeVsMemoryBound) {
  const ProcessorModel& cpu = tm5600_633();
  EXPECT_TRUE(roofline_point(cpu, compute_kernel()).compute_bound());
  EXPECT_FALSE(roofline_point(cpu, memory_kernel()).compute_bound());
}

TEST(Roofline, AchievedNeverExceedsTheRoof) {
  for (const ProcessorModel& cpu : all_processors()) {
    for (const KernelProfile& k : {compute_kernel(), memory_kernel()}) {
      const RooflinePoint pt = roofline_point(cpu, k);
      const double roof =
          std::min(pt.peak_mflops, pt.memory_ceiling_mflops);
      EXPECT_LE(pt.achieved_mflops, roof * 1.0001) << cpu.name << " "
                                                   << k.name;
      EXPECT_GT(pt.percent_of_roof(), 0.0);
      EXPECT_LE(pt.percent_of_roof(), 100.01);
    }
  }
}

TEST(Roofline, MemoryCeilingScalesWithIntensity) {
  const ProcessorModel& cpu = pentium3_500();
  KernelProfile k = memory_kernel();
  const RooflinePoint low = roofline_point(cpu, k);
  k.ops.fadd *= 10;  // 10x intensity, same traffic
  const RooflinePoint high = roofline_point(cpu, k);
  EXPECT_NEAR(high.memory_ceiling_mflops / low.memory_ceiling_mflops,
              high.intensity / low.intensity, 1e-9);
}

TEST(Roofline, MissIntensityLowersTheMemoryCeiling) {
  const ProcessorModel& cpu = power3_375();
  EXPECT_GT(memory_mops_ceiling(cpu, 0.0), memory_mops_ceiling(cpu, 0.5));
  EXPECT_GT(memory_mops_ceiling(cpu, 0.5), memory_mops_ceiling(cpu, 1.0));
  EXPECT_THROW((void)memory_mops_ceiling(cpu, 1.5), PreconditionError);
}

TEST(Roofline, PureComputeKernelHasInfiniteIntensity) {
  KernelProfile p;
  p.name = "no-mem";
  p.ops.fmul = 1000;
  const RooflinePoint pt = roofline_point(tm5600_633(), p);
  EXPECT_TRUE(std::isinf(pt.intensity));
  EXPECT_TRUE(pt.compute_bound());
}

TEST(Roofline, BatchMatchesPointwise) {
  const std::vector<KernelProfile> ks = {compute_kernel(), memory_kernel()};
  const auto pts = roofline(alpha_ev56_533(), ks);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].achieved_mflops,
                   roofline_point(alpha_ev56_533(), ks[0]).achieved_mflops);
}

TEST(Roofline, Power3HasTheHighestMemoryCeiling) {
  // Two LSUs + the lowest miss penalty: Power3's memory roof tops the
  // 2001 field at every miss intensity — the Table 3 explanation.
  for (double miss : {0.1, 0.5, 1.0}) {
    const double p3 = memory_mops_ceiling(power3_375(), miss);
    for (const char* other : {"TM5600", "PIII", "EV56", "PPro"}) {
      EXPECT_GT(p3, memory_mops_ceiling(by_short_name(other), miss))
          << other << " at miss " << miss;
    }
  }
}

}  // namespace
}  // namespace bladed::arch
