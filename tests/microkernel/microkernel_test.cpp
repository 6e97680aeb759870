#include "microkernel/microkernel.hpp"

#include <gtest/gtest.h>

#include "arch/cost_model.hpp"
#include "arch/registry.hpp"
#include "common/error.hpp"

namespace bladed::micro {
namespace {

TEST(Microkernel, BothVariantsComputeTheSameAccelerations) {
  // Karp's rsqrt at 2 NR iterations is bit-comparable to libm sqrt: the two
  // checksums must agree to ~1e-13 relative.
  const MicroResult libm = run_microkernel(SqrtImpl::kLibm);
  const MicroResult karp = run_microkernel(SqrtImpl::kKarp);
  EXPECT_NE(libm.checksum, 0.0);
  EXPECT_NEAR(libm.checksum, karp.checksum,
              1e-12 * std::abs(libm.checksum));
}

TEST(Microkernel, ChecksumIsDeterministic) {
  EXPECT_DOUBLE_EQ(run_microkernel(SqrtImpl::kLibm).checksum,
                   run_microkernel(SqrtImpl::kLibm).checksum);
}

TEST(Microkernel, OpCountsScaleWithIterations) {
  const MicroResult a = run_microkernel(SqrtImpl::kKarp, 100);
  const MicroResult b = run_microkernel(SqrtImpl::kKarp, 200);
  EXPECT_EQ(b.ops.fmul, 2 * a.ops.fmul);
  EXPECT_EQ(b.ops.flops(), 2 * a.ops.flops());
}

TEST(Microkernel, LibmVariantUsesSqrtAndDivide) {
  const OpCounter o = per_iteration_ops(SqrtImpl::kLibm);
  EXPECT_EQ(o.fsqrt, 1u);
  EXPECT_EQ(o.fdiv, 1u);
  EXPECT_EQ(o.flops(), 14u);  // the nominal convention
  EXPECT_DOUBLE_EQ(static_cast<double>(o.flops()),
                   kNominalFlopsPerIteration);
}

TEST(Microkernel, KarpVariantIsSqrtAndDivideFree) {
  const OpCounter o = per_iteration_ops(SqrtImpl::kKarp);
  EXPECT_EQ(o.fsqrt, 0u);
  EXPECT_EQ(o.fdiv, 0u);
  EXPECT_GT(o.fmul, per_iteration_ops(SqrtImpl::kLibm).fmul);
}

TEST(Microkernel, ProfileMatchesMeasuredRun) {
  for (SqrtImpl impl : {SqrtImpl::kLibm, SqrtImpl::kKarp}) {
    const arch::KernelProfile p = microkernel_profile(impl, true, 500);
    const MicroResult r = run_microkernel(impl, 500);
    EXPECT_EQ(p.ops.flops(), r.ops.flops());
    EXPECT_EQ(p.ops.mem_ops(), r.ops.mem_ops());
  }
}

TEST(Microkernel, RejectsBadIterationCount) {
  EXPECT_THROW((void)run_microkernel(SqrtImpl::kLibm, 0), PreconditionError);
  EXPECT_THROW(microkernel_profile(SqrtImpl::kKarp, true, -5),
               PreconditionError);
}

// --- Table 1 shape invariants (the paper's prose) --------------------------

double nominal_mflops(const arch::ProcessorModel& cpu, SqrtImpl impl,
                      bool tuned) {
  const arch::KernelProfile p = microkernel_profile(impl, tuned);
  const double secs = arch::estimate_seconds(cpu, p);
  return kNominalFlopsPerIteration * kPaperIterations / secs / 1e6;
}

TEST(Table1Shape, KarpBeatsLibmOnEveryProcessor) {
  for (const auto& cpu : arch::all_processors()) {
    const bool tuned = cpu.short_name.substr(0, 2) != "TM";
    EXPECT_GT(nominal_mflops(cpu, SqrtImpl::kKarp, tuned),
              nominal_mflops(cpu, SqrtImpl::kLibm, tuned))
        << cpu.name;
  }
}

TEST(Table1Shape, TransmetaMatchesIntelAndAlphaPerClockOnMathSqrt) {
  // §3.2: "In the Math sqrt benchmark, the Transmeta performs as well as
  // (if not better than) the Intel and Alpha, relative to clock speed."
  const double tm = nominal_mflops(arch::tm5600_633(), SqrtImpl::kLibm,
                                   false) /
                    arch::tm5600_633().clock.value();
  const double p3 = nominal_mflops(arch::pentium3_500(), SqrtImpl::kLibm,
                                   true) /
                    arch::pentium3_500().clock.value();
  const double ev = nominal_mflops(arch::alpha_ev56_533(), SqrtImpl::kLibm,
                                   true) /
                    arch::alpha_ev56_533().clock.value();
  EXPECT_GE(tm, p3);
  EXPECT_GE(tm, ev);
}

TEST(Table1Shape, TransmetaSuffersABitOnKarp) {
  // §3.2: the Karp build was arch-optimized everywhere except the Transmeta,
  // so the TM5600's Karp speedup factor is the smallest in the table.
  auto ratio = [&](const arch::ProcessorModel& cpu, bool tuned) {
    return nominal_mflops(cpu, SqrtImpl::kKarp, tuned) /
           nominal_mflops(cpu, SqrtImpl::kLibm, tuned);
  };
  const double tm = ratio(arch::tm5600_633(), false);
  for (const char* other : {"PIII", "EV56", "Power3", "AthlonMP"}) {
    EXPECT_LT(tm, ratio(arch::by_short_name(other), true)) << other;
  }
}

TEST(Table1Shape, FastClockedCpusLeadInAbsoluteTerms) {
  // The Athlon MP (1.2 GHz) and Power3 dominate the absolute column — the
  // paper's motivation for calling out that they are not comparably clocked.
  const double athlon =
      nominal_mflops(arch::athlon_mp_1200(), SqrtImpl::kKarp, true);
  const double power3 =
      nominal_mflops(arch::power3_375(), SqrtImpl::kKarp, true);
  for (const char* slow : {"PIII", "EV56", "TM5600"}) {
    const auto& cpu = arch::by_short_name(slow);
    const bool tuned = cpu.short_name.substr(0, 2) != "TM";
    const double v = nominal_mflops(cpu, SqrtImpl::kKarp, tuned);
    EXPECT_GT(athlon, v) << slow;
    EXPECT_GT(power3, v) << slow;
  }
}

}  // namespace
}  // namespace bladed::micro
