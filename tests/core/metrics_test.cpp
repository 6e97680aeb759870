#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/presets.hpp"

namespace bladed::core {
namespace {

TEST(Metrics, TopperIsTcoOverMflops) {
  Tco t;
  t.hardware = Dollars(35000.0);
  EXPECT_NEAR(topper(t, 2.1), 35000.0 / 2100.0, 1e-9);
}

TEST(Metrics, PaperHeadline_TopperOverTwiceAsGood) {
  // §4.1: TCO 3x smaller at 75% of the performance -> ToPPeR for the Bladed
  // Beowulf is less than half (better than twice as good as) a traditional
  // Beowulf's.
  const CostContext ctx;
  const MetricReport blade = evaluate(metablade(), ctx);
  const MetricReport trad = evaluate(pentium3_24(), ctx);
  EXPECT_LT(blade.topper, 0.5 * trad.topper);
}

TEST(Metrics, PaperHeadline_AcquisitionPricePerfFavoursTraditional) {
  // §4.1: on acquisition-only price/performance "there exists no reason to
  // use a Bladed Beowulf": the blade is ~2x more expensive per Mflops.
  const CostContext ctx;
  const MetricReport blade = evaluate(metablade(), ctx);
  const MetricReport trad = evaluate(pentium3_24(), ctx);
  EXPECT_GT(blade.price_perf, 1.5 * trad.price_perf);
}

TEST(Metrics, PerfSpaceTable6Shape) {
  // Table 6: MetaBlade beats Avalon ~2x; Green Destiny beats it >20x.
  const double av = performance_per_space(avalon().sustained_gflops,
                                          avalon().area);
  const double mb = performance_per_space(metablade().sustained_gflops,
                                          metablade().area);
  const double gd = performance_per_space(green_destiny().sustained_gflops,
                                          green_destiny().area);
  EXPECT_NEAR(mb / av, 2.3, 0.5);
  EXPECT_GT(gd / av, 20.0);
}

TEST(Metrics, PerfPowerTable7Shape) {
  // Table 7: "the Bladed Beowulfs outperform the traditional Beowulf by a
  // factor of four" in Gflops/kW.
  const double av = performance_per_power(avalon().sustained_gflops,
                                          avalon().total_power());
  const double mb = performance_per_power(metablade().sustained_gflops,
                                          metablade().total_power());
  const double gd = performance_per_power(green_destiny().sustained_gflops,
                                          green_destiny().total_power());
  EXPECT_NEAR(mb / av, 4.0, 1.0);
  EXPECT_GT(gd, mb);  // the TM5800 blades are even better
}

TEST(Metrics, UnitsOfPerfSpace) {
  // 2.1 Gflops in 6 ft^2 = 350 Mflops/ft^2.
  EXPECT_NEAR(performance_per_space(2.1, SquareFeet(6.0)), 350.0, 1e-9);
}

TEST(Metrics, UnitsOfPerfPower) {
  // 2.1 Gflops at 0.6 kW = 3.5 Gflops/kW.
  EXPECT_NEAR(performance_per_power(2.1, Watts(600.0)), 3.5, 1e-9);
}

TEST(Metrics, EvaluateIsSelfConsistent) {
  const CostContext ctx;
  const ClusterSpec spec = metablade();
  const MetricReport r = evaluate(spec, ctx);
  EXPECT_NEAR(r.topper, topper(r.tco, spec.sustained_gflops), 1e-12);
  EXPECT_NEAR(r.perf_space,
              performance_per_space(spec.sustained_gflops, spec.area), 1e-12);
}

TEST(Metrics, RejectDegenerateInputs) {
  EXPECT_THROW((void)performance_per_space(1.0, SquareFeet(0.0)),
               PreconditionError);
  EXPECT_THROW((void)performance_per_power(1.0, Watts(0.0)), PreconditionError);
  EXPECT_THROW((void)topper(Tco{}, 0.0), PreconditionError);
}

}  // namespace
}  // namespace bladed::core
