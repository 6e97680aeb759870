#include "core/tco.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/presets.hpp"

namespace bladed::core {
namespace {

// Table 5 of the paper (verbatim in the text), in dollars, 4-year period.
struct Table5Row {
  const char* name;
  double acquisition, sysadmin, power_cooling, space, downtime, tco;
};
constexpr Table5Row kPaperTable5[] = {
    {"Alpha", 17000, 60000, 11000, 8000, 12000, 108000},
    {"Athlon", 15000, 60000, 6000, 8000, 12000, 101000},
    {"PIII", 16000, 60000, 6000, 8000, 12000, 102000},
    {"P4", 17000, 60000, 11000, 8000, 12000, 108000},
    {"TM5600", 26000, 5000, 2000, 2000, 0, 35000},
};

TEST(Tco, ReproducesPaperTable5WithinRounding) {
  const CostContext ctx;  // paper defaults: 4 yr, $0.10/kWh, $100/ft2/yr, $5/CPU-h
  const auto clusters = table5_clusters();
  ASSERT_EQ(clusters.size(), 5u);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const Tco t = compute_tco(clusters[i], ctx);
    const Table5Row& row = kPaperTable5[i];
    // The paper rounds to the nearest $1K; allow that rounding.
    EXPECT_NEAR(t.acquisition().value(), row.acquisition, 500.0) << row.name;
    EXPECT_NEAR(t.sysadmin.value(), row.sysadmin, 500.0) << row.name;
    EXPECT_NEAR(t.power_cooling.value(), row.power_cooling, 500.0) << row.name;
    EXPECT_NEAR(t.space.value(), row.space, 500.0) << row.name;
    EXPECT_NEAR(t.downtime.value(), row.downtime, 500.0) << row.name;
    EXPECT_NEAR(t.total().value(), row.tco, 1500.0) << row.name;
  }
}

TEST(Tco, BladedTcoIsAboutThreeTimesBetter) {
  // §4.1: "the TCO on our MetaBlade Bladed Beowulf is approximately three
  // times better than the TCO on a traditional Beowulf".
  const CostContext ctx;
  const double blade = compute_tco(metablade(), ctx).total().value();
  for (const ClusterSpec& trad :
       {alpha_24(), athlon_24(), pentium3_24(), pentium4_24()}) {
    const double t = compute_tco(trad, ctx).total().value();
    EXPECT_GT(t / blade, 2.5) << trad.name;
    EXPECT_LT(t / blade, 3.6) << trad.name;
  }
}

TEST(Tco, ExactPaperComponentFigures) {
  const CostContext ctx;
  const Tco blade = compute_tco(metablade(), ctx);
  EXPECT_NEAR(blade.sysadmin.value(), 5050.0, 1.0);      // $250 + 4x$1200
  EXPECT_NEAR(blade.power_cooling.value(), 2102.0, 5.0); // $2,102
  EXPECT_NEAR(blade.space.value(), 2400.0, 1.0);         // 6 ft2 x $100 x 4
  EXPECT_NEAR(blade.downtime.value(), 20.0, 1.0);        // $20

  const Tco p4 = compute_tco(pentium4_24(), ctx);
  EXPECT_NEAR(p4.power_cooling.value(), 10722.0, 10.0);  // $10,722
  EXPECT_NEAR(p4.downtime.value(), 11520.0, 1.0);        // $11,520
}

TEST(Tco, AcquisitionSplitsHardwareSoftware) {
  ClusterSpec c = metablade();
  c.software_cost = Dollars(1000.0);
  const Tco t = compute_tco(c, CostContext{});
  EXPECT_DOUBLE_EQ(t.acquisition().value(),
                   c.hardware_cost.value() + 1000.0);
}

TEST(Tco, OperatingCostIsSumOfFourComponents) {
  const Tco t = compute_tco(alpha_24(), CostContext{});
  EXPECT_DOUBLE_EQ(t.operating().value(),
                   t.sysadmin.value() + t.power_cooling.value() +
                       t.space.value() + t.downtime.value());
  EXPECT_DOUBLE_EQ(t.total().value(),
                   t.acquisition().value() + t.operating().value());
}

TEST(Tco, LostCpuHoursPaperArithmetic) {
  // Traditional: 6 whole-cluster outages/yr x 4 h x 24 CPUs x 4 yr = 2304.
  DowntimeSpec trad;
  trad.cluster_failures_per_year = 6.0;
  trad.repair_time = Hours(4.0);
  trad.whole_cluster_outage = true;
  EXPECT_NEAR(lost_cpu_hours(trad, 24, 4.0).value(), 2304.0, 1e-9);

  DowntimeSpec blade;
  blade.cluster_failures_per_year = 1.0;
  blade.repair_time = Hours(1.0);
  blade.whole_cluster_outage = false;
  EXPECT_NEAR(lost_cpu_hours(blade, 24, 4.0).value(), 4.0, 1e-9);
}

TEST(Tco, ScalesWithOperatingPeriod) {
  CostContext two;
  two.years = 2.0;
  CostContext four;
  four.years = 4.0;
  const ClusterSpec c = pentium3_24();
  const Tco t2 = compute_tco(c, two);
  const Tco t4 = compute_tco(c, four);
  EXPECT_DOUBLE_EQ(t2.acquisition().value(), t4.acquisition().value());
  EXPECT_NEAR(t4.power_cooling.value(), 2.0 * t2.power_cooling.value(), 1e-6);
  EXPECT_NEAR(t4.space.value(), 2.0 * t2.space.value(), 1e-6);
  EXPECT_NEAR(t4.downtime.value(), 2.0 * t2.downtime.value(), 1e-6);
}

TEST(Tco, RejectsEmptyCluster) {
  ClusterSpec c;
  c.nodes = 0;
  EXPECT_THROW((void)compute_tco(c, CostContext{}), PreconditionError);
}

}  // namespace
}  // namespace bladed::core
