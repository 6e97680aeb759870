#include "power/reliability.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace bladed::power {
namespace {

TEST(Reliability, RateDoublesEveryTenDegrees) {
  // The paper's vendor rule: failure rate doubles per 10 C.
  ReliabilityModel m;
  const double base = m.failure_rate(m.reference_temp);
  EXPECT_DOUBLE_EQ(base, m.failures_per_node_year_ref);
  EXPECT_NEAR(m.failure_rate(Celsius(m.reference_temp.value() + 10.0)),
              2.0 * base, 1e-12);
  EXPECT_NEAR(m.failure_rate(Celsius(m.reference_temp.value() + 20.0)),
              4.0 * base, 1e-12);
  EXPECT_NEAR(m.failure_rate(Celsius(m.reference_temp.value() - 10.0)),
              0.5 * base, 1e-12);
}

TEST(Reliability, ExpectedFailuresScaleWithNodesAndYears) {
  ReliabilityModel m;
  m.failures_per_node_year_ref = 0.1;
  const double f1 = m.expected_failures(10, 1.0, m.reference_temp);
  EXPECT_NEAR(f1, 1.0, 1e-12);
  EXPECT_NEAR(m.expected_failures(20, 2.0, m.reference_temp), 4.0 * f1,
              1e-12);
}

TEST(Reliability, FractionalDegreesInterpolateGeometrically) {
  ReliabilityModel m;
  const double r5 = m.failure_rate(Celsius(m.reference_temp.value() + 5.0));
  EXPECT_NEAR(r5 / m.failures_per_node_year_ref, std::sqrt(2.0), 1e-12);
}

TEST(Downtime, WholeClusterOutageMultipliesCpuHours) {
  ReliabilityModel rel;
  rel.failures_per_node_year_ref = 0.25;  // 24 nodes -> 6 failures/yr
  OutageModel out;
  out.repair_time = Hours(4.0);
  out.whole_cluster_outage = true;
  const DowntimeEstimate d =
      estimate_downtime(rel, out, 24, 4.0, rel.reference_temp);
  EXPECT_NEAR(d.failures, 24.0, 1e-9);           // 6/yr over 4 years
  EXPECT_NEAR(d.outage.value(), 96.0, 1e-9);     // paper: 96 hours
  EXPECT_NEAR(d.cpu_hours_lost.value(), 2304.0, 1e-9);  // paper: 2304
}

TEST(Downtime, SingleNodeOutageLosesOnlyThatNode) {
  ReliabilityModel rel;
  rel.failures_per_node_year_ref = 1.0 / 24.0;  // one blade per year
  OutageModel out;
  out.repair_time = Hours(1.0);
  out.whole_cluster_outage = false;
  const DowntimeEstimate d =
      estimate_downtime(rel, out, 24, 4.0, rel.reference_temp);
  EXPECT_NEAR(d.cpu_hours_lost.value(), 4.0, 1e-9);  // paper: 4 CPU-hours
  EXPECT_DOUBLE_EQ(d.availability, 1.0);  // blades stay up
}

TEST(Downtime, AvailabilityReflectsWallClockOutage) {
  ReliabilityModel rel;
  rel.failures_per_node_year_ref = 0.25;
  OutageModel out;
  const DowntimeEstimate d =
      estimate_downtime(rel, out, 24, 4.0, rel.reference_temp);
  EXPECT_NEAR(d.availability, 1.0 - 96.0 / (4.0 * 8760.0), 1e-9);
}

TEST(Reliability, HotterRoomMeansMoreFailures) {
  ReliabilityModel m;
  EXPECT_GT(m.expected_failures(24, 4.0, Celsius(40.0)),
            m.expected_failures(24, 4.0, Celsius(20.0)));
}

TEST(Downtime, ExtremeFailureRateClampsAvailabilityAtZero) {
  // A pathological rate (e.g. a schedule generator probing the model) makes
  // expected outage exceed the mission; availability must clamp, not go
  // negative.
  ReliabilityModel rel;
  rel.failures_per_node_year_ref = 1e6;
  OutageModel out;
  out.repair_time = Hours(4.0);
  out.whole_cluster_outage = true;
  const DowntimeEstimate d =
      estimate_downtime(rel, out, 24, 4.0, rel.reference_temp);
  EXPECT_DOUBLE_EQ(d.availability, 0.0);
  EXPECT_TRUE(std::isfinite(d.cpu_hours_lost.value()));
}

TEST(Reliability, RejectsBadArguments) {
  ReliabilityModel m;
  EXPECT_THROW((void)m.expected_failures(0, 1.0, Celsius(25.0)), PreconditionError);
  EXPECT_THROW((void)m.expected_failures(1, -1.0, Celsius(25.0)),
               PreconditionError);
}

}  // namespace
}  // namespace bladed::power
