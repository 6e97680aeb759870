#include "ops/failures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bladed::ops {
namespace {

TEST(OpsMonteCarlo, MeanFailuresMatchesPoissonRate) {
  // Traditional: 0.25/node-yr x 24 nodes x 4 yr = 24 expected failures.
  const MonteCarloResult mc = simulate(traditional_ops(), 4000, 11);
  EXPECT_NEAR(mc.failures.mean, 24.0, 0.5);
  // Poisson: variance == mean.
  EXPECT_NEAR(mc.failures.stddev * mc.failures.stddev, 24.0, 2.5);
}

TEST(OpsMonteCarlo, MeanCostNearTable5Figures) {
  // Traditional: 24 failures x 4 h x 24 CPUs x $5 = $11,520 expected.
  const MonteCarloResult trad = simulate(traditional_ops(), 4000, 13);
  EXPECT_NEAR(trad.downtime_cost.mean, 11520.0, 600.0);
  // Bladed: 4 failures x 1 h x 1 CPU x $5 = $20 expected.
  const MonteCarloResult blade = simulate(bladed_ops(), 4000, 13);
  EXPECT_NEAR(blade.downtime_cost.mean, 20.0, 3.0);
}

TEST(OpsMonteCarlo, TailRiskIsAlsoOrdersOfMagnitudeApart) {
  const MonteCarloResult trad = simulate(traditional_ops(), 2000, 17);
  const MonteCarloResult blade = simulate(bladed_ops(), 2000, 17);
  EXPECT_GT(trad.p95_cost, 100.0 * blade.p95_cost);
  EXPECT_GE(trad.p95_cost, trad.downtime_cost.mean);
}

TEST(OpsMonteCarlo, HotPluggableKeepsAvailabilityAtOne) {
  const MonteCarloResult blade = simulate(bladed_ops(), 500, 19);
  EXPECT_DOUBLE_EQ(blade.availability.min, 1.0);
  const MonteCarloResult trad = simulate(traditional_ops(), 500, 19);
  EXPECT_LT(trad.availability.mean, 1.0);
  EXPECT_GT(trad.availability.mean, 0.99);  // still "three nines"-ish
}

TEST(OpsMonteCarlo, ZeroFailureRateCostsNothing) {
  OperationsConfig cfg = traditional_ops();
  cfg.failures_per_node_year = 0.0;
  Rng rng(1);
  const Outcome o = simulate_once(cfg, rng);
  EXPECT_EQ(o.failures, 0);
  EXPECT_DOUBLE_EQ(o.downtime_cost.value(), 0.0);
  EXPECT_DOUBLE_EQ(o.availability, 1.0);
}

TEST(OpsMonteCarlo, DeterministicForFixedSeed) {
  const MonteCarloResult a = simulate(traditional_ops(), 100, 42);
  const MonteCarloResult b = simulate(traditional_ops(), 100, 42);
  EXPECT_DOUBLE_EQ(a.downtime_cost.mean, b.downtime_cost.mean);
  EXPECT_EQ(a.trials.size(), b.trials.size());
}

TEST(OpsMonteCarlo, FasterDiagnosisCutsCostProportionally) {
  OperationsConfig slow = traditional_ops();
  OperationsConfig fast = traditional_ops();
  fast.repair.diagnosis = Hours(1.0);  // 4h outage -> 2h outage
  const MonteCarloResult s = simulate(slow, 2000, 23);
  const MonteCarloResult f = simulate(fast, 2000, 23);
  EXPECT_NEAR(f.downtime_cost.mean / s.downtime_cost.mean, 0.5, 0.05);
}

TEST(OpsMonteCarlo, NearZeroMtbfStaysClampedAndFinite) {
  // Absurd failure rate (MTBF of minutes): the outage bookkeeping must stay
  // within the mission horizon and availability must clamp at zero instead
  // of going negative.
  OperationsConfig cfg = traditional_ops();
  cfg.failures_per_node_year = 5000.0;
  cfg.years = 0.01;
  Rng rng(3);
  const Outcome o = simulate_once(cfg, rng);
  const double horizon_h = cfg.years * kHoursPerYear.value();
  EXPECT_GT(o.failures, 0);
  EXPECT_LE(o.wall_clock_outage.value(), horizon_h * o.failures);
  EXPECT_GE(o.availability, 0.0);
  EXPECT_LE(o.availability, 1.0);
  EXPECT_TRUE(std::isfinite(o.downtime_cost.value()));
}

TEST(OpsMonteCarlo, RepairLongerThanMissionIsTruncatedAtTheHorizon) {
  OperationsConfig cfg = traditional_ops();
  cfg.years = 0.001;  // ~8.8 h mission
  cfg.repair.diagnosis = Hours(1000.0);
  cfg.repair.replacement = Hours(0.0);
  const double horizon_h = cfg.years * kHoursPerYear.value();
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Outcome o = simulate_once(cfg, rng);
    // No single outage (and hence the sum of disjoint-start truncations)
    // may bill time past the end of the mission.
    EXPECT_LE(o.wall_clock_outage.value(),
              horizon_h * std::max(o.failures, 1));
    EXPECT_GE(o.availability, 0.0);
  }
}

TEST(OpsMonteCarlo, HotAndNonHotShareTheSameArrivalStream) {
  // The failure arrivals depend only on (seed, rate), never on the repair
  // policy, so the two regimes must see identical failure counts per trial
  // and differ only in what each failure costs.
  OperationsConfig hot = traditional_ops();
  hot.repair.hot_pluggable = true;
  OperationsConfig cold = traditional_ops();
  cold.repair.hot_pluggable = false;
  const MonteCarloResult h = simulate(hot, 200, 77);
  const MonteCarloResult c = simulate(cold, 200, 77);
  ASSERT_EQ(h.trials.size(), c.trials.size());
  for (std::size_t i = 0; i < h.trials.size(); ++i)
    EXPECT_EQ(h.trials[i].failures, c.trials[i].failures);
  // Whole-cluster outages cost `nodes` times the hot-pluggable ones.
  EXPECT_NEAR(c.downtime_cost.mean / h.downtime_cost.mean,
              static_cast<double>(cold.nodes), 1e-9);
}

TEST(OpsMonteCarlo, PoissonArrivalsAreDeterministicPerTrial) {
  const MonteCarloResult a = simulate(traditional_ops(), 50, 2002);
  const MonteCarloResult b = simulate(traditional_ops(), 50, 2002);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].failures, b.trials[i].failures);
    EXPECT_DOUBLE_EQ(a.trials[i].wall_clock_outage.value(),
                     b.trials[i].wall_clock_outage.value());
  }
}

TEST(OpsMonteCarlo, RejectsBadArguments) {
  OperationsConfig cfg = traditional_ops();
  cfg.nodes = 0;
  Rng rng(1);
  EXPECT_THROW((void)simulate_once(cfg, rng), PreconditionError);
  EXPECT_THROW(simulate(traditional_ops(), 0, 1), PreconditionError);
}

}  // namespace
}  // namespace bladed::ops
