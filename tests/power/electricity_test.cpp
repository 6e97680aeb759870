#include "power/electricity.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace bladed::power {
namespace {

TEST(Electricity, PaperP4ClusterCost) {
  // §4.1: 2.04 kW over four years at $0.10/kWh is $7,148.
  const Dollars c = electricity_cost(Watts(2040.0), 4.0, UtilityRate{});
  EXPECT_NEAR(c.value(), 7148.0, 2.0);
}

TEST(Electricity, PaperBladedClusterCost) {
  // §4.1: the Bladed Beowulf's total power cost is $2,102 over four years,
  // i.e. 0.6 kW continuously.
  const Dollars c = electricity_cost(Watts(600.0), 4.0, UtilityRate{});
  EXPECT_NEAR(c.value(), 2102.0, 2.0);
}

TEST(Electricity, LinearInPowerYearsAndRate) {
  UtilityRate r{0.10};
  const double base = electricity_cost(Watts(100.0), 1.0, r).value();
  EXPECT_NEAR(electricity_cost(Watts(200.0), 1.0, r).value(), 2 * base, 1e-9);
  EXPECT_NEAR(electricity_cost(Watts(100.0), 3.0, r).value(), 3 * base, 1e-9);
  EXPECT_NEAR(electricity_cost(Watts(100.0), 1.0, UtilityRate{0.20}).value(),
              2 * base, 1e-9);
}

TEST(Electricity, ZeroYearsCostsNothing) {
  EXPECT_DOUBLE_EQ(electricity_cost(Watts(1e6), 0.0, UtilityRate{}).value(),
                   0.0);
}

TEST(Electricity, RejectsNegativeInputs) {
  EXPECT_THROW((void)electricity_cost(Watts(1.0), -1.0, UtilityRate{}),
               PreconditionError);
  EXPECT_THROW((void)electricity_cost(Watts(1.0), 1.0, UtilityRate{-0.1}),
               PreconditionError);
}

}  // namespace
}  // namespace bladed::power
