#include "power/node_power.hpp"

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "common/error.hpp"

namespace bladed::power {
namespace {

TEST(NodePower, TotalSumsComponents) {
  NodeComponents n;
  n.cpu = Watts(6.0);
  n.memory = Watts(3.0);
  n.disk = Watts(8.0);
  n.nic = Watts(2.0);
  n.board = Watts(4.0);
  EXPECT_DOUBLE_EQ(n.total().value(), 23.0);
}

TEST(NodePower, StandardNodeUsesCpuLoadPower) {
  const NodeComponents n = standard_node(arch::pentium4_1300());
  EXPECT_DOUBLE_EQ(n.cpu.value(), 75.0);
  // §4.1: a complete P4 node generates about 85 watts under load.
  EXPECT_NEAR(n.total().value(), 85.0, 10.0);
}

TEST(NodePower, BladeNodeIsFarBelowTraditional) {
  const NodeComponents blade = standard_node(arch::tm5600_633());
  const NodeComponents p4 = standard_node(arch::pentium4_1300());
  EXPECT_LT(blade.total() * 3.0, p4.total());
}

TEST(ClusterPower, ActiveCoolingAddsHalfWattPerWatt) {
  NodeComponents n;
  n.cpu = Watts(50.0);
  n.memory = Watts(0.0);
  n.disk = Watts(0.0);
  n.nic = Watts(0.0);
  n.board = Watts(0.0);
  const ClusterPower p =
      cluster_power(n, 10, Watts(100.0), Cooling::kActive);
  EXPECT_DOUBLE_EQ(p.compute.value(), 500.0);
  EXPECT_DOUBLE_EQ(p.network.value(), 100.0);
  EXPECT_DOUBLE_EQ(p.cooling.value(), 300.0);
  EXPECT_DOUBLE_EQ(p.total().value(), 900.0);
}

TEST(ClusterPower, PassiveCoolingAddsNothing) {
  NodeComponents n;
  n.cpu = Watts(25.0);
  n.memory = Watts(0.0);
  n.disk = Watts(0.0);
  n.nic = Watts(0.0);
  n.board = Watts(0.0);
  const ClusterPower p = cluster_power(n, 24, Watts(0.0), Cooling::kNone);
  EXPECT_DOUBLE_EQ(p.cooling.value(), 0.0);
  EXPECT_DOUBLE_EQ(p.total().value(), 600.0);
}

TEST(ClusterPower, RejectsNonPositiveNodeCount) {
  EXPECT_THROW((void)cluster_power(NodeComponents{}, 0, Watts(0.0), Cooling::kNone),
               PreconditionError);
}

}  // namespace
}  // namespace bladed::power
