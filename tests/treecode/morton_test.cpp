#include "treecode/morton.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "treecode/ic.hpp"

namespace bladed::treecode {
namespace {

TEST(Morton, InterleaveKnownValues) {
  EXPECT_EQ(morton_interleave(0, 0, 0), 0u);
  EXPECT_EQ(morton_interleave(1, 0, 0), 1u);
  EXPECT_EQ(morton_interleave(0, 1, 0), 2u);
  EXPECT_EQ(morton_interleave(0, 0, 1), 4u);
  EXPECT_EQ(morton_interleave(1, 1, 1), 7u);
  // x=0b10, y=0, z=0 -> bit 3.
  EXPECT_EQ(morton_interleave(2, 0, 0), 8u);
  EXPECT_EQ(morton_interleave(3, 3, 3), 63u);
}

TEST(Morton, InterleaveUsesAll63Bits) {
  const std::uint32_t maxc = (1u << 21) - 1;
  EXPECT_EQ(morton_interleave(maxc, maxc, maxc), (1ULL << 63) - 1);
}

TEST(Morton, KeyOrderRespectsOctants) {
  BoundingBox box;
  box.lo[0] = box.lo[1] = box.lo[2] = 0.0;
  box.extent = 1.0;
  // Lower octant keys < upper octant keys on the leading dimension (z).
  const auto low = morton_key(0.9, 0.9, 0.1, box);
  const auto high = morton_key(0.1, 0.1, 0.6, box);
  EXPECT_LT(low, high);
}

TEST(Morton, KeysClampOutOfBoxPositions) {
  BoundingBox box;
  box.extent = 1.0;
  const auto inside = morton_key(0.999999, 0.5, 0.5, box);
  const auto outside = morton_key(5.0, 0.5, 0.5, box);
  EXPECT_EQ(inside >> 60, outside >> 60);  // clamped to the same region
}

TEST(Morton, OctantExtraction) {
  // Key with x=1 at the top level only: top octant bit 0 set.
  BoundingBox box;
  box.extent = 1.0;
  const auto key = morton_key(0.75, 0.25, 0.25, box);
  EXPECT_EQ(morton_octant(key, 0) & 1, 1);
  EXPECT_THROW((void)morton_octant(key, kMortonBitsPerDim), PreconditionError);
  EXPECT_THROW((void)morton_octant(key, -1), PreconditionError);
}

TEST(BoundingBoxTest, ContainsAllParticlesAndIsCubic) {
  const ParticleSet p = plummer_sphere(500, 7);
  const BoundingBox box = BoundingBox::containing(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_TRUE(box.contains(p.x[i], p.y[i], p.z[i])) << i;
  }
  EXPECT_GT(box.extent, 0.0);
}

TEST(BoundingBoxTest, DegenerateSetGetsUnitBox) {
  ParticleSet p;
  p.add(1.0, 2.0, 3.0, 1.0);
  p.add(1.0, 2.0, 3.0, 1.0);
  const BoundingBox box = BoundingBox::containing(p);
  EXPECT_GT(box.extent, 0.5);
  EXPECT_TRUE(box.contains(1.0, 2.0, 3.0));
}

TEST(BoundingBoxTest, EmptySetRejected) {
  ParticleSet p;
  EXPECT_THROW(BoundingBox::containing(p), PreconditionError);
}

TEST(BoundingBoxTest, Dist2ToCell) {
  const double c[3] = {0.0, 0.0, 0.0};
  // Inside.
  EXPECT_DOUBLE_EQ(BoundingBox::dist2_to_cell(0.5, 0.0, 0.0, c, 1.0), 0.0);
  // One axis out by 1.
  EXPECT_DOUBLE_EQ(BoundingBox::dist2_to_cell(2.0, 0.0, 0.0, c, 1.0), 1.0);
  // Corner: out by (1,1,1).
  EXPECT_DOUBLE_EQ(BoundingBox::dist2_to_cell(2.0, 2.0, 2.0, c, 1.0), 3.0);
}

TEST(Morton, SortPermutationSortsKeys) {
  const ParticleSet p = uniform_cube(1000, 3);
  const BoundingBox box = BoundingBox::containing(p);
  const auto keys = morton_keys(p, box);
  const auto perm = sort_permutation(keys);
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(keys[perm[i - 1]], keys[perm[i]]);
  }
}

TEST(Morton, SpatiallyClosePointsShareKeyPrefixes) {
  BoundingBox box;
  box.extent = 1.0;
  const auto a = morton_key(0.500001, 0.500001, 0.500001, box);
  const auto b = morton_key(0.500002, 0.500002, 0.500002, box);
  const auto far = morton_key(0.9, 0.1, 0.2, box);
  // a and b agree in many leading octants; a and far differ at the top.
  int shared_ab = 0, shared_af = 0;
  for (int level = 0; level < kMortonBitsPerDim; ++level) {
    if (morton_octant(a, level) == morton_octant(b, level)) {
      ++shared_ab;
    } else {
      break;
    }
  }
  for (int level = 0; level < kMortonBitsPerDim; ++level) {
    if (morton_octant(a, level) == morton_octant(far, level)) {
      ++shared_af;
    } else {
      break;
    }
  }
  EXPECT_GT(shared_ab, 10);
  EXPECT_EQ(shared_af, 0);
}

}  // namespace
}  // namespace bladed::treecode
