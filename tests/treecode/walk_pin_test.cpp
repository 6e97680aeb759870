// The lane-group force walk against the per-particle walk it replaced: every
// acceleration, potential and TraversalStats field (ops included) must match
// bit for bit. The oracle below is that per-particle walk, kept verbatim.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "microkernel/karp.hpp"
#include "treecode/ic.hpp"
#include "treecode/traverse.hpp"

namespace bladed::treecode {

// gtest's name for a sweep parameter; ctest test names include it.
void PrintTo(RsqrtImpl impl, std::ostream* os) {
  *os << (impl == RsqrtImpl::kKarp ? "karp" : "libm");
}

namespace {

template <RsqrtImpl Impl>
bool oracle_point(double px, double py, double pz, double sx, double sy,
                  double sz, double gm, double eps2, double& ax, double& ay,
                  double& az, double& pot) {
  const double dx = sx - px;
  const double dy = sy - py;
  const double dz = sz - pz;
  const double r2raw = dx * dx + dy * dy + dz * dz;
  if (r2raw == 0.0) return false;
  const double r2 = r2raw + eps2;
  double s, phi;
  if constexpr (Impl == RsqrtImpl::kLibm) {
    const double r = std::sqrt(r2);
    s = gm / (r2 * r);
    phi = s * r2;
  } else {
    const double y = micro::karp_rsqrt(r2, 2);
    const double y3 = y * y * y;
    s = gm * y3;
    phi = gm * y;
  }
  ax += s * dx;
  ay += s * dy;
  az += s * dz;
  pot -= phi;
  return true;
}

/// The per-particle stack walk: one depth-first walk per target.
template <RsqrtImpl Impl>
TraversalStats oracle_walk(ParticleSet& targets, const ParticleSet& src,
                           const Octree& tree, const GravityParams& params,
                           std::size_t first, std::size_t last) {
  TraversalStats stats;
  const double eps2 = params.softening * params.softening;
  const double theta2 = params.theta * params.theta;
  const auto& nodes = tree.nodes();
  std::vector<std::uint32_t> stack;
  for (std::size_t i = first; i < last; ++i) {
    const double px = targets.x[i], py = targets.y[i], pz = targets.z[i];
    double ax = 0.0, ay = 0.0, az = 0.0, pot = 0.0;
    stack.push_back(0);
    while (!stack.empty()) {
      const Node& n = nodes[stack.back()];
      stack.pop_back();
      ++stats.visited;
      if (n.mass == 0.0 || n.count == 0) continue;
      const double dx = n.com[0] - px;
      const double dy = n.com[1] - py;
      const double dz = n.com[2] - pz;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double size = 2.0 * n.half;
      ++stats.mac_tests;
      if (size * size < theta2 * d2) {
        oracle_point<Impl>(px, py, pz, n.com[0], n.com[1], n.com[2],
                           params.G * n.mass, eps2, ax, ay, az, pot);
        if (params.quadrupole) {
          const double r2 = d2 + eps2;
          double y;
          if constexpr (Impl == RsqrtImpl::kLibm) {
            y = 1.0 / std::sqrt(r2);
          } else {
            y = micro::karp_rsqrt(r2, 2);
          }
          const double u2 = y * y;
          const double y5 = u2 * u2 * y;
          const double y7 = y5 * u2;
          const double qdx = n.quad[0] * dx + n.quad[1] * dy + n.quad[2] * dz;
          const double qdy = n.quad[1] * dx + n.quad[3] * dy + n.quad[4] * dz;
          const double qdz = n.quad[2] * dx + n.quad[4] * dy + n.quad[5] * dz;
          const double dqd = dx * qdx + dy * qdy + dz * qdz;
          const double radial = 2.5 * params.G * dqd * y7;
          ax += params.G * -qdx * y5 + radial * dx;
          ay += params.G * -qdy * y5 + radial * dy;
          az += params.G * -qdz * y5 + radial * dz;
          pot -= 0.5 * params.G * dqd * y5;
          ++stats.pn_quad;
        }
        ++stats.pn;
      } else if (n.leaf) {
        for (std::uint32_t j = n.first; j < n.first + n.count; ++j) {
          if (oracle_point<Impl>(px, py, pz, src.x[j], src.y[j], src.z[j],
                                 params.G * src.m[j], eps2, ax, ay, az,
                                 pot)) {
            ++stats.pp;
          }
        }
      } else {
        for (std::uint8_t c = 0; c < n.child_count; ++c)
          stack.push_back(n.child[c]);
      }
    }
    targets.ax[i] += ax;
    targets.ay[i] += ay;
    targets.az[i] += az;
    targets.pot[i] += pot;
  }

  const RsqrtImpl impl = params.rsqrt;
  OpCounter visit;
  visit.iop = 4;
  visit.load = 2;
  visit.branch = 1;
  stats.ops = interaction_ops(impl) * (stats.pp + stats.pn) +
              quadrupole_ops() * stats.pn_quad +
              mac_test_ops() * stats.mac_tests + visit * stats.visited;
  if (params.quadrupole) {
    OpCounter rsqrt_extra;
    if (impl == RsqrtImpl::kLibm) {
      rsqrt_extra.fsqrt = 1;
      rsqrt_extra.fdiv = 1;
    } else {
      rsqrt_extra.fmul = 11;
      rsqrt_extra.fadd = 5;
      rsqrt_extra.load = 3;
      rsqrt_extra.iop = 8;
    }
    stats.ops += rsqrt_extra * stats.pn_quad;
  }
  return stats;
}

TraversalStats oracle(ParticleSet& targets, const ParticleSet& src,
                      const Octree& tree, const GravityParams& params,
                      std::size_t first, std::size_t last) {
  return params.rsqrt == RsqrtImpl::kLibm
             ? oracle_walk<RsqrtImpl::kLibm>(targets, src, tree, params,
                                             first, last)
             : oracle_walk<RsqrtImpl::kKarp>(targets, src, tree, params,
                                             first, last);
}

void expect_same_stats(const TraversalStats& got, const TraversalStats& want) {
  EXPECT_EQ(got.pp, want.pp);
  EXPECT_EQ(got.pn, want.pn);
  EXPECT_EQ(got.pn_quad, want.pn_quad);
  EXPECT_EQ(got.mac_tests, want.mac_tests);
  EXPECT_EQ(got.visited, want.visited);
  EXPECT_TRUE(got.ops == want.ops);
}

/// Bitwise equality of every force output.
void expect_same_forces(const ParticleSet& got, const ParticleSet& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got.ax[i]) != bits(want.ax[i]) ||
        bits(got.ay[i]) != bits(want.ay[i]) ||
        bits(got.az[i]) != bits(want.az[i]) ||
        bits(got.pot[i]) != bits(want.pot[i])) {
      ADD_FAILURE() << "particle " << i << " differs";
      if (++differing == 5) return;
    }
  }
}

using Case = std::tuple<RsqrtImpl, bool, double, int>;

class WalkPin : public ::testing::TestWithParam<Case> {};

TEST_P(WalkPin, WholeSetMatchesPerParticleWalk) {
  const auto [impl, quadrupole, theta, leaf_capacity] = GetParam();
  ParticleSet p = plummer_sphere(1000, 71);  // 1000 = 62 blocks of 16 + 8
  TreeParams tp;
  tp.leaf_capacity = leaf_capacity;
  const Octree tree = Octree::build(p, tp);
  GravityParams g;
  g.rsqrt = impl;
  g.quadrupole = quadrupole;
  g.theta = theta;
  ParticleSet got = p, want = p;
  got.zero_accelerations();
  want.zero_accelerations();
  const TraversalStats sg = compute_forces(got, tree, g);
  const TraversalStats sw = oracle(want, want, tree, g, 0, want.size());
  expect_same_stats(sg, sw);
  expect_same_forces(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkPin,
    ::testing::Combine(::testing::Values(RsqrtImpl::kKarp, RsqrtImpl::kLibm),
                       ::testing::Bool(), ::testing::Values(0.3, 0.7, 1.0),
                       ::testing::Values(1, 16)));

TEST(WalkPinRanges, PartialBlocksMatchPerParticleWalk) {
  ParticleSet p = plummer_sphere(600, 73);
  const Octree tree = Octree::build(p);
  for (const RsqrtImpl impl : {RsqrtImpl::kKarp, RsqrtImpl::kLibm}) {
    GravityParams g;
    g.rsqrt = impl;
    for (const auto& [first, last] : std::vector<std::pair<int, int>>{
             {0, 0}, {5, 6}, {7, 40}, {0, 17}, {31, 47}, {583, 600}}) {
      ParticleSet got = p, want = p;
      got.zero_accelerations();
      want.zero_accelerations();
      const TraversalStats sg = compute_forces(got, tree, g, first, last);
      const TraversalStats sw = oracle(want, want, tree, g, first, last);
      SCOPED_TRACE(testing::Message() << "[" << first << ", " << last << ")");
      expect_same_stats(sg, sw);
      expect_same_forces(got, want);
    }
  }
}

TEST(WalkPinRanges, ChunkingDoesNotChangeAnything) {
  ParticleSet p = plummer_sphere(500, 79);
  const Octree tree = Octree::build(p);
  GravityParams g;
  g.quadrupole = true;
  ParticleSet want = p;
  want.zero_accelerations();
  const TraversalStats sw = oracle(want, want, tree, g, 0, want.size());
  for (const std::size_t chunk : {1, 7, 16, 33, 100, 499}) {
    ParticleSet got = p;
    got.zero_accelerations();
    TraversalStats sum;
    for (std::size_t first = 0; first < got.size(); first += chunk) {
      sum += compute_forces(got, tree, g, first,
                            std::min(got.size(), first + chunk));
    }
    SCOPED_TRACE(testing::Message() << "chunk " << chunk);
    expect_same_stats(sum, sw);
    expect_same_forces(got, want);
  }
}

TEST(WalkPinTargets, TargetsOutsideTheTreeMatchPerParticleWalk) {
  ParticleSet src = plummer_sphere(800, 83);
  TreeParams tp;
  tp.leaf_capacity = 8;
  const Octree tree = Octree::build(src, tp);
  // 37 probes in a cube around the sphere: none is a source, and their
  // order is not the tree's.
  const ParticleSet probes = uniform_cube(37, 89, 1.0, 3.0);
  for (const RsqrtImpl impl : {RsqrtImpl::kKarp, RsqrtImpl::kLibm}) {
    for (const bool quadrupole : {false, true}) {
      GravityParams g;
      g.rsqrt = impl;
      g.quadrupole = quadrupole;
      ParticleSet got = probes, want = probes;
      got.zero_accelerations();
      want.zero_accelerations();
      const TraversalStats sg = compute_forces_on(got, src, tree, g);
      const TraversalStats sw = oracle(want, src, tree, g, 0, want.size());
      expect_same_stats(sg, sw);
      expect_same_forces(got, want);
    }
  }
}

TEST(WalkPinSelfExclusion, UnsoftenedCoincidentParticles) {
  // Softening 0 with stacked particles: every coincident pair takes the
  // self-exclusion path, which must neither interact nor reach the
  // reciprocal square root (karp_rsqrt(0) throws).
  ParticleSet p = plummer_sphere(300, 97);
  for (std::size_t i = 0; i < 60; ++i) {
    p.add(p.x[3 * i], p.y[3 * i], p.z[3 * i], p.m[3 * i]);
  }
  TreeParams tp;
  tp.leaf_capacity = 4;
  const Octree tree = Octree::build(p, tp);
  for (const RsqrtImpl impl : {RsqrtImpl::kKarp, RsqrtImpl::kLibm}) {
    for (const bool quadrupole : {false, true}) {
      GravityParams g;
      g.rsqrt = impl;
      g.quadrupole = quadrupole;
      g.softening = 0.0;
      ParticleSet got = p, want = p;
      got.zero_accelerations();
      want.zero_accelerations();
      const TraversalStats sg = compute_forces(got, tree, g);
      const TraversalStats sw = oracle(want, want, tree, g, 0, want.size());
      expect_same_stats(sg, sw);
      expect_same_forces(got, want);
    }
  }
}

}  // namespace
}  // namespace bladed::treecode
