#pragma once

/// Barnes–Hut force evaluation over the hashed octree: a stack traversal
/// with the opening-angle multipole acceptance criterion s/d < theta,
/// softened monopole interactions, and a choice of reciprocal square root
/// (library sqrt+divide, or Karp's all-multiply scheme — the two §3.2
/// variants). One walk serves a block of Morton-adjacent targets, each with
/// its own accept/open decisions, so every target gets exactly its
/// per-particle walk's result (DESIGN.md §17). Interactions and MAC tests
/// are counted exactly, per target, and converted to operation counts for
/// the performance model.

#include "common/opcount.hpp"
#include "treecode/tree.hpp"

namespace bladed::treecode {

enum class RsqrtImpl { kLibm, kKarp };

struct GravityParams {
  double theta = 0.7;        ///< opening angle (s/d acceptance)
  double softening = 1e-3;   ///< Plummer softening length
  double G = 1.0;            ///< gravitational constant
  RsqrtImpl rsqrt = RsqrtImpl::kKarp;
  /// Apply the cells' traceless quadrupole correction on accepted cells
  /// (the Warren-Salmon production treecodes carried multipoles beyond the
  /// monopole; this cuts the force error several-fold at equal theta).
  bool quadrupole = false;
};

struct TraversalStats {
  std::uint64_t pp = 0;         ///< particle-particle interactions
  std::uint64_t pn = 0;         ///< particle-node (monopole) interactions
  std::uint64_t pn_quad = 0;    ///< cells that also applied a quadrupole
  std::uint64_t mac_tests = 0;  ///< acceptance tests evaluated
  std::uint64_t visited = 0;    ///< nodes popped from the stack
  OpCounter ops;                ///< derived operation counts

  TraversalStats& operator+=(const TraversalStats& o);
  [[nodiscard]] std::uint64_t interactions() const { return pp + pn; }
};

/// Per-interaction / per-test operation-count constants (audited against the
/// kernel source; shared with the parallel driver and the benches).
[[nodiscard]] OpCounter interaction_ops(RsqrtImpl impl);
[[nodiscard]] OpCounter mac_test_ops();
/// Extra cost of the quadrupole correction on an accepted cell.
[[nodiscard]] OpCounter quadrupole_ops();

/// Accelerations and potentials of particles [first, last) of `p` (in the
/// tree's Morton order) due to the whole tree. Pass the full range for a
/// serial evaluation. Accelerations are accumulated (call
/// p.zero_accelerations() first).
TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params,
                              std::size_t first, std::size_t last);

/// Whole-set convenience overload.
TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params = {});

/// Forces on the particles of `targets` (not necessarily in the tree) due to
/// `tree` built over a possibly different set — used by the parallel driver
/// where the local tree contains imported remote mass elements.
TraversalStats compute_forces_on(ParticleSet& targets, const ParticleSet& src,
                                 const Octree& tree,
                                 const GravityParams& params);

/// Group (dual-tree) variant of the Warren-Salmon production codes: one
/// tree walk per *leaf group* builds an interaction list accepted against
/// the whole group cell (MAC at the closest approach, so it is valid — and
/// slightly conservative — for every particle in the group), then the list
/// is evaluated over the group's particles in cache-sized SoA tiles (with
/// the quadrupole off, bit-identical to streaming the whole list per
/// particle). Amortizes MAC tests and node visits across the group at the
/// cost of a somewhat longer list.
/// Monopole-only (the quadrupole flag is honored for accepted cells).
TraversalStats compute_forces_grouped(ParticleSet& p, const Octree& tree,
                                      const GravityParams& params);

}  // namespace bladed::treecode
