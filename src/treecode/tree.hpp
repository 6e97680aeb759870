#pragma once

/// Hashed oct-tree over Morton-sorted particles (Warren & Salmon SC'93).
/// The tree is built by recursively splitting the key-sorted particle range
/// on key-prefix octants; nodes live in a flat vector in depth-first
/// pre-order (every subtree is one contiguous index range; siblings are
/// reached through Node::child, not by adjacency) and are additionally
/// indexed by their Warren–Salmon path key in a hash map, which is what
/// makes locating an arbitrary cell O(1) — the property the "hashed"
/// oct-tree is named for.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/opcount.hpp"
#include "treecode/morton.hpp"
#include "treecode/particle.hpp"

namespace bladed::treecode {

struct Node {
  // Geometry.
  double center[3] = {0, 0, 0};
  double half = 0.0;  ///< half of the cell side length
  // Monopole moment.
  double com[3] = {0, 0, 0};
  double mass = 0.0;
  // Traceless quadrupole about the COM: Q_ij = sum m (3 y_i y_j - y^2 d_ij),
  // packed as (xx, xy, xz, yy, yz, zz).
  double quad[6] = {0, 0, 0, 0, 0, 0};
  // Particle range in SFC order.
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  // Indices of the child nodes: child[0..child_count-1] are valid.
  std::uint32_t child[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::uint8_t child_count = 0;
  std::uint8_t level = 0;
  bool leaf = true;
  /// Warren–Salmon path key: 1 for the root, (parent << 3) | octant below.
  std::uint64_t path_key = 1;
};

/// Tree construction parameters.
struct TreeParams {
  int leaf_capacity = 16;
  int max_depth = kMortonBitsPerDim;
};

class Octree {
 public:
  using Params = TreeParams;

  /// Build over `p`. The particle set is permuted into Morton order in
  /// place; node particle ranges refer to that order.
  static Octree build(ParticleSet& p, Params params = TreeParams{});

  /// Build assuming `p` is already Morton-ordered within `box` (used by the
  /// parallel driver after the decomposition sort).
  static Octree build_sorted(const ParticleSet& p, const BoundingBox& box,
                             Params params = TreeParams{});

  [[nodiscard]] const Node& root() const { return nodes_[0]; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const BoundingBox& box() const { return box_; }
  [[nodiscard]] std::size_t particle_count() const { return nparticles_; }

  /// Hashed lookup by Warren–Salmon path key; nullptr if absent.
  [[nodiscard]] const Node* find(std::uint64_t path_key) const;

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaves_; }

  /// Operation accounting for the build (key generation, sort, recursion,
  /// moment summation), for the performance model.
  [[nodiscard]] const OpCounter& build_ops() const { return build_ops_; }

 private:
  /// The build over `p`, Morton-ordered within `box`, whose sorted keys are
  /// `keys`.
  static Octree from_keys(const ParticleSet& p, const BoundingBox& box,
                          const std::vector<std::uint64_t>& keys,
                          Params params);

  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, std::uint32_t> hash_;
  BoundingBox box_;
  std::size_t nparticles_ = 0;
  int depth_ = 0;
  std::size_t leaves_ = 0;
  OpCounter build_ops_;
};

}  // namespace bladed::treecode
