#include "treecode/tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bladed::treecode {

namespace {

struct Builder {
  const ParticleSet& p;
  const std::vector<std::uint64_t>& keys;
  Octree::Params params;
  std::vector<Node> nodes;
  std::unordered_map<std::uint64_t, std::uint32_t> hash;
  int depth = 0;
  std::size_t leaves = 0;
  OpCounter ops;

  /// Create the node for [first,last) at `level`; returns its index.
  /// Nodes are appended in depth-first pre-order: each child's whole
  /// subtree is built before its next sibling, so siblings are not adjacent
  /// (the parent records their indices in child[]) but every subtree is one
  /// contiguous index range.
  std::uint32_t build_node(std::uint32_t first, std::uint32_t last, int level,
                           std::uint64_t path_key, const double center[3],
                           double half) {
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace_back();
    {
      Node& n = nodes.back();
      n.center[0] = center[0];
      n.center[1] = center[1];
      n.center[2] = center[2];
      n.half = half;
      n.first = first;
      n.count = last - first;
      n.level = static_cast<std::uint8_t>(level);
      n.path_key = path_key;
    }
    hash.emplace(path_key, idx);
    depth = std::max(depth, level);

    const std::uint32_t count = last - first;
    // Moments: COM and quadrupole over the range (done here once; children
    // recompute over their subranges — O(N log N) total, as in the
    // reference library).
    {
      double m = 0.0, cx = 0.0, cy = 0.0, cz = 0.0;
      double sxx = 0.0, sxy = 0.0, sxz = 0.0, syy = 0.0, syz = 0.0,
             szz = 0.0;  // second moments about the origin
      for (std::uint32_t i = first; i < last; ++i) {
        const double mi = p.m[i];
        m += mi;
        cx += mi * p.x[i];
        cy += mi * p.y[i];
        cz += mi * p.z[i];
        sxx += mi * p.x[i] * p.x[i];
        sxy += mi * p.x[i] * p.y[i];
        sxz += mi * p.x[i] * p.z[i];
        syy += mi * p.y[i] * p.y[i];
        syz += mi * p.y[i] * p.z[i];
        szz += mi * p.z[i] * p.z[i];
      }
      ops.fadd += 10ULL * count;
      ops.fmul += 15ULL * count;
      ops.load += 4ULL * count;
      Node& n = nodes[idx];
      n.mass = m;
      if (m > 0.0) {
        n.com[0] = cx / m;
        n.com[1] = cy / m;
        n.com[2] = cz / m;
        ops.fdiv += 3;
        // Shift second moments to the COM (parallel-axis), then form the
        // traceless tensor Q_ij = 3 S'_ij - tr(S') delta_ij.
        const double pxx = sxx - m * n.com[0] * n.com[0];
        const double pxy = sxy - m * n.com[0] * n.com[1];
        const double pxz = sxz - m * n.com[0] * n.com[2];
        const double pyy = syy - m * n.com[1] * n.com[1];
        const double pyz = syz - m * n.com[1] * n.com[2];
        const double pzz = szz - m * n.com[2] * n.com[2];
        const double tr = pxx + pyy + pzz;
        n.quad[0] = 3.0 * pxx - tr;
        n.quad[1] = 3.0 * pxy;
        n.quad[2] = 3.0 * pxz;
        n.quad[3] = 3.0 * pyy - tr;
        n.quad[4] = 3.0 * pyz;
        n.quad[5] = 3.0 * pzz - tr;
        ops.fadd += 11;
        ops.fmul += 18;
      } else {
        n.com[0] = center[0];
        n.com[1] = center[1];
        n.com[2] = center[2];
      }
    }

    if (count <= static_cast<std::uint32_t>(params.leaf_capacity) ||
        level >= params.max_depth) {
      ++leaves;
      return idx;  // leaf (n.leaf defaults true)
    }

    // Split [first,last) into octant subranges via upper_bound on the key
    // prefix — the range is sorted, so each child is a contiguous run.
    std::uint32_t starts[9];
    starts[0] = first;
    const int shift = 3 * (kMortonBitsPerDim - 1 - level);
    for (int oct = 0; oct < 8; ++oct) {
      // First index whose octant at this level exceeds `oct`.
      const auto begin = keys.begin() + starts[oct];
      const auto end = keys.begin() + last;
      const auto it = std::upper_bound(
          begin, end, static_cast<std::uint64_t>(oct),
          [&](std::uint64_t value, std::uint64_t key) {
            return value < ((key >> shift) & 7ULL);
          });
      starts[oct + 1] = static_cast<std::uint32_t>(it - keys.begin());
      ops.iop += static_cast<std::uint64_t>(
          std::log2(std::max<std::uint32_t>(2, count)));
    }

    nodes[idx].leaf = false;
    const double h2 = half * 0.5;
    std::uint32_t children[8];
    std::uint8_t built = 0;
    for (int oct = 0; oct < 8; ++oct) {
      const std::uint32_t a = starts[oct], b = starts[oct + 1];
      if (a == b) continue;
      double ccenter[3];
      ccenter[0] = center[0] + ((oct & 1) ? h2 : -h2);
      ccenter[1] = center[1] + ((oct & 2) ? h2 : -h2);
      ccenter[2] = center[2] + ((oct & 4) ? h2 : -h2);
      children[built++] =
          build_node(a, b, level + 1, (path_key << 3) | oct, ccenter, h2);
    }
    Node& n = nodes[idx];  // re-resolve: recursion may have reallocated
    n.child_count = built;
    for (std::uint8_t c = 0; c < built; ++c) n.child[c] = children[c];
    return idx;
  }
};

}  // namespace

Octree Octree::build(ParticleSet& p, Params params) {
  BLADED_REQUIRE_MSG(p.size() > 0, "cannot build a tree over zero particles");
  const BoundingBox box = BoundingBox::containing(p);
  const std::vector<std::uint64_t> keys = morton_keys(p, box);
  const std::vector<std::size_t> perm = sort_permutation(keys);
  p.apply_permutation(perm);
  // The permuted particles' keys are the keys in sorted order.
  std::vector<std::uint64_t> sorted(keys.size());
  for (std::size_t i = 0; i < perm.size(); ++i) sorted[i] = keys[perm[i]];
  Octree t = from_keys(p, box, sorted, params);
  // Account for the key generation + sort the caller just paid for.
  const auto n = static_cast<std::uint64_t>(p.size());
  const auto logn = static_cast<std::uint64_t>(
      std::max(1.0, std::log2(static_cast<double>(n))));
  t.build_ops_.fmul += 3 * n;  // quantization scale
  t.build_ops_.fadd += 3 * n;
  t.build_ops_.iop += 30 * n + 2 * n * logn;  // interleave + sort compares
  t.build_ops_.load += n * logn;
  t.build_ops_.store += 11 * n;  // permutation writes
  return t;
}

Octree Octree::build_sorted(const ParticleSet& p, const BoundingBox& box,
                            Params params) {
  BLADED_REQUIRE(p.size() > 0);
  const std::vector<std::uint64_t> keys = morton_keys(p, box);
  BLADED_REQUIRE_MSG(std::is_sorted(keys.begin(), keys.end()),
                     "build_sorted requires Morton-ordered particles");
  return from_keys(p, box, keys, params);
}

Octree Octree::from_keys(const ParticleSet& p, const BoundingBox& box,
                         const std::vector<std::uint64_t>& keys,
                         Params params) {
  BLADED_REQUIRE(params.leaf_capacity >= 1);
  BLADED_REQUIRE(params.max_depth >= 1 &&
                 params.max_depth <= kMortonBitsPerDim);

  Builder b{p, keys, params, {}, {}, 0, 0, {}};
  // Measured trees (Plummer and colliding-pair ICs, local and LET source
  // sets) hold 2.2-4.7 nodes per n/leaf_capacity, up to 6 on the smallest,
  // which the constant absorbs: 5x keeps the node vector and the path-key
  // hash from reallocating mid-build.
  const std::size_t expected_nodes =
      5 * p.size() / static_cast<std::size_t>(params.leaf_capacity) + 64;
  b.nodes.reserve(expected_nodes);
  b.hash.reserve(expected_nodes);
  double center[3];
  for (int d = 0; d < 3; ++d) center[d] = box.lo[d] + 0.5 * box.extent;
  b.build_node(0, static_cast<std::uint32_t>(p.size()), 0, 1, center,
               0.5 * box.extent);

  Octree t;
  t.nodes_ = std::move(b.nodes);
  t.hash_ = std::move(b.hash);
  t.box_ = box;
  t.nparticles_ = p.size();
  t.depth_ = b.depth;
  t.leaves_ = b.leaves;
  t.build_ops_ = b.ops;
  return t;
}

const Node* Octree::find(std::uint64_t path_key) const {
  const auto it = hash_.find(path_key);
  return it == hash_.end() ? nullptr : &nodes_[it->second];
}

}  // namespace bladed::treecode
