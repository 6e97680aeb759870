#include "treecode/traverse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "microkernel/karp.hpp"

namespace bladed::treecode {

TraversalStats& TraversalStats::operator+=(const TraversalStats& o) {
  pp += o.pp;
  pn += o.pn;
  pn_quad += o.pn_quad;
  mac_tests += o.mac_tests;
  visited += o.visited;
  ops += o.ops;
  return *this;
}

OpCounter interaction_ops(RsqrtImpl impl) {
  OpCounter o;
  if (impl == RsqrtImpl::kLibm) {
    // deltas 3, r2 2+1(softening), acc accumulate 3, pot accumulate 1
    o.fadd = 10;
    // squares 3, r2*r 1, Gm 1, s*d 3, pot=s*r2 1
    o.fmul = 9;
    o.fdiv = 1;   // s = Gm / (r2*r)
    o.fsqrt = 1;  // r = sqrt(r2)
    o.load = 5;   // source x,y,z,m + node/leaf bookkeeping
    o.iop = 4;
    o.branch = 1;
  } else {
    // deltas 3, r2 2+1, Karp poly 3 + NR 2, acc 3, pot 1
    o.fadd = 15;
    // squares 3, poly 2, NR 8, rescale 1, cube 2, Gm 1, s=Gm*y3 1, s*d 3,
    // pot=Gm*y 1
    o.fmul = 22;
    o.load = 8;  // + the 3-coefficient Karp table segment
    o.iop = 10;  // + exponent/mantissa manipulation
    o.branch = 1;
  }
  return o;
}

OpCounter quadrupole_ops() {
  OpCounter o;
  o.fmul = 22;  // Q*d (9), d.Qd (3), y^5/y^7 (2), term scaling (8)
  o.fadd = 12;  // Q*d (6), d.Qd (2), accumulate (4)
  o.load = 6;   // the packed tensor
  return o;
}

OpCounter mac_test_ops() {
  OpCounter o;
  o.fadd = 5;  // deltas to the node COM + d2 accumulation
  o.fmul = 4;  // squares + theta^2 * d2
  o.load = 5;  // com, half, node header
  o.iop = 2;   // compare + stack bookkeeping
  o.branch = 1;
  return o;
}

namespace {

OpCounter visit_ops() {
  OpCounter o;
  o.iop = 4;
  o.load = 2;
  o.branch = 1;
  return o;
}

/// The inner kernel: accumulate the (softened) pull of a point mass gm at
/// (sx,sy,sz) on the target at (px,py,pz). Returns false for the
/// self-interaction (exact position coincidence).
template <RsqrtImpl Impl>
inline bool point_interaction(double px, double py, double pz, double sx,
                              double sy, double sz, double gm, double eps2,
                              double& ax, double& ay, double& az,
                              double& pot) {
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
    phi = s * r2;  // gm / r
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

using micro::Double2;
/// Lane-wise result of a Double2 comparison: all ones where it holds.
using Mask2 = std::int64_t __attribute__((vector_size(16)));

/// Targets per block of the force walk: lanes 0..kLanes-1, evaluated two
/// at a time. 16 measured faster than 4 and 8 (DESIGN.md §17).
constexpr int kLanes = 16;
/// One bit per lane of a block.
using LaneMask = std::uint32_t;

inline Double2 load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Bit l set where lane l of `m` holds.
inline LaneMask bits2(Mask2 m) {
  return static_cast<LaneMask>((m[0] & 1) | (m[1] & 2));
}

/// Lanes in a mask. std::popcount is a library call on baseline x86-64
/// (no POPCNT), so count the at most kLanes bits with shifts and masks.
inline int pop(LaneMask m) {
  m = m - ((m >> 1) & 0x5555u);
  m = (m & 0x3333u) + ((m >> 2) & 0x3333u);
  m = (m + (m >> 4)) & 0x0F0Fu;
  return static_cast<int>((m + (m >> 8)) & 0x1Fu);
}

/// The targets of one block and their running sums, lane by lane. Lanes
/// past the end of a short block hold a copy of its last target, so their
/// arithmetic stays finite; no mask ever names them.
struct Block {
  alignas(16) double x[kLanes], y[kLanes], z[kLanes];
  alignas(16) double ax[kLanes], ay[kLanes], az[kLanes], pot[kLanes];
};

/// What the walk reads of a node on every visit, copied out of the 168-byte
/// Node into 80 bytes. size2 = (2 half)^2 is the scalar walk's expression.
struct WalkNode {
  double com[3];
  double size2;
  std::uint32_t first, count;
  std::uint32_t child[8];
  std::uint8_t child_count;
  bool leaf;
  bool empty;  ///< no mass or no particles: popped and skipped
};

std::vector<WalkNode> walk_nodes(const std::vector<Node>& nodes) {
  std::vector<WalkNode> out(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    WalkNode& w = out[i];
    std::copy(n.com, n.com + 3, w.com);
    const double size = 2.0 * n.half;
    w.size2 = size * size;
    w.first = n.first;
    w.count = n.count;
    std::copy(n.child, n.child + 8, w.child);
    w.child_count = n.child_count;
    w.leaf = n.leaf;
    w.empty = n.mass == 0.0 || n.count == 0;
  }
  return out;
}

/// Lanes a and b of a block in one Double2 each. b == a when only one lane
/// is left: both halves then compute the same thing, and store() writes it
/// twice.
struct Pair {
  int a, b;
  Double2 px, py, pz, ax, ay, az, pot;

  Pair(const Block& k, int la, int lb)
      : a(la),
        b(lb),
        px{k.x[la], k.x[lb]},
        py{k.y[la], k.y[lb]},
        pz{k.z[la], k.z[lb]},
        ax{k.ax[la], k.ax[lb]},
        ay{k.ay[la], k.ay[lb]},
        az{k.az[la], k.az[lb]},
        pot{k.pot[la], k.pot[lb]} {}

  /// The halves that are distinct lanes.
  [[nodiscard]] LaneMask distinct() const { return b == a ? 1u : 3u; }

  void store(Block& k) const {
    k.ax[a] = ax[0], k.ay[a] = ay[0], k.az[a] = az[0], k.pot[a] = pot[0];
    k.ax[b] = ax[1], k.ay[b] = ay[1], k.az[b] = az[1], k.pot[b] = pot[1];
  }
};

/// Calls f(Pair&) for the lanes of `lanes` two at a time, in lane order,
/// and stores each pair's sums back into the block.
template <class F>
inline void for_each_pair(Block& k, LaneMask lanes, F&& f) {
  while (lanes != 0) {
    const int a = std::countr_zero(lanes);
    lanes &= lanes - 1;
    const int b = lanes != 0 ? std::countr_zero(lanes) : a;
    lanes &= lanes - 1;
    Pair q(k, a, b);
    f(q);
    q.store(k);
  }
}

/// point_interaction for both lanes of a pair: the same expressions, lane by
/// lane. A lane coincident with the source (the self-interaction) keeps its
/// sums and is not passed to the reciprocal square root. Returns the lanes
/// that interacted.
template <RsqrtImpl Impl>
inline LaneMask point_pair(Pair& q, double sx, double sy, double sz,
                           double gm, double eps2) {
  const Double2 dx = sx - q.px;
  const Double2 dy = sy - q.py;
  const Double2 dz = sz - q.pz;
  const Double2 r2raw = dx * dx + dy * dy + dz * dz;
  const Mask2 live = r2raw != 0.0;
  const Double2 r2 = r2raw + eps2;
  Double2 s, phi;
  if constexpr (Impl == RsqrtImpl::kLibm) {
    const Double2 r = {std::sqrt(r2[0]), std::sqrt(r2[1])};
    s = gm / (r2 * r);
    phi = s * r2;
  } else {
    const Double2 y = micro::karp_rsqrt2(r2, bits2(live));
    const Double2 y3 = y * y * y;
    s = gm * y3;
    phi = gm * y;
  }
  q.ax = live ? q.ax + s * dx : q.ax;
  q.ay = live ? q.ay + s * dy : q.ay;
  q.az = live ? q.az + s * dz : q.az;
  q.pot = live ? q.pot - phi : q.pot;
  return bits2(live);
}

/// An accepted cell's monopole and optional quadrupole on both lanes of a
/// pair, in the scalar order. Acceptance means (2 half)^2 < theta^2 d2 with
/// theta > 0, so d2 > 0 on every accepting lane: no self-exclusion, and the
/// monopole's reciprocal square root is the quadrupole's too.
template <RsqrtImpl Impl>
inline void cell_pair(Pair& q, const Node& n, double G, double eps2,
                      bool quadrupole) {
  const Double2 dx = n.com[0] - q.px;
  const Double2 dy = n.com[1] - q.py;
  const Double2 dz = n.com[2] - q.pz;
  const Double2 r2 = dx * dx + dy * dy + dz * dz + eps2;
  const double gm = G * n.mass;
  Double2 s, phi, y;
  if constexpr (Impl == RsqrtImpl::kLibm) {
    const Double2 r = {std::sqrt(r2[0]), std::sqrt(r2[1])};
    s = gm / (r2 * r);
    phi = s * r2;
    y = 1.0 / r;
  } else {
    y = micro::karp_rsqrt2(r2, 3u);
    const Double2 y3 = y * y * y;
    s = gm * y3;
    phi = gm * y;
  }
  q.ax += s * dx;
  q.ay += s * dy;
  q.az += s * dz;
  q.pot -= phi;
  if (!quadrupole) return;
  // a_quad = G[-(Q d)/r^5 + 2.5 (d.Qd) d / r^7], d = com - p;
  // phi_quad = -G (d.Qd) / (2 r^5).
  const Double2 u2 = y * y;
  const Double2 y5 = u2 * u2 * y;
  const Double2 y7 = y5 * u2;
  const double* Q = n.quad;
  const Double2 qdx = Q[0] * dx + Q[1] * dy + Q[2] * dz;
  const Double2 qdy = Q[1] * dx + Q[3] * dy + Q[4] * dz;
  const Double2 qdz = Q[2] * dx + Q[4] * dy + Q[5] * dz;
  const Double2 dqd = dx * qdx + dy * qdy + dz * qdz;
  const Double2 radial = 2.5 * G * dqd * y7;
  q.ax += G * -qdx * y5 + radial * dx;
  q.ay += G * -qdy * y5 + radial * dy;
  q.az += G * -qdz * y5 + radial * dz;
  q.pot -= 0.5 * G * dqd * y5;
}

/// The lanes of `mask` for which the MAC accepts node n.
inline LaneMask mac_accepts(const Block& k, const WalkNode& n, double theta2,
                            LaneMask mask) {
  const Double2 size2 = {n.size2, n.size2};
  LaneMask accept = 0;
  for (int l = 0; l < kLanes; l += 2) {
    if (((mask >> l) & 3u) == 0) continue;
    const Double2 dx = n.com[0] - load2(k.x + l);
    const Double2 dy = n.com[1] - load2(k.y + l);
    const Double2 dz = n.com[2] - load2(k.z + l);
    const Double2 d2 = dx * dx + dy * dy + dz * dz;
    accept |= bits2(size2 < theta2 * d2) << l;
  }
  return accept & mask;
}

/// The force walk: targets [first, last) in blocks of kLanes consecutive
/// (Morton-adjacent) particles, one depth-first walk per block. A stack
/// entry carries the lanes that opened the node's parent; each popped node
/// is MAC-tested per lane, accepting lanes take the cell term, and opening
/// lanes run the leaf's sources or pass the children on, pushed in the
/// scalar order. Every lane therefore meets exactly the nodes of its own
/// per-particle walk, in the same order (DESIGN.md §17), and accumulates
/// bit for bit what that walk accumulates. Counts are per lane.
template <RsqrtImpl Impl>
TraversalStats traverse(ParticleSet& targets, const ParticleSet& src,
                        const Octree& tree, const GravityParams& params,
                        std::size_t first, std::size_t last) {
  const double eps2 = params.softening * params.softening;
  const double theta2 = params.theta * params.theta;
  const double G = params.G;
  const bool quadrupole = params.quadrupole;
  const auto& nodes = tree.nodes();
  const std::vector<WalkNode> hot = walk_nodes(nodes);
  struct Entry {
    std::uint32_t node;
    LaneMask lanes;
  };
  std::vector<Entry> stack;
  stack.reserve(128);
  std::uint64_t pp = 0, pn = 0, mac_tests = 0, visited = 0;
  Block k;

  for (std::size_t i0 = first; i0 < last; i0 += kLanes) {
    const std::size_t n = std::min<std::size_t>(kLanes, last - i0);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t i = i0 + std::min(l, n - 1);
      k.x[l] = targets.x[i];
      k.y[l] = targets.y[i];
      k.z[l] = targets.z[i];
      k.ax[l] = k.ay[l] = k.az[l] = k.pot[l] = 0.0;
    }
    stack.push_back({0, (LaneMask{1} << n) - 1});
    while (!stack.empty()) {
      const auto [ni, mask] = stack.back();
      stack.pop_back();
      const WalkNode& nd = hot[ni];
      const int nlanes = pop(mask);
      visited += nlanes;
      if (nd.empty) continue;
      mac_tests += nlanes;
      const LaneMask accept = mac_accepts(k, nd, theta2, mask);
      const LaneMask open = mask & ~accept;
      if (accept != 0) {
        pn += pop(accept);
        for_each_pair(k, accept, [&](Pair& q) {
          cell_pair<Impl>(q, nodes[ni], G, eps2, quadrupole);
        });
      }
      if (open == 0) continue;
      if (nd.leaf) {
        const std::uint32_t j1 = nd.first + nd.count;
        for_each_pair(k, open, [&](Pair& q) {
          const LaneMask lanes = q.distinct();
          pp += std::uint64_t{nd.count} * pop(lanes);
          for (std::uint32_t j = nd.first; j < j1; ++j) {
            const LaneMask live = point_pair<Impl>(
                q, src.x[j], src.y[j], src.z[j], G * src.m[j], eps2);
            if ((live & lanes) != lanes) pp -= pop(lanes & ~live);
          }
        });
      } else {
        for (std::uint8_t c = 0; c < nd.child_count; ++c)
          stack.push_back({nd.child[c], open});
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      targets.ax[i0 + l] += k.ax[l];
      targets.ay[i0 + l] += k.ay[l];
      targets.az[i0 + l] += k.az[l];
      targets.pot[i0 + l] += k.pot[l];
    }
  }

  TraversalStats stats;
  stats.pp = pp;
  stats.pn = pn;
  stats.pn_quad = quadrupole ? pn : 0;
  stats.mac_tests = mac_tests;
  stats.visited = visited;
  const RsqrtImpl impl = params.rsqrt;
  stats.ops = interaction_ops(impl) * (stats.pp + stats.pn) +
              quadrupole_ops() * stats.pn_quad +
              mac_test_ops() * stats.mac_tests + visit_ops() * stats.visited;
  // The quadrupole path recomputes the reciprocal sqrt once more per cell.
  if (quadrupole) {
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

}  // namespace

TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params, std::size_t first,
                              std::size_t last) {
  BLADED_REQUIRE(first <= last && last <= p.size());
  BLADED_REQUIRE(tree.particle_count() == p.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse<RsqrtImpl::kLibm>(p, p, tree, params, first, last)
             : traverse<RsqrtImpl::kKarp>(p, p, tree, params, first, last);
}

TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params) {
  return compute_forces(p, tree, params, 0, p.size());
}

namespace {

/// List-evaluation tile: 4 SoA streams * 8 B * 1024 = 32 KiB per tile,
/// resident while it is swept over every particle of the group.
constexpr std::size_t kListTile = 1024;

/// SoA interaction list built by the per-group walk. Point masses (leaf
/// particles, and accepted cells when the quadrupole is off) go to the x/y/
/// z/gm streams in walk order; with the quadrupole on, accepted cells go to
/// the c* streams instead, their packed tensors appended 6 doubles at a
/// time to cquad.
struct InteractionList {
  std::vector<double> x, y, z, gm;
  std::vector<double> cx, cy, cz, cgm, cquad;

  void clear() {
    x.clear();
    y.clear();
    z.clear();
    gm.clear();
    cx.clear();
    cy.clear();
    cz.clear();
    cgm.clear();
    cquad.clear();
  }
};

template <RsqrtImpl Impl>
TraversalStats traverse_grouped(ParticleSet& p, const Octree& tree,
                                const GravityParams& params) {
  TraversalStats stats;
  const double eps2 = params.softening * params.softening;
  const double theta2 = params.theta * params.theta;
  const auto& nodes = tree.nodes();

  std::vector<std::uint32_t> stack;
  InteractionList list;
  stack.reserve(128);
  list.x.reserve(4096);
  // Per-target partial sums, carried across list tiles.
  std::vector<double> sax, say, saz, spot;

  for (const Node& group : nodes) {
    if (!group.leaf || group.count == 0) continue;

    // One walk for the whole group: accept against the group's cell.
    list.clear();
    stack.push_back(0);
    while (!stack.empty()) {
      const Node& n = nodes[stack.back()];
      stack.pop_back();
      ++stats.visited;
      if (n.mass == 0.0 || n.count == 0) continue;
      const double dmin2 = BoundingBox::dist2_to_cell(
          n.com[0], n.com[1], n.com[2], group.center, group.half);
      const double size = 2.0 * n.half;
      ++stats.mac_tests;
      if (size * size < theta2 * dmin2) {
        if (params.quadrupole) {
          list.cx.push_back(n.com[0]);
          list.cy.push_back(n.com[1]);
          list.cz.push_back(n.com[2]);
          list.cgm.push_back(params.G * n.mass);
          list.cquad.insert(list.cquad.end(), n.quad, n.quad + 6);
        } else {
          // Monopole-only cells join the point-mass stream and tally as
          // pp, exactly like the historical null-quad list entries.
          list.x.push_back(n.com[0]);
          list.y.push_back(n.com[1]);
          list.z.push_back(n.com[2]);
          list.gm.push_back(params.G * n.mass);
        }
      } else if (n.leaf) {
        for (std::uint32_t j = n.first; j < n.first + n.count; ++j) {
          list.x.push_back(p.x[j]);
          list.y.push_back(p.y[j]);
          list.z.push_back(p.z[j]);
          list.gm.push_back(params.G * p.m[j]);
        }
      } else {
        for (std::uint8_t c = 0; c < n.child_count; ++c)
          stack.push_back(n.child[c]);
      }
    }

    const std::uint32_t gfirst = group.first;
    const std::size_t gcount = group.count;
    sax.assign(gcount, 0.0);
    say.assign(gcount, 0.0);
    saz.assign(gcount, 0.0);
    spot.assign(gcount, 0.0);

    // Cell entries first (quadrupole runs only). Counts match the
    // interleaved AoS evaluation exactly — pn on a non-coincident monopole,
    // pn_quad unconditionally — and results agree to rounding (only the
    // accumulation order moved).
    const std::size_t ncells = list.cx.size();
    for (std::size_t c0 = 0; c0 < ncells; c0 += kListTile) {
      const std::size_t c1 = std::min(ncells, c0 + kListTile);
      for (std::size_t k = 0; k < gcount; ++k) {
        const std::size_t i = gfirst + k;
        const double px = p.x[i], py = p.y[i], pz = p.z[i];
        double ax = sax[k], ay = say[k], az = saz[k], pot = spot[k];
        for (std::size_t c = c0; c < c1; ++c) {
          if (point_interaction<Impl>(px, py, pz, list.cx[c], list.cy[c],
                                      list.cz[c], list.cgm[c], eps2, ax, ay,
                                      az, pot)) {
            ++stats.pn;
          }
          const double* quad = &list.cquad[6 * c];
          const double dx = list.cx[c] - px;
          const double dy = list.cy[c] - py;
          const double dz = list.cz[c] - pz;
          const double r2 = dx * dx + dy * dy + dz * dz + eps2;
          double y;
          if constexpr (Impl == RsqrtImpl::kLibm) {
            y = 1.0 / std::sqrt(r2);
          } else {
            y = micro::karp_rsqrt(r2, 2);
          }
          const double u2 = y * y;
          const double y5 = u2 * u2 * y;
          const double y7 = y5 * u2;
          const double qdx = quad[0] * dx + quad[1] * dy + quad[2] * dz;
          const double qdy = quad[1] * dx + quad[3] * dy + quad[4] * dz;
          const double qdz = quad[2] * dx + quad[4] * dy + quad[5] * dz;
          const double dqd = dx * qdx + dy * qdy + dz * qdz;
          // The quadrupole tensor is unscaled (G is folded into cgm only
          // for the monopole), so apply G here.
          const double radial = 2.5 * params.G * dqd * y7;
          ax += params.G * -qdx * y5 + radial * dx;
          ay += params.G * -qdy * y5 + radial * dy;
          az += params.G * -qdz * y5 + radial * dz;
          pot -= 0.5 * params.G * dqd * y5;
          ++stats.pn_quad;
        }
        sax[k] = ax;
        say[k] = ay;
        saz[k] = az;
        spot[k] = pot;
      }
    }

    // Point-mass stream, tiled: tiles outer so each 32 KiB slab of the list
    // is swept over every group particle while cache-hot; targets inner with
    // their running sums reloaded from/stored to the scratch arrays. Each
    // target still accumulates in ascending list order (ascending tiles ×
    // ascending index within a tile), so with the quadrupole off the result
    // is bit-identical to the historical untiled stream.
    const std::size_t npts = list.x.size();
    for (std::size_t t0 = 0; t0 < npts; t0 += kListTile) {
      const std::size_t t1 = std::min(npts, t0 + kListTile);
      for (std::size_t k = 0; k < gcount; ++k) {
        const std::size_t i = gfirst + k;
        const double px = p.x[i], py = p.y[i], pz = p.z[i];
        double ax = sax[k], ay = say[k], az = saz[k], pot = spot[k];
        for (std::size_t t = t0; t < t1; ++t) {
          if (point_interaction<Impl>(px, py, pz, list.x[t], list.y[t],
                                      list.z[t], list.gm[t], eps2, ax, ay,
                                      az, pot)) {
            ++stats.pp;
          }
        }
        sax[k] = ax;
        say[k] = ay;
        saz[k] = az;
        spot[k] = pot;
      }
    }

    for (std::size_t k = 0; k < gcount; ++k) {
      const std::size_t i = gfirst + k;
      p.ax[i] += sax[k];
      p.ay[i] += say[k];
      p.az[i] += saz[k];
      p.pot[i] += spot[k];
    }
  }

  stats.ops = interaction_ops(params.rsqrt) * (stats.pp + stats.pn) +
              quadrupole_ops() * stats.pn_quad +
              mac_test_ops() * stats.mac_tests + visit_ops() * stats.visited;
  return stats;
}

}  // namespace

TraversalStats compute_forces_grouped(ParticleSet& p, const Octree& tree,
                                      const GravityParams& params) {
  BLADED_REQUIRE(tree.particle_count() == p.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse_grouped<RsqrtImpl::kLibm>(p, tree, params)
             : traverse_grouped<RsqrtImpl::kKarp>(p, tree, params);
}

TraversalStats compute_forces_on(ParticleSet& targets, const ParticleSet& src,
                                 const Octree& tree,
                                 const GravityParams& params) {
  BLADED_REQUIRE(tree.particle_count() == src.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse<RsqrtImpl::kLibm>(targets, src, tree, params, 0,
                                          targets.size())
             : traverse<RsqrtImpl::kKarp>(targets, src, tree, params, 0,
                                          targets.size());
}

}  // namespace bladed::treecode
