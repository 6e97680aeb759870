#include "treecode/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "simnet/comm.hpp"
#include "treecode/direct.hpp"
#include "treecode/ic.hpp"
#include "treecode/parallel_internal.hpp"
#include "treecode/perf.hpp"

namespace bladed::treecode {

std::vector<MassElement> collect_let(const Octree& tree,
                                     const ParticleSet& src,
                                     const BoundingBox& target_box,
                                     double theta) {
  BLADED_REQUIRE(theta > 0.0);
  std::vector<MassElement> out;
  const double theta2 = theta * theta;
  double bcenter[3];
  const double bhalf = 0.5 * target_box.extent;
  for (int d = 0; d < 3; ++d) bcenter[d] = target_box.lo[d] + bhalf;

  std::vector<std::uint32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& n = tree.nodes()[stack.back()];
    stack.pop_back();
    if (n.count == 0 || n.mass == 0.0) continue;
    // Closest approach of any observer in the target box to this cell's COM:
    // if the MAC holds there, it holds for every observer in the box.
    const double dmin2 = BoundingBox::dist2_to_cell(n.com[0], n.com[1],
                                                    n.com[2], bcenter, bhalf);
    const double size = 2.0 * n.half;
    if (size * size < theta2 * dmin2) {
      out.push_back({n.com[0], n.com[1], n.com[2], n.mass});
    } else if (n.leaf) {
      for (std::uint32_t j = n.first; j < n.first + n.count; ++j) {
        out.push_back({src.x[j], src.y[j], src.z[j], src.m[j]});
      }
    } else {
      for (std::uint8_t c = 0; c < n.child_count; ++c)
        stack.push_back(n.child[c]);
    }
  }
  return out;
}

namespace {

ParticleSet make_ic(const ParallelConfig& cfg) {
  switch (cfg.ic_kind) {
    case 0:
      return plummer_sphere(cfg.particles, cfg.seed);
    case 1:
      return uniform_cube(cfg.particles, cfg.seed);
    case 2:
      return colliding_pair(cfg.particles, cfg.seed);
    default:
      throw PreconditionError("unknown ic_kind");
  }
}

using detail::RankWork;

/// One force evaluation: box allgather, local tree, LET alltoall, combined
/// tree, traversal. Charges modelled compute time to `comm` as it goes.
void evaluate_forces(simnet::Comm& comm, const ParallelConfig& cfg,
                     RankWork& w) {
  const int nranks = comm.size();

  // 1. Exchange bounding boxes (4 doubles each).
  const BoundingBox mybox = BoundingBox::containing(w.mine);
  const std::vector<std::vector<double>> boxes = comm.allgather(
      std::vector<double>{mybox.lo[0], mybox.lo[1], mybox.lo[2],
                          mybox.extent});

  // 2. Local tree over owned particles.
  Octree local = Octree::build(w.mine);
  w.build_ops += local.build_ops();
  comm.compute(arch::estimate_seconds(*cfg.cpu,
                                      build_profile(local.build_ops())));

  // 3. LET exchange: ship each peer exactly the mass elements its box needs.
  std::vector<std::vector<MassElement>> exports(nranks);
  OpCounter let_ops;
  for (int peer = 0; peer < nranks; ++peer) {
    if (peer == comm.rank()) continue;
    BoundingBox pb;
    pb.lo[0] = boxes[peer][0];
    pb.lo[1] = boxes[peer][1];
    pb.lo[2] = boxes[peer][2];
    pb.extent = boxes[peer][3];
    exports[peer] = collect_let(local, w.mine, pb, cfg.gravity.theta);
    // Selection cost: roughly one MAC test per node inspected; the export
    // list length bounds the inspected set within a small factor.
    let_ops += mac_test_ops() *
               static_cast<std::uint64_t>(2 * exports[peer].size() + 16);
  }
  comm.compute(arch::estimate_seconds(*cfg.cpu, force_profile(let_ops)));
  w.force_ops += let_ops;

  std::vector<std::vector<MassElement>> imports;
  if (nranks > 1) {
    imports = comm.alltoall(exports);
  }

  // 4. Combined locally-essential source set: owned + imported elements.
  ParticleSet src = w.mine;
  for (int peer = 0; peer < nranks; ++peer) {
    if (imports.empty() || peer == comm.rank()) continue;
    for (const MassElement& e : imports[peer]) src.add(e.x, e.y, e.z, e.m);
  }
  Octree let_tree = Octree::build(src);
  w.build_ops += let_tree.build_ops();
  comm.compute(arch::estimate_seconds(*cfg.cpu,
                                      build_profile(let_tree.build_ops())));

  // 5. Forces on owned particles from the locally essential tree.
  w.mine.zero_accelerations();
  const TraversalStats st =
      compute_forces_on(w.mine, src, let_tree, cfg.gravity);
  w.traversal += st;
  w.force_ops += st.ops;
  comm.compute(arch::estimate_seconds(*cfg.cpu, force_profile(st.ops)));
}

/// Leapfrog half-kick / drift over the owned particles (accumulates the
/// update-op counts into `w.update_ops`).
void kick(RankWork& w, double h) {
  for (std::size_t i = 0; i < w.mine.size(); ++i) {
    w.mine.vx[i] += h * w.mine.ax[i];
    w.mine.vy[i] += h * w.mine.ay[i];
    w.mine.vz[i] += h * w.mine.az[i];
  }
  OpCounter o;
  o.fadd = 3 * w.mine.size();
  o.fmul = 3 * w.mine.size();
  o.load = 6 * w.mine.size();
  o.store = 3 * w.mine.size();
  w.update_ops += o;
}

void drift(RankWork& w, double dt) {
  for (std::size_t i = 0; i < w.mine.size(); ++i) {
    w.mine.x[i] += dt * w.mine.vx[i];
    w.mine.y[i] += dt * w.mine.vy[i];
    w.mine.z[i] += dt * w.mine.vz[i];
  }
  OpCounter o;
  o.fadd = 3 * w.mine.size();
  o.fmul = 3 * w.mine.size();
  o.load = 6 * w.mine.size();
  o.store = 3 * w.mine.size();
  w.update_ops += o;
}

}  // namespace

namespace detail {

ParticleSet morton_ic(const ParallelConfig& cfg) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "ParallelConfig.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(cfg.steps >= 1);
  BLADED_REQUIRE(cfg.particles >= static_cast<std::size_t>(cfg.ranks));
  ParticleSet global = make_ic(cfg);
  const BoundingBox box = BoundingBox::containing(global);
  global.apply_permutation(sort_permutation(morton_keys(global, box)));
  return global;
}

void run_rank(simnet::Comm& comm, const ParallelConfig& cfg,
              const ParticleSet& source, int start_step, RankWork& w,
              const StepHook& after_step) {
  const std::size_t n = source.size();
  const auto r = static_cast<std::size_t>(comm.rank());
  const auto ranks = static_cast<std::size_t>(comm.size());
  w.mine = source.slice(n * r / ranks, n * (r + 1) / ranks);
  evaluate_forces(comm, cfg, w);  // prime accelerations
  const double h = 0.5 * cfg.dt;
  for (int s = start_step; s < cfg.steps; ++s) {
    kick(w, h);
    drift(w, cfg.dt);
    evaluate_forces(comm, cfg, w);
    kick(w, h);
    comm.compute(
        arch::estimate_seconds(*cfg.cpu, update_profile(w.update_ops)));
    w.update_ops = OpCounter{};
    if (after_step) after_step(comm, w, s + 1);
  }
  w.kinetic = comm.allreduce(w.mine.kinetic_energy(), std::plus<double>{});
  w.potential = comm.allreduce(w.mine.potential_energy(), std::plus<double>{});
}

ParallelResult assemble(const simnet::Cluster& cluster,
                        const std::vector<RankWork>& work) {
  ParallelResult res;
  res.elapsed_seconds = cluster.elapsed_seconds();
  res.bytes = cluster.total_bytes();
  res.messages = cluster.total_messages();
  for (int r = 0; r < cluster.ranks(); ++r) {
    const RankWork& w = work[static_cast<std::size_t>(r)];
    const OpCounter all = w.force_ops + w.build_ops;
    res.total_flops += all.flops();
    res.interactions += w.traversal.interactions();
    res.compute_seconds =
        std::max(res.compute_seconds, cluster.stats(r).compute_seconds);
    res.particles_out.append(w.mine);
  }
  res.kinetic = work[0].kinetic;
  res.potential = work[0].potential;
  if (res.elapsed_seconds > 0.0) {
    res.sustained_gflops =
        static_cast<double>(res.total_flops) / res.elapsed_seconds / 1e9;
    res.mflops_per_proc = res.sustained_gflops * 1000.0 / cluster.ranks();
  }
  return res;
}

}  // namespace detail

ParallelResult run_parallel_nbody(const ParallelConfig& cfg) {
  const ParticleSet global = detail::morton_ic(cfg);
  simnet::Cluster cluster(
      {.ranks = cfg.ranks, .network = cfg.network, .recorder = cfg.recorder,
       .host_threads = cfg.host_threads, .cancel = cfg.cancel});
  std::vector<RankWork> work(cfg.ranks);
  cluster.run([&](simnet::Comm& comm) {
    detail::run_rank(comm, cfg, global, 0, work[comm.rank()], {});
  });
  return detail::assemble(cluster, work);
}

}  // namespace bladed::treecode
