#include "npb/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "arch/cost_model.hpp"
#include "common/error.hpp"
#include "common/npb_rand.hpp"
#include "common/rng.hpp"
#include "simnet/comm.hpp"

namespace bladed::npb {

namespace {

arch::KernelProfile ep_chars(const OpCounter& ops) {
  arch::KernelProfile p;
  p.name = "npb/ep-parallel";
  p.ops = ops;
  p.miss_intensity = 0.02;
  p.dependency = 0.30;
  return p;
}

arch::KernelProfile is_chars(const OpCounter& ops) {
  arch::KernelProfile p;
  p.name = "npb/is-parallel";
  p.ops = ops;
  p.miss_intensity = 0.8;
  p.dependency = 0.25;
  return p;
}

/// acc[b] += src[b] for b < n, n a multiple of 8. The fixed-width blocks
/// over restrict pointers let -O2 vectorize the loop.
void add_counts(std::uint32_t* __restrict acc,
                const std::uint32_t* __restrict src, std::size_t n) {
  for (std::size_t b = 0; b < n; b += 8) {
    for (std::size_t k = 0; k < 8; ++k) acc[b + k] += src[b + k];
  }
}

}  // namespace

ParallelEpResult run_parallel_ep(const ParallelNpbConfig& cfg, int m,
                                 std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(m >= 4 && m <= 32);
  const std::uint64_t total_pairs = std::uint64_t{1} << m;

  simnet::Cluster cluster(
      {.ranks = cfg.ranks, .network = cfg.network, .recorder = cfg.recorder,
       .host_threads = cfg.host_threads});
  std::vector<EpResult> locals(cfg.ranks);
  ParallelEpResult res;

  cluster.run([&](simnet::Comm& comm) {
    const int r = comm.rank();
    const auto n = static_cast<std::uint64_t>(comm.size());
    const std::uint64_t first = total_pairs * static_cast<std::uint64_t>(r) / n;
    const std::uint64_t last =
        total_pairs * static_cast<std::uint64_t>(r + 1) / n;

    EpResult local = run_ep_block(first, last - first, seed);
    comm.compute(arch::estimate_seconds(*cfg.cpu, ep_chars(local.ops)));

    // Combine: sums by fp allreduce, annulus counts elementwise.
    local.sx = comm.allreduce(local.sx, std::plus<double>{});
    local.sy = comm.allreduce(local.sy, std::plus<double>{});
    std::vector<std::uint64_t> q(local.q.begin(), local.q.end());
    q = comm.allreduce_vec(std::move(q), std::plus<std::uint64_t>{});
    std::copy(q.begin(), q.end(), local.q.begin());
    local.accepted =
        comm.allreduce(local.accepted, std::plus<std::uint64_t>{});
    local.pairs = comm.allreduce(local.pairs, std::plus<std::uint64_t>{});
    locals[r] = std::move(local);
  });

  res.global = locals[0];
  res.global.ops = OpCounter{};
  for (const EpResult& l : locals) res.global.ops += l.ops;
  res.elapsed_seconds = cluster.elapsed_seconds();
  for (int r = 0; r < cfg.ranks; ++r) {
    res.compute_seconds =
        std::max(res.compute_seconds, cluster.stats(r).compute_seconds);
  }
  res.bytes = cluster.total_bytes();
  res.messages = cluster.total_messages();
  return res;
}

ParallelIsResult run_parallel_is(const ParallelNpbConfig& cfg, int n_log2,
                                 int bmax_log2, int iterations,
                                 std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(n_log2 >= 4 && n_log2 <= 26);
  BLADED_REQUIRE(bmax_log2 >= 3 && bmax_log2 <= 24);
  BLADED_REQUIRE(iterations >= 1);

  const std::uint64_t n = std::uint64_t{1} << n_log2;
  const std::uint64_t bmax = std::uint64_t{1} << bmax_log2;

  simnet::Cluster cluster(
      {.ranks = cfg.ranks, .network = cfg.network, .recorder = cfg.recorder,
       .host_threads = cfg.host_threads});
  ParallelIsResult res;
  res.keys = n;
  std::vector<std::vector<std::uint32_t>> final_keys(cfg.ranks);
  std::vector<std::vector<std::uint32_t>> final_ranks(cfg.ranks);

  cluster.run([&](simnet::Comm& comm) {
    const int r = comm.rank();
    const auto nranks = static_cast<std::uint64_t>(comm.size());
    const std::uint64_t first = n * static_cast<std::uint64_t>(r) / nranks;
    const std::uint64_t last =
        n * static_cast<std::uint64_t>(r + 1) / nranks;
    const std::uint64_t mine = last - first;

    // Generate this rank's slice of the global key stream (4 deviates/key).
    std::vector<std::uint32_t> keys(mine);
    NpbRandom rng(seed);
    rng.set_state(NpbRandom::skip(seed, 4 * first));
    for (auto& k : keys) {
      const double a = rng.next() + rng.next() + rng.next() + rng.next();
      k = static_cast<std::uint32_t>(a * 0.25 * static_cast<double>(bmax));
      if (k >= bmax) k = static_cast<std::uint32_t>(bmax - 1);
    }
    OpCounter gen;
    gen.fadd = 4 * mine;
    gen.fmul = 6 * mine;
    gen.iop = 12 * mine;
    gen.store = mine;
    comm.compute(arch::estimate_seconds(*cfg.cpu, is_chars(gen)));

    std::vector<std::uint32_t> rank_of(mine);
    std::vector<std::uint32_t> counts(bmax);
    // below[b]: keys of bucket b on ranks < r, then this rank's next global
    // rank in b; upper[b]: keys of bucket b on ranks >= r. Counts fit in
    // 32 bits: n <= 2^26.
    std::vector<std::uint32_t> below(bmax), upper(bmax);
    for (int iter = 1; iter <= iterations; ++iter) {
      // NPB's per-iteration perturbation, applied by the owning ranks.
      const auto g1 = static_cast<std::uint64_t>(iter);
      const std::uint64_t g2 = static_cast<std::uint64_t>(iter) + n / 2;
      if (g1 >= first && g1 < last) {
        keys[g1 - first] = static_cast<std::uint32_t>(iter);
      }
      if (g2 >= first && g2 < last) {
        keys[g2 - first] =
            static_cast<std::uint32_t>(bmax - static_cast<std::uint64_t>(iter));
      }

      // Local bucket counts.
      std::fill(counts.begin(), counts.end(), 0u);
      for (std::uint32_t k : keys) ++counts[k];

      // Exchange counts: every rank learns everyone's histogram, read in
      // place from the shared payloads.
      const std::vector<simnet::Payload> all_counts =
          comm.allgather_payloads(std::span<const std::uint32_t>(counts));

      // Rank-outer, bucket-inner sums over contiguous count arrays, then one
      // exclusive scan of the totals gives each bucket's global base. The
      // sums are integers, so the result is independent of the order.
      std::fill(below.begin(), below.end(), 0u);
      std::fill(upper.begin(), upper.end(), 0u);
      for (int rr = 0; rr < comm.size(); ++rr) {
        const std::span<const std::uint32_t> c =
            all_counts[static_cast<std::size_t>(rr)].view<std::uint32_t>();
        BLADED_REQUIRE_MSG(c.size() == bmax,
                           "parallel IS: rank " + std::to_string(rr) +
                               " sent " + std::to_string(c.size()) +
                               " bucket counts, expected " +
                               std::to_string(bmax));
        add_counts(rr < r ? below.data() : upper.data(), c.data(), bmax);
      }
      std::uint32_t running = 0;
      for (std::uint64_t b = 0; b < bmax; ++b) {
        const std::uint32_t lower = below[b];
        below[b] = running + lower;
        running += lower + upper[b];
      }
      for (std::size_t i = 0; i < mine; ++i) rank_of[i] = below[keys[i]]++;

      OpCounter per_iter;
      per_iter.iop = 3 * mine + 2 * bmax * (1 + nranks);
      per_iter.load = 2 * mine + bmax * (1 + nranks);
      per_iter.store = 2 * mine + bmax;
      per_iter.branch = mine / 8 + bmax / 8;
      comm.compute(arch::estimate_seconds(*cfg.cpu, is_chars(per_iter)));
    }
    final_keys[r] = std::move(keys);
    final_ranks[r] = std::move(rank_of);
    comm.barrier();
  });

  // Verification (outside the simulation): scatter all keys by their global
  // ranks; the result must be a sorted permutation.
  std::vector<std::uint32_t> sorted(n);
  std::vector<std::uint8_t> hit(n, 0);
  bool perm = true;
  for (int r = 0; r < cfg.ranks && perm; ++r) {
    for (std::size_t i = 0; i < final_keys[r].size(); ++i) {
      const std::uint32_t rk = final_ranks[r][i];
      if (rk >= n || hit[rk]) {
        perm = false;
        break;
      }
      hit[rk] = 1;
      sorted[rk] = final_keys[r][i];
    }
  }
  res.ranks_are_permutation = perm;
  res.globally_sorted =
      perm && std::is_sorted(sorted.begin(), sorted.end());
  res.elapsed_seconds = cluster.elapsed_seconds();
  for (int r = 0; r < cfg.ranks; ++r) {
    res.compute_seconds =
        std::max(res.compute_seconds, cluster.stats(r).compute_seconds);
  }
  res.bytes = cluster.total_bytes();
  res.messages = cluster.total_messages();
  return res;
}


ParallelStencilResult run_parallel_stencil(const ParallelNpbConfig& cfg,
                                           int n, int iterations,
                                           std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(n >= 4);
  BLADED_REQUIRE(cfg.ranks <= n);
  BLADED_REQUIRE(iterations >= 1);

  // The MG-style charge distribution, identical on every rank.
  struct Charge {
    int x, y, z;
    double v;
  };
  std::vector<Charge> charges;
  {
    Rng rng(seed);
    for (int s = 0; s < 20; ++s) {
      charges.push_back({static_cast<int>(rng.below(n)),
                         static_cast<int>(rng.below(n)),
                         static_cast<int>(rng.below(n)),
                         s < 10 ? 1.0 : -1.0});
    }
  }
  constexpr double kOmega = 0.8;

  simnet::Cluster cluster(
      {.ranks = cfg.ranks, .network = cfg.network, .recorder = cfg.recorder,
       .host_threads = cfg.host_threads});
  ParallelStencilResult res;
  res.n = n;
  res.iterations = iterations;

  cluster.run([&](simnet::Comm& comm) {
    const int r = comm.rank();
    const int nranks = comm.size();
    const int z0 = n * r / nranks;
    const int z1 = n * (r + 1) / nranks;
    const int nz = z1 - z0;
    const std::size_t plane = static_cast<std::size_t>(n) * n;

    // Slab with one ghost plane on each side: local z in [0, nz+1].
    std::vector<double> u((nz + 2) * plane, 0.0);
    std::vector<double> un((nz + 2) * plane, 0.0);
    std::vector<double> f(static_cast<std::size_t>(nz) * plane, 0.0);
    const auto at = [&](std::vector<double>& a, int z, int y,
                        int x) -> double& {
      return a[(static_cast<std::size_t>(z) * n + y) * n + x];
    };
    for (const Charge& c : charges) {
      if (c.z >= z0 && c.z < z1) {
        f[(static_cast<std::size_t>(c.z - z0) * n + c.y) * n + c.x] = c.v;
      }
    }

    const int up = (r + 1) % nranks;
    const int down = (r - 1 + nranks) % nranks;
    std::vector<double> top_plane(plane), bottom_plane(plane);

    auto exchange_halos = [&] {
      // Copy owned boundary planes out.
      std::copy(&u[1 * plane], &u[2 * plane], bottom_plane.begin());
      std::copy(&u[static_cast<std::size_t>(nz) * plane],
                &u[(static_cast<std::size_t>(nz) + 1) * plane],
                top_plane.begin());
      if (nranks == 1) {  // periodic wrap entirely local
        std::copy(top_plane.begin(), top_plane.end(), u.begin());
        std::copy(bottom_plane.begin(), bottom_plane.end(),
                  &u[(static_cast<std::size_t>(nz) + 1) * plane]);
        return;
      }
      comm.send(up, 1, top_plane);      // my top feeds up's lower ghost
      comm.send(down, 2, bottom_plane); // my bottom feeds down's upper ghost
      const std::vector<double> lower_ghost = comm.recv<double>(down, 1);
      const std::vector<double> upper_ghost = comm.recv<double>(up, 2);
      std::copy(lower_ghost.begin(), lower_ghost.end(), u.begin());
      std::copy(upper_ghost.begin(), upper_ghost.end(),
                &u[(static_cast<std::size_t>(nz) + 1) * plane]);
    };

    auto sweep = [&] {
      for (int z = 1; z <= nz; ++z) {
        for (int y = 0; y < n; ++y) {
          const int ym = (y - 1 + n) % n, yp = (y + 1) % n;
          for (int x = 0; x < n; ++x) {
            const int xm = (x - 1 + n) % n, xp = (x + 1) % n;
            const double nb = at(u, z, y, xm) + at(u, z, y, xp) +
                              at(u, z, ym, x) + at(u, z, yp, x) +
                              at(u, z - 1, y, x) + at(u, z + 1, y, x);
            const double fv =
                f[(static_cast<std::size_t>(z - 1) * n + y) * n + x];
            at(un, z, y, x) =
                (1.0 - kOmega) * at(u, z, y, x) + kOmega * (nb + fv) / 6.0;
          }
        }
      }
      std::swap(u, un);
    };

    OpCounter per_sweep;
    per_sweep.fadd = 8ULL * nz * plane;
    per_sweep.fmul = 3ULL * nz * plane;
    per_sweep.fdiv = 0;
    per_sweep.load = 8ULL * nz * plane;
    per_sweep.store = 1ULL * nz * plane;
    per_sweep.iop = 10ULL * nz * plane;
    per_sweep.branch = nz * plane / 4;
    arch::KernelProfile sweep_profile;
    sweep_profile.name = "npb/stencil";
    sweep_profile.ops = per_sweep;
    sweep_profile.miss_intensity = 0.7;
    sweep_profile.dependency = 0.15;

    // Deterministic residual/checksum: per-plane sums gathered at rank 0
    // and folded in global z order, so the result is identical for any
    // rank count.
    auto global_fold = [&](auto plane_value) -> double {
      std::vector<double> mine(static_cast<std::size_t>(nz));
      for (int z = 1; z <= nz; ++z) {
        mine[static_cast<std::size_t>(z - 1)] = plane_value(z);
      }
      const auto all = comm.gather(mine, 0);
      double total = 0.0;
      if (comm.rank() == 0) {
        for (const auto& block : all) {
          for (double v : block) total += v;
        }
      }
      const std::vector<double> out =
          comm.bcast(comm.rank() == 0 ? std::vector<double>{total}
                                      : std::vector<double>{},
                     0);
      return out.at(0);
    };

    auto residual_norm = [&] {
      exchange_halos();
      return std::sqrt(global_fold([&](int z) {
        double s = 0.0;
        for (int y = 0; y < n; ++y) {
          const int ym = (y - 1 + n) % n, yp = (y + 1) % n;
          for (int x = 0; x < n; ++x) {
            const int xm = (x - 1 + n) % n, xp = (x + 1) % n;
            const double nb = at(u, z, y, xm) + at(u, z, y, xp) +
                              at(u, z, ym, x) + at(u, z, yp, x) +
                              at(u, z - 1, y, x) + at(u, z + 1, y, x);
            const double fv =
                f[(static_cast<std::size_t>(z - 1) * n + y) * n + x];
            const double rr = fv - (6.0 * at(u, z, y, x) - nb);
            s += rr * rr;
          }
        }
        return s;
      }));
    };

    const double r0 = residual_norm();
    for (int it = 0; it < iterations; ++it) {
      exchange_halos();
      sweep();
      comm.compute(arch::estimate_seconds(*cfg.cpu, sweep_profile));
    }
    const double rfinal = residual_norm();
    const double checksum = global_fold([&](int z) {
      double s = 0.0;
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) s += at(u, z, y, x);
      }
      return s;
    });

    if (r == 0) {
      res.initial_residual = r0;
      res.final_residual = rfinal;
      res.solution_checksum = checksum;
    }
  });

  res.elapsed_seconds = cluster.elapsed_seconds();
  for (int r = 0; r < cfg.ranks; ++r) {
    res.compute_seconds =
        std::max(res.compute_seconds, cluster.stats(r).compute_seconds);
  }
  res.bytes = cluster.total_bytes();
  res.messages = cluster.total_messages();
  return res;
}

}  // namespace bladed::npb

