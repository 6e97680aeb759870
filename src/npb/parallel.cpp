#include "npb/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "arch/cost_model.hpp"
#include "common/error.hpp"
#include "common/npb_rand.hpp"
#include "common/rng.hpp"
#include "fault/checkpoint.hpp"
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

/// This rank's contiguous block [first, last) of `total` items.
std::pair<std::uint64_t, std::uint64_t> block_of(std::uint64_t total,
                                                 const simnet::Comm& comm) {
  const auto r = static_cast<std::uint64_t>(comm.rank());
  const auto n = static_cast<std::uint64_t>(comm.size());
  return {total * r / n, total * (r + 1) / n};
}

/// The timing and traffic fields every parallel result reports.
template <class Result>
void set_costs(Result& res, const simnet::Cluster& cluster) {
  res.elapsed_seconds = cluster.elapsed_seconds();
  for (int r = 0; r < cluster.ranks(); ++r) {
    res.compute_seconds =
        std::max(res.compute_seconds, cluster.stats(r).compute_seconds);
  }
  res.bytes = cluster.total_bytes();
  res.messages = cluster.total_messages();
}

/// One EP run: 2^m pairs, each rank's block processed in `batches` chunks.
struct EpRun {
  const arch::ProcessorModel& cpu;
  std::uint64_t pairs;
  std::uint64_t seed;
  int batches;
  std::vector<EpResult> locals;  ///< per rank, after the combine

  /// One rank's program: chunks [start, batches) added onto the partial
  /// sums `acc`, with after_batch(done, acc) between chunks, then the
  /// allreduce combine.
  template <class AfterBatch>
  void rank(simnet::Comm& comm, int start, EpResult acc,
            AfterBatch&& after_batch) {
    const auto [first, last] = block_of(pairs, comm);
    const auto nb = static_cast<std::uint64_t>(batches);
    for (int b = start; b < batches; ++b) {
      const std::uint64_t b0 =
          first + (last - first) * static_cast<std::uint64_t>(b) / nb;
      const std::uint64_t b1 =
          first + (last - first) * (static_cast<std::uint64_t>(b) + 1) / nb;
      const EpResult part = run_ep_block(b0, b1 - b0, seed);
      comm.compute(arch::estimate_seconds(cpu, ep_chars(part.ops)));
      acc.sx += part.sx;
      acc.sy += part.sy;
      for (std::size_t i = 0; i < acc.q.size(); ++i) acc.q[i] += part.q[i];
      acc.pairs += part.pairs;
      acc.accepted += part.accepted;
      acc.ops += part.ops;
      if (b + 1 < batches) after_batch(b + 1, acc);
    }

    // Combine: sums by fp allreduce, annulus counts elementwise.
    acc.sx = comm.allreduce(acc.sx, std::plus<double>{});
    acc.sy = comm.allreduce(acc.sy, std::plus<double>{});
    std::vector<std::uint64_t> q(acc.q.begin(), acc.q.end());
    q = comm.allreduce_vec(std::move(q), std::plus<std::uint64_t>{});
    std::copy(q.begin(), q.end(), acc.q.begin());
    acc.accepted = comm.allreduce(acc.accepted, std::plus<std::uint64_t>{});
    acc.pairs = comm.allreduce(acc.pairs, std::plus<std::uint64_t>{});
    locals[static_cast<std::size_t>(comm.rank())] = acc;
  }

  [[nodiscard]] ParallelEpResult result(const simnet::Cluster& cluster) const {
    ParallelEpResult res;
    res.global = locals[0];
    res.global.ops = OpCounter{};
    for (const EpResult& l : locals) res.global.ops += l.ops;
    set_costs(res, cluster);
    return res;
  }
};

EpRun ep_run(const ParallelNpbConfig& cfg, int m, std::uint64_t seed,
             int batches) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(m >= 4 && m <= 32);
  BLADED_REQUIRE(batches >= 1);
  return {*cfg.cpu, std::uint64_t{1} << m, seed, batches,
          std::vector<EpResult>(static_cast<std::size_t>(cfg.ranks))};
}

/// One IS run: 2^n_log2 keys in [0, bmax), ranked `iterations` times.
struct IsRun {
  const arch::ProcessorModel& cpu;
  std::uint64_t n;
  std::uint64_t bmax;
  int iterations;
  std::uint64_t seed;
  /// Per rank, the final key slice and its global ranks.
  std::vector<std::vector<std::uint32_t>> final_keys, final_ranks;

  /// One rank's program: rankings [start, iterations] of `keys` (empty =
  /// generate this rank's slice of the NPB key stream), with
  /// after_iter(iter, keys) after every ranking but the last.
  template <class AfterIter>
  void rank(simnet::Comm& comm, int start, std::vector<std::uint32_t> keys,
            AfterIter&& after_iter) {
    const int r = comm.rank();
    const auto nranks = static_cast<std::uint64_t>(comm.size());
    const auto [first, last] = block_of(n, comm);
    const std::uint64_t mine = last - first;

    if (keys.empty()) {  // 4 deviates per key
      keys.resize(mine);
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
      comm.compute(arch::estimate_seconds(cpu, is_chars(gen)));
    }

    std::vector<std::uint32_t> rank_of(mine);
    std::vector<std::uint32_t> counts(bmax);
    // below[b]: keys of bucket b on ranks < r, then this rank's next global
    // rank in b; upper[b]: keys of bucket b on ranks >= r. Counts fit in
    // 32 bits: n <= 2^26.
    std::vector<std::uint32_t> below(bmax), upper(bmax);
    for (int iter = start; iter <= iterations; ++iter) {
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
      comm.compute(arch::estimate_seconds(cpu, is_chars(per_iter)));
      if (iter < iterations) after_iter(iter, keys);
    }
    final_keys[static_cast<std::size_t>(r)] = std::move(keys);
    final_ranks[static_cast<std::size_t>(r)] = std::move(rank_of);
    comm.barrier();
  }

  /// Verification (outside the simulation): scatter all keys by their
  /// global ranks; the result must be a sorted permutation.
  [[nodiscard]] ParallelIsResult result(const simnet::Cluster& cluster) const {
    ParallelIsResult res;
    res.keys = n;
    std::vector<std::uint32_t> sorted(n);
    std::vector<std::uint8_t> hit(n, 0);
    bool perm = true;
    for (std::size_t r = 0; r < final_keys.size() && perm; ++r) {
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
    set_costs(res, cluster);
    return res;
  }
};

IsRun is_run(const ParallelNpbConfig& cfg, int n_log2, int bmax_log2,
             int iterations, std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.ranks >= 1);
  BLADED_REQUIRE(n_log2 >= 4 && n_log2 <= 26);
  BLADED_REQUIRE(bmax_log2 >= 3 && bmax_log2 <= 24);
  BLADED_REQUIRE(iterations >= 1);
  const auto ranks = static_cast<std::size_t>(cfg.ranks);
  return {*cfg.cpu, std::uint64_t{1} << n_log2, std::uint64_t{1} << bmax_log2,
          iterations, seed,
          std::vector<std::vector<std::uint32_t>>(ranks),
          std::vector<std::vector<std::uint32_t>>(ranks)};
}

simnet::Cluster::Config plain_config(const ParallelNpbConfig& cfg) {
  return {.ranks = cfg.ranks, .network = cfg.network, .recorder = cfg.recorder,
          .host_threads = cfg.host_threads};
}

constexpr auto kNoHook = [](int, const auto&) {};

/// Coordinated checkpoints of one FT run, shared by its attempts: ranks
/// bracket each save with barriers, so a version is complete once rank 0
/// commits it.
struct Checkpoints {
  fault::CheckpointStore store;
  std::atomic<int> committed{0};  ///< last complete version (0 = none)
  std::atomic<int> count{0};
  std::atomic<double> last_commit_time{0.0};  ///< within the current attempt

  void commit(simnet::Comm& comm, int version, std::vector<std::byte> blob) {
    comm.barrier();
    store.save(comm.rank(), version, std::move(blob));
    comm.barrier();
    if (comm.rank() == 0) {
      committed.store(version);
      count.fetch_add(1);
      last_commit_time.store(comm.now());
    }
  }

  /// This rank's blob of the last complete version, if there is one.
  [[nodiscard]] std::optional<std::vector<std::byte>> resume(int rank) const {
    if (committed.load() <= 0) return std::nullopt;
    return store.load(rank, committed.load());
  }
};

/// Runs `program` under the fault plan until an attempt completes, each
/// restart shifting the plan by the virtual time already consumed; hands
/// the completed attempt's cluster to `on_success`.
template <class Program, class OnSuccess>
NpbFtReport run_with_restarts(const NpbFaultConfig& cfg, Checkpoints& ck,
                              const Program& program, OnSuccess&& on_success) {
  BLADED_REQUIRE(cfg.max_restarts >= 0);
  NpbFtReport ft;
  double consumed = 0.0;
  for (;;) {
    fault::FaultPlan plan;
    plan.enabled = true;
    plan.schedule = cfg.schedule;
    plan.transport = cfg.transport;
    plan.seed = cfg.fault_seed;
    plan.time_offset = consumed;
    simnet::Cluster cluster({.ranks = cfg.base.ranks,
                             .network = cfg.base.network,
                             .fault = plan,
                             .host_threads = cfg.base.host_threads});
    ck.last_commit_time.store(0.0);
    if (ft.restarts > 0) ft.resumed_from = ck.committed.load();

    try {
      cluster.run(program);
    } catch (const FaultError&) {
      const double elapsed = cluster.elapsed_seconds();
      consumed += elapsed + cfg.restart_penalty_seconds;
      ft.lost_virtual_seconds += (elapsed - ck.last_commit_time.load()) +
                                 cfg.restart_penalty_seconds;
      ft.fault_stats += cluster.fault_stats();
      if (ft.restarts >= cfg.max_restarts) throw;
      ++ft.restarts;
      ++ft.attempts;
      continue;
    }

    consumed += cluster.elapsed_seconds();
    ft.fault_stats += cluster.fault_stats();
    ft.total_virtual_seconds = consumed;
    ft.checkpoints = ck.count.load();
    on_success(cluster);
    return ft;
  }
}

}  // namespace

ParallelEpResult run_parallel_ep(const ParallelNpbConfig& cfg, int m,
                                 std::uint64_t seed) {
  EpRun run = ep_run(cfg, m, seed, 1);
  simnet::Cluster cluster(plain_config(cfg));
  cluster.run(
      [&](simnet::Comm& comm) { run.rank(comm, 0, EpResult{}, kNoHook); });
  return run.result(cluster);
}

ParallelIsResult run_parallel_is(const ParallelNpbConfig& cfg, int n_log2,
                                 int bmax_log2, int iterations,
                                 std::uint64_t seed) {
  IsRun run = is_run(cfg, n_log2, bmax_log2, iterations, seed);
  simnet::Cluster cluster(plain_config(cfg));
  cluster.run([&](simnet::Comm& comm) { run.rank(comm, 1, {}, kNoHook); });
  return run.result(cluster);
}

ParallelEpFtResult run_parallel_ep_ft(const NpbFaultConfig& cfg, int m,
                                      int batches, std::uint64_t seed) {
  EpRun run = ep_run(cfg.base, m, seed, batches);
  Checkpoints ck;
  ParallelEpFtResult out;
  out.ft = run_with_restarts(
      cfg, ck,
      [&](simnet::Comm& comm) {
        EpResult acc;
        int start = 0;
        const auto blob = ck.resume(comm.rank());
        if (blob && blob->size() == sizeof(EpResult)) {
          std::memcpy(&acc, blob->data(), sizeof(EpResult));
          start = ck.committed.load();
        }
        run.rank(comm, start, acc, [&](int done, const EpResult& partial) {
          std::vector<std::byte> b(sizeof(EpResult));
          std::memcpy(b.data(), &partial, sizeof(EpResult));
          ck.commit(comm, done, std::move(b));
        });
      },
      [&](const simnet::Cluster& cluster) { out.ep = run.result(cluster); });
  return out;
}

ParallelIsFtResult run_parallel_is_ft(const NpbFaultConfig& cfg, int n_log2,
                                      int bmax_log2, int iterations,
                                      std::uint64_t seed) {
  IsRun run = is_run(cfg.base, n_log2, bmax_log2, iterations, seed);
  Checkpoints ck;
  ParallelIsFtResult out;
  out.ft = run_with_restarts(
      cfg, ck,
      [&](simnet::Comm& comm) {
        // Key slice from the last complete checkpoint, else regenerated.
        const auto [first, last] = block_of(run.n, comm);
        std::vector<std::uint32_t> keys;
        int start = 1;
        const auto blob = ck.resume(comm.rank());
        if (blob && blob->size() == (last - first) * sizeof(std::uint32_t)) {
          keys.resize(last - first);
          std::memcpy(keys.data(), blob->data(), blob->size());
          start = ck.committed.load() + 1;
        }
        run.rank(comm, start, std::move(keys),
                 [&](int iter, const std::vector<std::uint32_t>& k) {
                   std::vector<std::byte> b(k.size() * sizeof(std::uint32_t));
                   std::memcpy(b.data(), k.data(), b.size());
                   ck.commit(comm, iter, std::move(b));
                 });
      },
      [&](const simnet::Cluster& cluster) { out.is = run.result(cluster); });
  return out;
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

  simnet::Cluster cluster(plain_config(cfg));
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

  set_costs(res, cluster);
  return res;
}

}  // namespace bladed::npb

