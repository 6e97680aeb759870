#include "treecode/checkpoint.hpp"

#include <array>
#include <utility>

#include "common/error.hpp"
#include "simnet/comm.hpp"
#include "treecode/io.hpp"
#include "treecode/parallel_internal.hpp"

namespace bladed::treecode {

namespace {

std::string snapshot_path(const std::string& dir, int version, int rank) {
  return dir + "/ck_v" + std::to_string(version) + "_r" +
         std::to_string(rank) + ".bin";
}

/// The dynamical state: forces and potentials are derived and recomputed.
template <class Particles>  // ParticleSet or const ParticleSet
auto state_arrays(Particles& p) {
  return std::array{&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.m};
}

std::vector<std::byte> pack_state(const ParticleSet& p) {
  fault::BlobWriter w;
  for (const auto* v : state_arrays(p)) w.put_vec(*v);
  return w.take();
}

ParticleSet unpack_state(const std::vector<std::byte>& blob) {
  fault::BlobReader r(blob);
  ParticleSet p;
  for (auto* v : state_arrays(p)) *v = r.get_vec<double>();
  for (const auto* v : state_arrays(p)) {
    BLADED_REQUIRE_MSG(v->size() == p.x.size(),
                       "checkpoint blob has inconsistent array lengths");
  }
  p.resize(p.x.size());  // zeroed accelerations and potentials
  return p;
}

}  // namespace

FtResult run_parallel_nbody_ft(const FtConfig& cfg) {
  const ParallelConfig& base = cfg.base;
  BLADED_REQUIRE(cfg.checkpoint_every >= 0);
  BLADED_REQUIRE(cfg.checkpoint_write_bw > 0.0);
  const ParticleSet global = detail::morton_ic(base);
  fault::Coordinator ck;

  // Coordinated checkpoint after every `checkpoint_every` steps but the last.
  const detail::StepHook checkpoint = [&](simnet::Comm& comm,
                                          detail::RankWork& w, int done) {
    if (cfg.checkpoint_every == 0 || done % cfg.checkpoint_every != 0 ||
        done >= base.steps) {
      return;
    }
    ck.commit(comm, done, [&] {
      const int r = comm.rank();
      std::size_t blob_bytes = 0;
      if (!cfg.snapshot_dir.empty()) {
        save_snapshot(w.mine, snapshot_path(cfg.snapshot_dir, done, r));
        blob_bytes = w.mine.size() * 7 * sizeof(double);
      } else {
        std::vector<std::byte> blob = pack_state(w.mine);
        blob_bytes = blob.size();
        ck.store.save(r, done, std::move(blob));
      }
      comm.compute(static_cast<double>(blob_bytes) / cfg.checkpoint_write_bw);
    });
  };

  FtResult out;
  out.recovery = fault::run_with_restarts(
      cfg.recovery, ck,
      {.ranks = base.ranks, .network = base.network,
       .host_threads = base.host_threads},
      cfg.on_node_loss, [&](simnet::Cluster& cluster) {
        // Starting state: every writer's slice of the last complete version
        // (concatenated in rank order — contiguous in global Morton order —
        // then re-split over the current rank count), else the IC.
        const int version = ck.version.load();
        ParticleSet whole;
        bool intact = version > 0;
        for (int r = 0; r < ck.writers.load() && intact; ++r) {
          if (!cfg.snapshot_dir.empty()) {
            try {
              whole.append(load_snapshot(
                  snapshot_path(cfg.snapshot_dir, version, r)));
            } catch (const SimulationError&) {
              intact = false;  // missing or checksum-rejected snapshot file
            }
          } else if (const auto blob = ck.load(r)) {
            whole.append(unpack_state(*blob));
          } else {
            intact = false;  // absent or CRC-rejected blob
          }
        }
        const int start_step = intact ? version : 0;
        const ParticleSet& source = start_step > 0 ? whole : global;
        std::vector<detail::RankWork> work(
            static_cast<std::size_t>(cluster.ranks()));
        cluster.run([&](simnet::Comm& comm) {
          detail::run_rank(comm, base, source, start_step,
                           work[static_cast<std::size_t>(comm.rank())],
                           checkpoint);
        });
        out.result = detail::assemble(cluster, work);
        out.final_ranks = cluster.ranks();
        return start_step;
      });
  return out;
}

}  // namespace bladed::treecode
