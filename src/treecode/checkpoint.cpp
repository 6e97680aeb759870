#include "treecode/checkpoint.hpp"

#include <atomic>
#include <utility>

#include "common/error.hpp"
#include "fault/checkpoint.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"
#include "treecode/io.hpp"
#include "treecode/parallel_internal.hpp"

namespace bladed::treecode {

namespace {

std::string snapshot_path(const std::string& dir, int version, int rank) {
  return dir + "/ck_v" + std::to_string(version) + "_r" +
         std::to_string(rank) + ".bin";
}

std::vector<std::byte> pack_state(const ParticleSet& p) {
  fault::BlobWriter w;
  w.put_vec(p.x);
  w.put_vec(p.y);
  w.put_vec(p.z);
  w.put_vec(p.vx);
  w.put_vec(p.vy);
  w.put_vec(p.vz);
  w.put_vec(p.m);
  return w.take();
}

ParticleSet unpack_state(const std::vector<std::byte>& blob) {
  fault::BlobReader r(blob);
  ParticleSet p;
  p.x = r.get_vec<double>();
  p.y = r.get_vec<double>();
  p.z = r.get_vec<double>();
  p.vx = r.get_vec<double>();
  p.vy = r.get_vec<double>();
  p.vz = r.get_vec<double>();
  p.m = r.get_vec<double>();
  const std::size_t n = p.x.size();
  BLADED_REQUIRE_MSG(p.y.size() == n && p.z.size() == n &&
                         p.vx.size() == n && p.vy.size() == n &&
                         p.vz.size() == n && p.m.size() == n,
                     "checkpoint blob has inconsistent array lengths");
  p.ax.assign(n, 0.0);
  p.ay.assign(n, 0.0);
  p.az.assign(n, 0.0);
  p.pot.assign(n, 0.0);
  return p;
}

}  // namespace

FtResult run_parallel_nbody_ft(const FtConfig& cfg) {
  const ParallelConfig& base = cfg.base;
  BLADED_REQUIRE(cfg.checkpoint_every >= 0);
  BLADED_REQUIRE(cfg.max_restarts >= 0);
  BLADED_REQUIRE(cfg.restart_penalty_seconds >= 0.0);
  BLADED_REQUIRE(cfg.checkpoint_write_bw > 0.0);
  const ParticleSet global = detail::morton_ic(base);

  FtResult out;
  fault::CheckpointStore store;
  std::atomic<int> committed{-1};      ///< last complete checkpoint version
  std::atomic<int> committed_ranks{0}; ///< rank count that wrote it
  std::atomic<int> ckpt_count{0};
  std::atomic<double> last_commit_time{0.0};  ///< within the current attempt

  // Coordinated checkpoint after every `checkpoint_every` steps but the last.
  const detail::StepHook checkpoint = [&](simnet::Comm& comm,
                                          detail::RankWork& w, int done) {
    if (cfg.checkpoint_every == 0 || done % cfg.checkpoint_every != 0 ||
        done >= base.steps) {
      return;
    }
    const int r = comm.rank();
    comm.barrier();  // quiesce: no checkpoint spans in-flight sends
    std::size_t blob_bytes = 0;
    if (!cfg.snapshot_dir.empty()) {
      save_snapshot(w.mine, snapshot_path(cfg.snapshot_dir, done, r));
      blob_bytes = w.mine.size() * 7 * sizeof(double);
    } else {
      std::vector<std::byte> blob = pack_state(w.mine);
      blob_bytes = blob.size();
      store.save(r, done, std::move(blob));
    }
    comm.compute(static_cast<double>(blob_bytes) / cfg.checkpoint_write_bw);
    comm.barrier();  // every rank committed => version is complete
    if (r == 0) {
      committed.store(done);
      committed_ranks.store(comm.size());
      ckpt_count.fetch_add(1);
      last_commit_time.store(comm.now());
    }
  };

  double consumed = 0.0;  ///< virtual seconds across attempts + penalties
  int ranks_now = base.ranks;

  for (;;) {
    // Starting state for this attempt: checkpoint slices if a complete
    // version exists (concatenated in rank order — contiguous in global
    // Morton order — then re-split over the current rank count), else IC.
    int start_step = 0;
    ParticleSet whole;
    if (committed.load() >= 0) {
      const int version = committed.load();
      const int writers = committed_ranks.load();
      bool intact = true;
      for (int r = 0; r < writers && intact; ++r) {
        if (!cfg.snapshot_dir.empty()) {
          try {
            whole.append(load_snapshot(
                snapshot_path(cfg.snapshot_dir, version, r)));
          } catch (const SimulationError&) {
            intact = false;  // missing or checksum-rejected snapshot file
          }
        } else {
          const auto blob = store.load(r, version);
          if (!blob) {
            intact = false;  // absent or CRC-rejected blob
          } else {
            whole.append(unpack_state(*blob));
          }
        }
      }
      if (intact) start_step = version;
    }
    // No (usable) checkpoint: restart the physics from the beginning.
    const ParticleSet& source = start_step > 0 ? whole : global;
    if (out.restarts > 0) out.resumed_from_step = start_step;

    fault::FaultPlan plan;
    plan.enabled = true;
    plan.schedule = cfg.schedule;
    plan.transport = cfg.transport;
    plan.seed = cfg.fault_seed;
    plan.time_offset = consumed;

    simnet::Cluster cluster(
        {.ranks = ranks_now, .network = base.network, .fault = plan,
         .host_threads = base.host_threads});
    std::vector<detail::RankWork> work(static_cast<std::size_t>(ranks_now));
    last_commit_time.store(0.0);

    try {
      cluster.run([&](simnet::Comm& comm) {
        detail::run_rank(comm, base, source, start_step,
                         work[static_cast<std::size_t>(comm.rank())],
                         checkpoint);
      });
    } catch (const FaultError&) {
      const double attempt_elapsed = cluster.elapsed_seconds();
      consumed += attempt_elapsed + cfg.restart_penalty_seconds;
      out.lost_virtual_seconds += (attempt_elapsed - last_commit_time.load()) +
                                  cfg.restart_penalty_seconds;
      out.fault_stats += cluster.fault_stats();
      out.fault_trace.insert(out.fault_trace.end(),
                             cluster.fault_trace().begin(),
                             cluster.fault_trace().end());
      const std::vector<int> newly_dead = cluster.failed_nodes();
      out.failed_nodes.insert(out.failed_nodes.end(), newly_dead.begin(),
                              newly_dead.end());
      if (out.restarts >= cfg.max_restarts) throw;
      ++out.restarts;
      ++out.attempts;
      if (cfg.on_node_loss == NodeLossPolicy::kDegrade) {
        ranks_now -= static_cast<int>(newly_dead.size());
        BLADED_REQUIRE_MSG(ranks_now >= 1, "no ranks survived the failures");
      }
      continue;
    }

    // Success: finalize metrics from this attempt, overhead from the whole.
    consumed += cluster.elapsed_seconds();
    out.fault_stats += cluster.fault_stats();
    out.fault_trace.insert(out.fault_trace.end(),
                           cluster.fault_trace().begin(),
                           cluster.fault_trace().end());
    out.result = detail::assemble(cluster, work);
    out.final_ranks = ranks_now;
    out.checkpoints = ckpt_count.load();
    out.total_virtual_seconds = consumed;
    return out;
  }
}

}  // namespace bladed::treecode
