#include "fault/checkpoint.hpp"

#include <utility>

#include "simnet/comm.hpp"

namespace bladed::fault {

void CheckpointStore::save(int rank, int version,
                           std::vector<std::byte> blob) {
  Entry e;
  e.crc = crc32_of(blob);
  e.blob = std::move(blob);
  std::lock_guard<std::mutex> lk(mu_);
  entries_[{rank, version}] = std::move(e);
}

std::optional<std::vector<std::byte>> CheckpointStore::load(
    int rank, int version) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find({rank, version});
  if (it == entries_.end()) return std::nullopt;
  if (crc32_of(it->second.blob) != it->second.crc) return std::nullopt;
  return it->second.blob;
}

void CheckpointStore::damage(int rank, int version) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find({rank, version});
  if (it != entries_.end() && !it->second.blob.empty()) {
    it->second.blob[it->second.blob.size() / 2] ^= std::byte{0x40};
  }
}

void Coordinator::commit(simnet::Comm& comm, int v,
                         const std::function<void()>& save) {
  comm.barrier();
  save();
  comm.barrier();
  if (comm.rank() == 0) {
    version.store(v);
    writers.store(comm.size());
    count.fetch_add(1);
    last_commit_time.store(comm.now());
  }
}

void Coordinator::commit(simnet::Comm& comm, int v,
                         std::vector<std::byte> blob) {
  commit(comm, v, [&] { store.save(comm.rank(), v, std::move(blob)); });
}

std::optional<std::vector<std::byte>> Coordinator::load(int rank) const {
  return store.load(rank, version.load());  // nothing is stored at 0
}

RecoveryReport run_with_restarts(
    const RecoveryConfig& cfg, Coordinator& ck, simnet::Cluster::Config cluster,
    NodeLossPolicy on_node_loss,
    const std::function<int(simnet::Cluster&)>& attempt) {
  BLADED_REQUIRE(cfg.max_restarts >= 0);
  BLADED_REQUIRE(cfg.restart_penalty_seconds >= 0.0);
  RecoveryReport out;
  double consumed = 0.0;  ///< virtual seconds across attempts + penalties
  for (;;) {
    cluster.fault = {.enabled = true,
                     .schedule = cfg.schedule,
                     .transport = cfg.transport,
                     .seed = cfg.fault_seed,
                     .time_offset = consumed};
    simnet::Cluster run(cluster);
    ck.last_commit_time.store(0.0);
    bool failed = false;
    try {
      const int resumed_from = attempt(run);
      if (out.restarts > 0) out.resumed_from = resumed_from;
    } catch (const FaultError&) {
      if (out.restarts >= cfg.max_restarts) throw;
      failed = true;
    }
    const double elapsed = run.elapsed_seconds();
    out.fault_stats += run.fault_stats();
    out.fault_trace.insert(out.fault_trace.end(), run.fault_trace().begin(),
                           run.fault_trace().end());
    if (!failed) {
      out.checkpoints = ck.count.load();
      out.total_virtual_seconds = consumed + elapsed;
      return out;
    }
    consumed += elapsed + cfg.restart_penalty_seconds;
    out.lost_virtual_seconds += (elapsed - ck.last_commit_time.load()) +
                                cfg.restart_penalty_seconds;
    const std::vector<int> lost = run.failed_nodes();
    out.failed_nodes.insert(out.failed_nodes.end(), lost.begin(), lost.end());
    ++out.restarts;
    ++out.attempts;
    if (on_node_loss == NodeLossPolicy::kDegrade) {
      cluster.ranks -= static_cast<int>(lost.size());
      BLADED_REQUIRE_MSG(cluster.ranks >= 1, "no ranks survived the failures");
    }
  }
}

}  // namespace bladed::fault
