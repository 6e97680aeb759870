/// Bit-exact pins of the parallel drivers' results. The fault-free drivers
/// (run_parallel_ep / _is / _nbody) and their checkpoint/restart
/// counterparts share rank programs, so a change to either can shift
/// virtual time, traffic or physics without breaking any recovery property
/// restart_test.cpp checks. Every field below is pinned to the value the
/// drivers produced when the pins were recorded: doubles as hexfloats,
/// particle states and fault traces as FNV-1a digests of their bit
/// patterns.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "arch/registry.hpp"
#include "npb/parallel.hpp"
#include "treecode/checkpoint.hpp"

namespace bladed {
namespace {

/// Accumulates "name=value;" fields into one comparable line.
class Pin {
 public:
  Pin& f(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return add(name, buf);
  }
  Pin& u(const char* name, std::uint64_t v) {
    return add(name, std::to_string(v));
  }
  Pin& i(const char* name, long long v) {
    return add(name, std::to_string(v));
  }
  Pin& fault_stats(const fault::FaultStats& s) {
    return u("drops", s.drops)
        .u("retransmits", s.retransmits)
        .u("corruptions", s.corruptions)
        .u("crc_rejects", s.crc_rejects)
        .u("msgs_lost", s.messages_lost)
        .u("crashes", s.crashes)
        .u("hangs", s.hangs)
        .u("delays", s.delays)
        .f("delay_s", s.delay_seconds)
        .f("hang_s", s.hang_seconds);
  }
  Pin& ops(const OpCounter& o) {
    return u("fadd", o.fadd)
        .u("fmul", o.fmul)
        .u("fdiv", o.fdiv)
        .u("fsqrt", o.fsqrt)
        .u("iop", o.iop)
        .u("branch", o.branch)
        .u("load", o.load)
        .u("store", o.store);
  }
  [[nodiscard]] const std::string& str() const { return s_; }

 private:
  Pin& add(const char* name, const std::string& v) {
    s_ += name;
    s_ += '=';
    s_ += v;
    s_ += ';';
    return *this;
  }
  std::string s_;
};

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h_ = (h_ ^ b[k]) * 0x100000001b3ULL;
    }
  }
  void doubles(const std::vector<double>& v) {
    bytes(v.data(), v.size() * sizeof(double));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const treecode::ParticleSet& p) {
  Fnv h;
  for (const auto* v : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.m}) {
    h.doubles(*v);
  }
  return h.value();
}

std::uint64_t digest(const std::vector<fault::ExecutedFault>& trace) {
  Fnv h;
  for (const fault::ExecutedFault& e : trace) {
    const int fields[4] = {static_cast<int>(e.action), e.node, e.peer,
                           e.attempt};
    h.bytes(&e.time, sizeof e.time);
    h.bytes(fields, sizeof fields);
  }
  return h.value();
}

Pin pin(const treecode::ParallelResult& r) {
  Pin p;
  p.f("elapsed", r.elapsed_seconds)
      .f("compute", r.compute_seconds)
      .f("gflops", r.sustained_gflops)
      .f("mflops_proc", r.mflops_per_proc)
      .u("flops", r.total_flops)
      .u("interactions", r.interactions)
      .u("bytes", r.bytes)
      .u("messages", r.messages)
      .f("kinetic", r.kinetic)
      .f("potential", r.potential)
      .u("particles", r.particles_out.size())
      .u("state", digest(r.particles_out));
  return p;
}

std::string pin(const treecode::FtResult& r) {
  Pin p = pin(r.result);
  p.i("attempts", r.attempts)
      .i("restarts", r.restarts)
      .i("checkpoints", r.checkpoints)
      .i("resumed_from", r.resumed_from_step)
      .i("final_ranks", r.final_ranks)
      .f("total", r.total_virtual_seconds)
      .f("lost", r.lost_virtual_seconds)
      .fault_stats(r.fault_stats)
      .u("trace_len", r.fault_trace.size())
      .u("trace", digest(r.fault_trace));
  std::string failed;
  for (int n : r.failed_nodes) failed += std::to_string(n) + ",";
  return p.str() + "failed=" + failed + ";";
}

Pin pin(const npb::ParallelEpResult& r) {
  Pin p;
  p.f("sx", r.global.sx).f("sy", r.global.sy);
  for (std::uint64_t q : r.global.q) p.u("q", q);
  p.u("pairs", r.global.pairs)
      .u("accepted", r.global.accepted)
      .ops(r.global.ops)
      .f("elapsed", r.elapsed_seconds)
      .f("compute", r.compute_seconds)
      .u("bytes", r.bytes)
      .u("messages", r.messages);
  return p;
}

Pin pin(const npb::ParallelIsResult& r) {
  Pin p;
  p.u("keys", r.keys)
      .i("sorted", r.globally_sorted)
      .i("perm", r.ranks_are_permutation)
      .f("elapsed", r.elapsed_seconds)
      .f("compute", r.compute_seconds)
      .u("bytes", r.bytes)
      .u("messages", r.messages);
  return p;
}

std::string pin(Pin p, const npb::NpbFtReport& ft) {
  p.i("attempts", ft.attempts)
      .i("restarts", ft.restarts)
      .i("checkpoints", ft.checkpoints)
      .i("resumed_from", ft.resumed_from)
      .f("total", ft.total_virtual_seconds)
      .f("lost", ft.lost_virtual_seconds)
      .fault_stats(ft.fault_stats);
  return p.str();
}

treecode::ParallelConfig nbody_base(int host_threads) {
  treecode::ParallelConfig base;
  base.ranks = 6;
  base.particles = 240;
  base.steps = 4;
  base.seed = 11;
  base.cpu = &arch::tm5600_633();
  base.host_threads = host_threads;
  return base;
}

treecode::FtConfig nbody_ft(int host_threads) {
  treecode::FtConfig ft;
  ft.base = nbody_base(host_threads);
  ft.checkpoint_every = 2;
  ft.restart_penalty_seconds = 0.5;
  return ft;
}

npb::NpbFaultConfig npb_ft(int host_threads) {
  npb::NpbFaultConfig nf;
  nf.base.ranks = 4;
  nf.base.cpu = &arch::tm5600_633();
  nf.base.host_threads = host_threads;
  nf.restart_penalty_seconds = 0.1;
  return nf;
}

/// Every pin holds at any host thread count (the engine's bit-identity
/// contract), so each runs serialized and on three host workers.
class NbodyPin : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] treecode::ParallelConfig base() const {
    return nbody_base(GetParam());
  }
  [[nodiscard]] treecode::FtConfig ft() const { return nbody_ft(GetParam()); }
  /// The fault-free run the crash times are scaled from (pinned itself by
  /// NbodyPin.FaultFree).
  [[nodiscard]] double ref_elapsed() const {
    return treecode::run_parallel_nbody(base()).elapsed_seconds;
  }
};

class NpbPin : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] npb::NpbFaultConfig ft() const { return npb_ft(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(HostThreads, NbodyPin, ::testing::Values(1, 3, 2, 8));
INSTANTIATE_TEST_SUITE_P(HostThreads, NpbPin, ::testing::Values(1, 3, 2, 8));

TEST_P(NbodyPin, FaultFree) {
  EXPECT_EQ(pin(treecode::run_parallel_nbody(base())).str(),
            "elapsed=0x1.b070ddb8f2d3ap-6;compute=0x1.af804ea36bc14p-7;"
            "gflops=0x1.4be4e28931c93p-2;mflops_proc=0x1.b0275c4d4e28bp+5;"
            "flops=8554731;interactions=179978;bytes=215520;messages=320;"
            "kinetic=0x1.3f120ef233c39p-3;potential=-0x1.34af9e4370ff4p-2;"
            "particles=240;state=5582405345348949100;");
}

TEST_P(NbodyPin, CleanFtRun) {
  EXPECT_EQ(pin(treecode::run_parallel_nbody_ft(ft())),
            "elapsed=0x1.c596dfab3b5bdp-6;compute=0x1.b34351c2daf24p-7;"
            "gflops=0x1.3c6b6c3433f8p-2;mflops_proc=0x1.9c0134e3f9004p+5;"
            "flops=8554731;interactions=179978;bytes=219360;messages=320;"
            "kinetic=0x1.3f120ef233c39p-3;potential=-0x1.34af9e4370ff4p-2;"
            "particles=240;state=5582405345348949100;attempts=1;restarts=0;"
            "checkpoints=1;resumed_from=-1;final_ranks=6;"
            "total=0x1.c596dfab3b5bdp-6;lost=0x0p+0;drops=0;retransmits=0;"
            "corruptions=0;crc_rejects=0;msgs_lost=0;crashes=0;hangs=0;"
            "delays=0;delay_s=0x0p+0;hang_s=0x0p+0;trace_len=0;"
            "trace=14695981039346656037;failed=;");
}

TEST_P(NbodyPin, ReplaceAfterCrashWithLinkFaults) {
  const double t = ref_elapsed();
  treecode::FtConfig cfg = ft();
  cfg.schedule.link_drop(-1, -1, 0.0, 0.3 * t, 0.15)
      .corrupt(-1, -1, 0.0, 0.3 * t, 0.10)
      .crash(3, 0.6 * t);
  EXPECT_EQ(pin(treecode::run_parallel_nbody_ft(cfg)),
            "elapsed=0x1.c596dfab3b5bdp-6;compute=0x1.b34351c2daf24p-7;"
            "gflops=0x1.3c6b6c3433f8p-2;mflops_proc=0x1.9c0134e3f9004p+5;"
            "flops=8554731;interactions=179978;bytes=219360;messages=320;"
            "kinetic=0x1.3f120ef233c39p-3;potential=-0x1.34af9e4370ff4p-2;"
            "particles=240;state=5582405345348949100;attempts=2;restarts=1;"
            "checkpoints=1;resumed_from=0;final_ranks=6;"
            "total=0x1.986f1b09af5b2p-1;lost=0x1.8a42640c55804p-1;drops=45;"
            "retransmits=45;corruptions=5;crc_rejects=5;msgs_lost=5;"
            "crashes=1;hangs=0;delays=0;delay_s=0x0p+0;hang_s=0x0p+0;"
            "trace_len=101;trace=12779862086837659949;failed=3,;");
}

TEST_P(NbodyPin, DegradeAfterCrash) {
  treecode::FtConfig cfg = ft();
  cfg.schedule.crash(2, 0.5 * ref_elapsed());
  cfg.on_node_loss = treecode::NodeLossPolicy::kDegrade;
  EXPECT_EQ(pin(treecode::run_parallel_nbody_ft(cfg)),
            "elapsed=0x1.d7f1b1b67e833p-6;compute=0x1.0ae05eee0f4d2p-6;"
            "gflops=0x1.2900c0bf98e67p-2;mflops_proc=0x1.d0112d2b5ee82p+5;"
            "flops=8354711;interactions=179978;bytes=172048;messages=216;"
            "kinetic=0x1.3f120ef233c38p-3;potential=-0x1.34af9e4370ff4p-2;"
            "particles=240;state=8574858069471487552;attempts=2;restarts=1;"
            "checkpoints=1;resumed_from=0;final_ranks=5;"
            "total=0x1.16990655bdaa5p-1;lost=0x1.07d978c809b63p-1;drops=0;"
            "retransmits=0;corruptions=0;crc_rejects=0;msgs_lost=0;"
            "crashes=1;hangs=0;delays=0;delay_s=0x0p+0;hang_s=0x0p+0;"
            "trace_len=1;trace=5329235052130643635;failed=2,;");
}

TEST_P(NbodyPin, SnapshotFilesAfterCrash) {
  namespace fs = std::filesystem;
  // One directory per host-thread count: ctest runs the instances at once.
  const fs::path dir = fs::temp_directory_path() /
                       ("bladed_pin_snapshots_ht" + std::to_string(GetParam()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  treecode::FtConfig cfg = ft();
  cfg.snapshot_dir = dir.string();
  cfg.schedule.crash(3, 0.85 * ref_elapsed());
  EXPECT_EQ(pin(treecode::run_parallel_nbody_ft(cfg)),
            "elapsed=0x1.0d07d6b093eecp-6;compute=0x1.02cee6f63df6bp-7;"
            "gflops=0x1.401320c84f43p-2;mflops_proc=0x1.a0c392af7c89fp+5;"
            "flops=5132550;interactions=107979;bytes=132240;messages=200;"
            "kinetic=0x1.3f120ef233c39p-3;potential=-0x1.34af9e4370ff4p-2;"
            "particles=240;state=5582405345348949100;attempts=2;restarts=1;"
            "checkpoints=1;resumed_from=2;final_ranks=6;"
            "total=0x1.966c499325217p-1;lost=0x1.85ac379ca471ap-1;drops=24;"
            "retransmits=21;corruptions=0;crc_rejects=0;msgs_lost=3;"
            "crashes=1;hangs=0;delays=0;delay_s=0x0p+0;hang_s=0x0p+0;"
            "trace_len=49;trace=3556444904574350211;failed=3,;");
  fs::remove_all(dir);
}

TEST_P(NpbPin, EpFaultFree) {
  EXPECT_EQ(pin(npb::run_parallel_ep(ft().base, 14)).str(),
            "sx=0x1.f62c6f1d2a18bp+6;sy=0x1.0ab99fbd162abp+7;q=6050;q=5583;"
            "q=1103;q=62;q=1;q=0;q=0;q=0;q=0;q=0;pairs=16384;"
            "accepted=12799;fadd=74750;fmul=136701;fdiv=12799;fsqrt=25598;"
            "iop=149500;branch=32768;load=12799;store=12799;"
            "elapsed=0x1.cdd0d18a9a9a2p-9;compute=0x1.4ad4cc5ae8c97p-11;"
            "bytes=2412;messages=30;");
}

TEST_P(NpbPin, EpFtClean) {
  const npb::ParallelEpFtResult r = npb::run_parallel_ep_ft(ft(), 14, 4);
  EXPECT_EQ(pin(pin(r.ep), r.ft),
            "sx=0x1.f62c6f1d2a192p+6;sy=0x1.0ab99fbd162b6p+7;q=6050;q=5583;"
            "q=1103;q=62;q=1;q=0;q=0;q=0;q=0;q=0;pairs=16384;"
            "accepted=12799;fadd=74750;fmul=136701;fdiv=12799;fsqrt=25598;"
            "iop=149500;branch=32768;load=12799;store=12799;"
            "elapsed=0x1.5973bd42e415p-8;compute=0x1.4ad4cc5ae8c98p-11;"
            "bytes=2772;messages=30;attempts=1;restarts=0;checkpoints=3;"
            "resumed_from=-1;total=0x1.5973bd42e415p-8;lost=0x0p+0;drops=0;"
            "retransmits=0;corruptions=0;crc_rejects=0;msgs_lost=0;"
            "crashes=0;hangs=0;delays=0;delay_s=0x0p+0;hang_s=0x0p+0;");
}

TEST_P(NpbPin, EpFtAfterCrash) {
  npb::NpbFaultConfig nf = ft();
  const double t = npb::run_parallel_ep_ft(nf, 14, 4).ep.elapsed_seconds;
  nf.schedule.crash(1, 0.5 * t);
  const npb::ParallelEpFtResult r = npb::run_parallel_ep_ft(nf, 14, 4);
  EXPECT_EQ(pin(pin(r.ep), r.ft),
            "sx=0x1.f62c6f1d2a192p+6;sy=0x1.0ab99fbd162b6p+7;q=6050;q=5583;"
            "q=1103;q=62;q=1;q=0;q=0;q=0;q=0;q=0;pairs=16384;"
            "accepted=12799;fadd=74750;fmul=136701;fdiv=12799;fsqrt=25598;"
            "iop=149500;branch=32768;load=12799;store=12799;"
            "elapsed=0x1.953b1be123c63p-9;compute=0x1.4bd03d23d05fep-13;"
            "bytes=2772;messages=30;attempts=2;restarts=1;checkpoints=3;"
            "resumed_from=3;total=0x1.7080d6e73b4dbp-2;"
            "lost=0x1.6b1b07f22fbd4p-2;drops=8;retransmits=7;corruptions=0;"
            "crc_rejects=0;msgs_lost=1;crashes=1;hangs=0;delays=0;"
            "delay_s=0x0p+0;hang_s=0x0p+0;");
}

TEST_P(NpbPin, IsFaultFree) {
  EXPECT_EQ(pin(npb::run_parallel_is(ft().base, 12, 9, 4)).str(),
            "keys=4096;sorted=1;perm=1;elapsed=0x1.cd89d46c93ff4p-8;"
            "compute=0x1.3c76e3a772a1p-11;bytes=101088;messages=48;");
}

TEST_P(NpbPin, IsFtClean) {
  const npb::ParallelIsFtResult r = npb::run_parallel_is_ft(ft(), 12, 9, 4);
  EXPECT_EQ(pin(pin(r.is), r.ft),
            "keys=4096;sorted=1;perm=1;elapsed=0x1.1f76bb5feaf64p-7;"
            "compute=0x1.3c76e3a772a1p-11;bytes=101664;messages=48;"
            "attempts=1;restarts=0;checkpoints=3;resumed_from=-1;"
            "total=0x1.1f76bb5feaf64p-7;lost=0x0p+0;drops=0;retransmits=0;"
            "corruptions=0;crc_rejects=0;msgs_lost=0;crashes=0;hangs=0;"
            "delays=0;delay_s=0x0p+0;hang_s=0x0p+0;");
}

TEST_P(NpbPin, IsFtAfterCrash) {
  npb::NpbFaultConfig nf = ft();
  const double t = npb::run_parallel_is(nf.base, 12, 9, 4).elapsed_seconds;
  nf.schedule.crash(2, 0.5 * t);
  const npb::ParallelIsFtResult r = npb::run_parallel_is_ft(nf, 12, 9, 4);
  EXPECT_EQ(pin(pin(r.is), r.ft),
            "keys=4096;sorted=1;perm=1;elapsed=0x1.a8d33dbe51afep-8;"
            "compute=0x1.bf378b3b6725ep-12;bytes=76248;messages=36;"
            "attempts=2;restarts=1;checkpoints=3;resumed_from=1;"
            "total=0x1.c471d98690fb6p-4;lost=0x1.a083021a939c9p-4;drops=8;"
            "retransmits=7;corruptions=0;crc_rejects=0;msgs_lost=1;"
            "crashes=1;hangs=0;delays=0;delay_s=0x0p+0;hang_s=0x0p+0;");
}

}  // namespace
}  // namespace bladed
