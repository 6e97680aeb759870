/// serve_saturation: the serving layer's acceptance bench, runnable
/// standalone and as a ctest entry (registered in bench.cmake).
///
/// Four phases against an in-process Server:
///
///  1. single   — one end-to-end request; its virtual seconds and
///                interaction count are deterministic and gate via
///                bench_gate.py, the request latency is the wall metric.
///  2. certify  — the WCET admission path on a CMS workload: a request
///                whose certified worst case provably exceeds its deadline
///                is refused 422 *before* any JobPool submission, and the
///                admitted twin's measured cycles land inside the
///                certified bounds (both deterministic, gated exactly).
///  3. wave     — the deterministic saturated chaos wave: the pool is
///                provably saturated (sequenced via /stats), then a seeded
///                mix of garbage / stalls / drops / well-formed requests
///                runs against it. The shed and degraded counts are a pure
///                function of the seed; the bench asserts they match the
///                prediction AND replay identically on a second run.
///  4. load2x   — open-loop chaos load at 2x the measured sustainable
///                rate: the server must shed or degrade (never 5xx, never
///                reset a client) and end healthy with an empty pool.
///
/// Exit status is the acceptance verdict: nonzero on any violated
/// invariant, so the ctest entry fails loudly.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "hostperf/benchjson.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tests/serve/test_client.hpp"

namespace {

using namespace bladed;
using namespace bladed::serve;
using namespace bladed::serve::testing;
using Clock = std::chrono::steady_clock;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

template <typename Cond>
[[nodiscard]] bool poll_until(Cond&& cond, double timeout_seconds = 30.0) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  while (!cond()) {
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

[[nodiscard]] ServerOptions serve_options() {
  ServerOptions so;
  so.workers = 2;
  so.queue_capacity = 4;
  so.read_timeout_seconds = 0.3;
  so.drain_timeout_seconds = 0.5;
  return so;
}

/// Phase 1: one warm end-to-end request; deterministic sim metrics.
void bench_single(hostperf::BenchReport& report) {
  Server server(serve_options());
  server.start();
  SimBody body;
  body.seed = 3;
  body.ranks = 4;
  body.particles = 2000;
  body.steps = 2;

  hostperf::WallTimer timer;
  const Reply r = roundtrip(server.port(), post_simulate(body.str()));
  const double wall = timer.seconds();
  check(r.status == 200, "single: request answered 200");
  double virtual_seconds = 0.0, interactions = 0.0;
  if (r.status == 200) {
    const Json j = Json::parse(r.body);
    virtual_seconds = j.get("result").get("elapsed_seconds").as_number();
    interactions = j.get("result").get("interactions").as_number();
    check(j.get("mode").as_string() == "fresh", "single: served fresh");
  }
  server.stop();
  report.add({"serve.single", wall, virtual_seconds, interactions, 0.0});
  std::printf("single: %.1f ms wall, %.4f virtual s, %.0f interactions\n\n",
              wall * 1e3, virtual_seconds, interactions);
}

/// Phase 2: WCET admission control on a CMS workload. The certified bound
/// and the measured cycles are both pure functions of the program, so the
/// row gates exactly (wcet-style) via bench_gate.py.
void bench_certify(hostperf::BenchReport& report) {
  Server server(serve_options());
  server.start();
  const std::uint16_t port = server.port();

  const auto cms_body = [](int steps, double deadline_ms) {
    Json b = Json::object();
    b.set("workload", "cms")
        .set("program", "naive_daxpy_n256")
        .set("opt_level", 2)
        .set("steps", steps)
        .set("allow_degraded", false);
    if (deadline_ms > 0.0) b.set("deadline_ms", deadline_ms);
    return b.dump();
  };

  // Provably over deadline: refused before the pool ever sees it.
  const Reply over = roundtrip(port, post_simulate(cms_body(50, 0.001)));
  check(over.status == 422, "certify: impossible deadline refused 422");
  const Json s0 = fetch_stats(port);
  check(counter(s0, "rejected_over_deadline") == 1,
        "certify: rejection counted in rejected_over_deadline");
  check(counter(s0, "admitted") == 0 && gauge(s0, "pool_active") == 0,
        "certify: zero JobPool submissions for the refused request");

  // The same workload with room to run: admitted, and the measured cycles
  // must land inside the certified bounds the server priced it with.
  hostperf::WallTimer timer;
  const Reply ok = roundtrip(port, post_simulate(cms_body(50, 0.0)));
  const double wall = timer.seconds();
  check(ok.status == 200, "certify: same workload with headroom answers 200");
  double cycles = 0.0, upper = 0.0, virtual_seconds = 0.0;
  if (ok.status == 200) {
    const Json r = Json::parse(ok.body).get("result");
    cycles = r.get("total_cycles").as_number();
    upper = r.get("certified_upper_cycles").as_number();
    virtual_seconds = r.get("elapsed_seconds").as_number();
    check(r.get("certified_lower_cycles").as_number() <= cycles &&
              cycles <= upper,
          "certify: measured cycles inside the certified bounds");
  }
  server.stop();
  report.add({"serve.certify", wall, virtual_seconds, cycles, upper});
  std::printf("certify: 422 before submission, admitted run %.0f cycles "
              "<= certified %.0f (%.1f ms)\n\n",
              cycles, upper, wall * 1e3);
}

constexpr int kWaveArrivals = 32;
constexpr std::uint64_t kWaveSeed = 42;

[[nodiscard]] LoadOptions wave_mix() {
  LoadOptions lo;
  lo.seed = kWaveSeed;
  lo.p_garbage = 0.25;
  lo.p_stall = 0.15;
  lo.p_drop = 0.15;
  return lo;
}

struct WaveCounts {
  std::uint64_t shed = 0, degraded = 0, parse_errors = 0, read_timeouts = 0;
  bool operator==(const WaveCounts&) const = default;
};

[[nodiscard]] WaveCounts predict_wave() {
  WaveCounts w;
  const LoadOptions lo = wave_mix();
  for (int i = 0; i < kWaveArrivals; ++i) {
    switch (chaos_for(lo, static_cast<std::uint64_t>(i))) {
      case ChaosKind::kGarbage: ++w.parse_errors; break;
      case ChaosKind::kStall: ++w.read_timeouts; break;
      case ChaosKind::kDrop: break;
      case ChaosKind::kNone: ++(i % 2 == 0 ? w.degraded : w.shed); break;
    }
  }
  return w;
}

/// Phase 2 body: one saturated wave on a fresh server; see tests/serve/
/// chaos_test.cpp for the sequencing rationale.
[[nodiscard]] WaveCounts run_wave() {
  ServerOptions so = serve_options();
  so.workers = 1;
  so.queue_capacity = 1;
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();

  SimBody long_job;
  long_job.ranks = 8;
  long_job.particles = 20000;
  long_job.steps = 50;
  long_job.deadline_ms = 30000.0;
  long_job.seed = 9001;
  const int fd1 = dial(port);
  check(fd1 >= 0 && send_all(fd1, post_simulate(long_job.str())),
        "wave: first long job submitted");
  check(poll_until([&] {
          const Json s = fetch_stats(port);
          return counter(s, "admitted") == 1u && gauge(s, "pool_active") == 1u;
        }),
        "wave: worker holds the first long job");
  long_job.seed = 9002;
  const int fd2 = dial(port);
  check(fd2 >= 0 && send_all(fd2, post_simulate(long_job.str())),
        "wave: second long job submitted");
  check(poll_until(
            [&] { return counter(fetch_stats(port), "admitted") == 2u; }),
        "wave: queue slot holds the second long job");

  const LoadOptions lo = wave_mix();
  const std::string half_request = post_simulate(SimBody{}.str()).substr(0, 40);
  std::vector<int> stalled;
  for (int i = 0; i < kWaveArrivals; ++i) {
    switch (chaos_for(lo, static_cast<std::uint64_t>(i))) {
      case ChaosKind::kGarbage:
        (void)roundtrip(port, "<<chaos garbage>>\r\n\r\n");
        break;
      case ChaosKind::kStall: {
        const int fd = dial(port);
        if (fd >= 0) {
          (void)send_all(fd, half_request);
          stalled.push_back(fd);
        }
        break;
      }
      case ChaosKind::kDrop: {
        const int fd = dial(port);
        if (fd >= 0) {
          (void)send_all(fd, half_request);
          ::close(fd);
        }
        break;
      }
      case ChaosKind::kNone: {
        SimBody b;
        b.seed = 1000 + static_cast<std::uint64_t>(i);
        b.allow_degraded = (i % 2 == 0);
        (void)roundtrip(port, post_simulate(b.str()));
        break;
      }
    }
  }
  for (const int fd : stalled) {
    (void)read_to_eof(fd);  // collect the 408s
    ::close(fd);
  }

  const WaveCounts predicted = predict_wave();
  (void)poll_until([&] {
    return counter(fetch_stats(port), "read_timeouts") ==
           predicted.read_timeouts;
  });
  WaveCounts w;
  const Json s = fetch_stats(port);
  w.shed = counter(s, "shed");
  w.degraded = counter(s, "degraded_approx");
  w.parse_errors = counter(s, "parse_errors");
  w.read_timeouts = counter(s, "read_timeouts");
  check(counter(s, "internal_errors") == 0, "wave: no internal errors");
  check(roundtrip(port, get_request("/healthz")).status == 200,
        "wave: server healthy after the wave");
  ::close(fd1);
  ::close(fd2);
  server.stop();
  return w;
}

void bench_wave(hostperf::BenchReport& report) {
  const WaveCounts predicted = predict_wave();
  hostperf::WallTimer timer;
  const WaveCounts first = run_wave();
  const double wall = timer.seconds();
  const WaveCounts replay = run_wave();
  check(first == predicted,
        "wave: shed/degraded/parse/timeout counts match the seed's "
        "prediction");
  check(replay == first, "wave: same seed replays to identical counts");
  report.add({"serve.wave", wall, 0.0, static_cast<double>(first.degraded),
              static_cast<double>(first.shed)});
  std::printf(
      "wave: %d arrivals -> %llu shed, %llu degraded, %llu parse errors, "
      "%llu read timeouts (%.1f ms)\n\n",
      kWaveArrivals, static_cast<unsigned long long>(first.shed),
      static_cast<unsigned long long>(first.degraded),
      static_cast<unsigned long long>(first.parse_errors),
      static_cast<unsigned long long>(first.read_timeouts), wall * 1e3);
}

/// Phase 3: open-loop chaos load at 2x the measured sustainable rate.
void bench_load2x(hostperf::BenchReport& report, bool quick) {
  ServerOptions so = serve_options();
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();

  // Measure the sustainable rate from warm serial requests (force=true so
  // each probe reruns instead of hitting this cache row). The fastest of
  // three sets the rate: a probe slowed by other work on the host would
  // understate capacity and leave the "2x" load below it.
  SimBody probe;
  probe.seed = 500;
  probe.ranks = 4;
  probe.particles = 2000;
  probe.steps = 2;
  (void)roundtrip(port, post_simulate(probe.str()));  // warm-up
  probe.force = true;
  bool probes_ok = true;
  double latency = 0.0;
  for (int i = 0; i < 3; ++i) {
    hostperf::WallTimer probe_timer;
    const Reply pr = roundtrip(port, post_simulate(probe.str()));
    const double t = probe_timer.seconds();
    probes_ok = probes_ok && pr.status == 200;
    latency = i == 0 ? t : std::min(latency, t);
  }
  check(probes_ok, "load2x: probe request answered 200");
  const double sustainable = static_cast<double>(so.workers) / latency;

  LoadOptions lo;
  lo.port = port;
  lo.rps = 2.0 * sustainable;
  lo.duration_seconds =
      std::min(quick ? 2.0 : 5.0, 400.0 / std::max(lo.rps, 1.0));
  lo.seed = 7;
  lo.p_garbage = 0.10;
  lo.p_stall = 0.05;
  lo.p_drop = 0.05;
  lo.stall_seconds = 0.6;
  lo.client_timeout_seconds = 60.0;
  // A distinct config per request: a repeated one would be answered from
  // the result cache and the 2x load would never reach the worker pool.
  lo.body = [](std::uint64_t i) {
    SimBody b;
    b.seed = i + 1;
    b.ranks = 4;
    b.particles = 2000;
    b.steps = 2;
    return b.str();
  };
  std::printf("load2x: sustainable ~%.0f rps (probe %.1f ms), driving %.0f "
              "rps for %.1f s with chaos\n",
              sustainable, latency * 1e3, lo.rps, lo.duration_seconds);
  const std::uint64_t hits_before =
      counter(fetch_stats(port), "cache_hits");
  const LoadReport rep = run_load(lo);

  check(rep.completed == rep.ok + rep.shed + rep.timeouts + rep.errors_4xx +
                             rep.errors_5xx,
        "load2x: every completed exchange classified exactly once");
  check(rep.errors_5xx == 0, "load2x: no 5xx under overload");
  check(rep.resets == 0, "load2x: no connection reset without a response");
  check(rep.ok > 0, "load2x: some requests still answered 200");
  check(rep.shed + rep.degraded + rep.timeouts > 0,
        "load2x: overload visibly shed or degraded");
  check(counter(fetch_stats(port), "cache_hits") == hits_before,
        "load2x: no load request answered from the result cache");
  check(roundtrip(port, get_request("/healthz")).status == 200,
        "load2x: server healthy after the run");
  check(poll_until(
            [&] { return gauge(fetch_stats(port), "pool_in_flight") == 0u; }),
        "load2x: no zombie jobs holding worker slots");
  server.stop();

  report.add({"serve.load2x", rep.p99_ms / 1e3, 0.0, 0.0, 0.0});
  std::printf("load2x: %llu ok (%llu degraded, %llu cached), %llu shed, "
              "%llu 504, %llu 4xx; p50 %.0f ms p99 %.0f ms\n\n",
              static_cast<unsigned long long>(rep.ok),
              static_cast<unsigned long long>(rep.degraded),
              static_cast<unsigned long long>(rep.cached),
              static_cast<unsigned long long>(rep.shed),
              static_cast<unsigned long long>(rep.timeouts),
              static_cast<unsigned long long>(rep.errors_4xx), rep.p50_ms,
              rep.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::print_header("serve saturation",
                      "backpressure, chaos determinism, 2x-overload");
  auto report =
      hostperf::BenchReport::from_env("serve_saturation", /*host_threads=*/2);
  bench_single(report);
  bench_certify(report);
  bench_wave(report);
  bench_load2x(report, quick);
  if (g_failures != 0) {
    std::printf("serve_saturation: %d invariant(s) violated\n", g_failures);
    return 1;
  }
  std::printf("serve_saturation: all serving invariants held\n");
  return 0;
}
