#!/usr/bin/env bash
# Sanitizer and model-checker gates. CI entry point; also runnable locally.
#
#   check.sh [asan|tsan|mc|serve|prove|jit|wcet|all]   (default: asan)
#
# asan: build the whole tree with ASan + UBSan and run the full tier-1 test
# suite (plus the bladed-lint / bladed-commcheck ctest entries) under both.
#
# serve: the serving-layer gate under ASan + UBSan — test_serve (live-server
# integration + deterministic chaos replay), the JobPool suite it rides on,
# and the serve_saturation acceptance bench. The server's event loop, the
# worker pool handshake and the loadgen all juggle raw fds and threads;
# this stage is what proves no lifetime bug hides behind a green test.
#
# tsan: build with ThreadSanitizer and run the *threaded* suites — the
# simnet engine, the fault-injection layer and the commcheck recorder all
# exercise real rank threads, so TSan is the gate that proves the engine
# lock discipline (every op_* and recorder hook under ClusterImpl::mu).
# test_cms rides along for its concurrent-engines case: the CMS translator
# keeps per-thread scratch and a Translator may be shared across threads.
# Selected via the ctest labels bladed_add_test attaches per binary.
#
# prove: the analyzer gate under ASan + UBSan — test_prove (symbolic
# addressing, alias oracle, trip-count bounds, region licenses, golden
# reports), the 1000-program soundness fuzzer that cross-checks every
# proven access against the interpreter's dynamic trace, the optimizer
# suites that consume the licenses, and both bladed-lint --prove modes
# (corpus proof + the seeded unsafe-program refutations). The analyzer
# hands out licenses other layers delete code on the strength of, so its
# own memory discipline runs with sanitizers watching.
#
# jit: the tier-3 gate under ASan + UBSan — test_jit (promotion, demotion,
# license refusal, eviction invalidation, budget-exact stops, replayed
# cache accounting), the 1000-program differential fuzzer that asserts
# bit-identical state and morphing stats against the two-tier engine, and
# bladed-lint --jit (every licensed corpus region must lower). The tier
# executes raw host memory ops with bounds checks elided on the strength
# of prove licenses, so its buffers and dispatch loop run with sanitizers
# watching.
#
# wcet: the cycle-certifier gate under ASan + UBSan — test_wcet (corpus
# certification, golden-kernel precision, opt cost-gating, certified JIT
# budgets), the 1000-program soundness fuzzer that brackets the real
# engine's total_cycles at every tier and opt level (plus the JobPool
# pass), and both bladed-lint --wcet modes (corpus certification + the
# unbounded-shape refutations). Serve admission control refuses requests
# on the strength of these bounds, so the analyzer's own memory
# discipline runs with sanitizers watching.
#
# mc: build with -DBLADED_MC=ON (the mc:: shims resolve to the checker-
# routed classes instead of the std types) and run the bladed-mc gates —
# selftest (every seeded bug refuted, every shipped protocol verified
# clean by exhaustive DPOR exploration) plus the per-protocol proofs —
# and the engine suites (test_mc/test_simnet/test_hostperf), proving the
# checked build still runs the real engine via the shims' std fallback.
#
# Separate build dirs keep the sanitized objects from polluting the normal
# build (and TSan's runtime cannot coexist with ASan's).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE=${1:-asan}
JOBS=${JOBS:-$(nproc)}

run_asan() {
  local dir=${BUILD_DIR:-build-sanitize}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_ASAN=ON \
    -DBLADED_UBSAN=ON
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  echo "check.sh: tier-1 tests clean under ASan+UBSan"
}

run_serve() {
  # Same flags as run_asan, so the two stages can share one build dir (CI
  # gives each its own cache; locally the second run is incremental).
  local dir=${SERVE_BUILD_DIR:-build-sanitize}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_ASAN=ON \
    -DBLADED_UBSAN=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target test_serve test_hostperf serve_saturation bladed-serve bladed-load
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(test_serve|test_hostperf|bench_serve)$'
  echo "check.sh: serving layer clean under ASan+UBSan (tests + saturation bench)"
}

run_tsan() {
  local dir=${TSAN_BUILD_DIR:-build-tsan}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_TSAN=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target test_simnet test_fault test_commcheck test_treecode test_npb \
    test_hostperf test_cms bladed-commcheck bladed-lint
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L 'test_simnet|test_fault|test_commcheck|test_treecode|test_npb|test_hostperf|test_cms|commcheck|lint'
  echo "check.sh: threaded suites clean under TSan"
}

run_prove() {
  # Same flags as run_asan, so the stages can share one build dir (CI gives
  # each its own cache; locally the second run is incremental).
  local dir=${PROVE_BUILD_DIR:-build-sanitize}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_ASAN=ON \
    -DBLADED_UBSAN=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target test_prove test_prove_fuzz test_opt test_opt_fuzz bladed-lint
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(test_prove|test_prove_fuzz|test_opt|test_opt_fuzz)$'
  ctest --test-dir "${dir}" --output-on-failure \
    -R '^(lint_prove|lint_prove_selftest)$'
  echo "check.sh: analyzer + licensed passes clean under ASan+UBSan"
}

run_jit() {
  # Same flags as run_asan, so the stages can share one build dir (CI gives
  # each its own cache; locally the second run is incremental).
  local dir=${JIT_BUILD_DIR:-build-sanitize}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_ASAN=ON \
    -DBLADED_UBSAN=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target test_jit test_jit_fuzz bladed-lint
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(test_jit|test_jit_fuzz)$'
  ctest --test-dir "${dir}" --output-on-failure -R '^lint_jit$'
  echo "check.sh: tier-3 JIT clean under ASan+UBSan"
}

run_wcet() {
  # Same flags as run_asan, so the stages can share one build dir (CI gives
  # each its own cache; locally the second run is incremental).
  local dir=${WCET_BUILD_DIR:-build-sanitize}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_ASAN=ON \
    -DBLADED_UBSAN=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target test_wcet test_wcet_fuzz bladed-lint
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(test_wcet|test_wcet_fuzz)$'
  ctest --test-dir "${dir}" --output-on-failure \
    -R '^(lint_wcet|lint_wcet_selftest)$'
  echo "check.sh: cycle certifier clean under ASan+UBSan"
}

run_mc() {
  local dir=${MC_BUILD_DIR:-build-mc}
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBLADED_MC=ON
  cmake --build "${dir}" -j "${JOBS}" \
    --target bladed-mc test_mc test_simnet test_hostperf
  # Anchored: a bare 'mc' would also select the commcheck-labeled tests.
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(mc|test_mc|test_simnet|test_hostperf)$'
  echo "check.sh: mc protocol proofs + engine suites clean under BLADED_MC"
}

case "${STAGE}" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  mc) run_mc ;;
  serve) run_serve ;;
  prove) run_prove ;;
  jit) run_jit ;;
  wcet) run_wcet ;;
  all) run_asan; run_tsan; run_mc; run_serve; run_prove; run_jit; run_wcet ;;
  *) echo "usage: check.sh [asan|tsan|mc|serve|prove|jit|wcet|all]" >&2; exit 2 ;;
esac
