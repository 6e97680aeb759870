#!/usr/bin/env bash
# Sanitizer and model-checker gates. CI entry point; also runnable locally.
#
#   check.sh [asan|tsan|mc|all]   (default: asan)
#
# asan: build the whole tree with ASan + UBSan and run the full tier-1 test
# suite under both — every ctest entry, so the serving layer (live-server
# integration, chaos replay, JobPool, serve_saturation_quick), the prove /
# opt / jit / wcet suites with their 1000-program fuzzers, and the
# bladed-lint / bladed-commcheck entries all run sanitized in one build.
#
# tsan: build with ThreadSanitizer and run the *threaded* suites — the
# simnet engine, the fault-injection layer and the commcheck recorder all
# exercise real rank threads, so TSan is the gate that proves the engine
# lock discipline (every op_* and recorder hook under ClusterImpl::mu).
# test_cms rides along for its concurrent-engines case: the CMS translator
# keeps per-thread scratch and a Translator may be shared across threads.
# Selected via the ctest labels bladed_add_test attaches per binary.
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
  all) run_asan; run_tsan; run_mc ;;
  *) echo "usage: check.sh [asan|tsan|mc|all]" >&2; exit 2 ;;
esac
