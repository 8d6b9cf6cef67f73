#!/usr/bin/env bash
# One-command reproducible CI pass, cheapest-first so broken pushes fail in
# seconds, not minutes:
#
#   1. cflint        static analysis (tools/cflint via scripts/lint.sh):
#                    self-test, then the repo scan
#      loc           code lines (neither blank nor comment-only) of src/ and
#                    each src/<module> (scripts/loc.sh); printed, never fails
#   2. build matrix  asan-ubsan build (the heavier preset compile)
#   3. tsa           Clang -Wthread-safety over the CF_GUARDED_BY/CF_REQUIRES
#                    annotations (compile-only; skipped loudly without clang++)
#   4. tidy          clang-tidy over src/ (skipped loudly when not installed)
#   5. tests         full suite under ASan+UBSan, the served TCP path
#                    (scripts/tcp_smoke.sh) under ASan+UBSan, then the
#                    threaded subset and the served TCP path under TSan
#   6. roundbench    every benchmark workload once at smoke size, with its
#                    correctness checks (clinical-bert-tcp's byte-exact
#                    durability and journal-compaction checks among them)
#
# A subset of scripts/check_all.sh sized for every-push latency.
#
# Usage: scripts/ci.sh [-j N]
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "${SCRIPT_DIR}")"
cd "${REPO_ROOT}"

JOBS="$(nproc 2>/dev/null || echo 2)"
if [ "${1:-}" = "-j" ] && [ -n "${2:-}" ]; then JOBS="$2"; fi

step() { echo; echo "==== $* ===="; }

step "cflint"
"${SCRIPT_DIR}/lint.sh" --self-test
"${SCRIPT_DIR}/lint.sh"

step "code lines (informational, not a gate)"
"${SCRIPT_DIR}/loc.sh" || echo "!! loc.sh failed; continuing"

step "asan-ubsan: build"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"

step "clang thread-safety analysis"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset clang-tsa
  cmake --build --preset clang-tsa -j "${JOBS}"
else
  echo "!! clang++ not installed: SKIPPING thread-safety analysis."
  echo "!! The CF_GUARDED_BY/CF_REQUIRES annotations compile to no-ops under"
  echo "!! GCC, so this machine has NOT verified the locking contracts."
  echo "!! Install clang and rerun, or rely on the TSan stage below for"
  echo "!! dynamic coverage of the same invariants."
fi

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build-release -quiet "src/.*\.cpp$"
  else
    find src -name '*.cpp' -print0 |
      xargs -0 -n 8 clang-tidy -p build-release --quiet
  fi
else
  echo "!! clang-tidy not installed: SKIPPING tidy checks (cflint above"
  echo "!! still enforced; concurrency-* tidy checks were not run)."
fi

step "asan-ubsan: full ctest"
ctest --preset asan-ubsan -j "${JOBS}"

step "asan-ubsan: served TCP path (tcp_federation server + 2 clients)"
"${SCRIPT_DIR}/tcp_smoke.sh" build-asan-ubsan

step "tsan: build + threaded/stress ctest"
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}"
# The threaded surface: the stress suite plus every test that spins up the
# pool, the TCP transport, or a federation. kernels_test is here because a
# GEMM's packed B panel is written by the caller and read by helper chunks;
# its tier cases run at compute budget 4. secure_channel_test seals from
# four threads at once through the process-wide nonce source, and
# poly1305_test covers the AEAD that source feeds. TSAN_OPTIONS from the test
# preset already points at scripts/tsan.supp; export too for direct runs.
export TSAN_OPTIONS="suppressions=${REPO_ROOT}/scripts/tsan.supp:history_size=7"
ctest --preset tsan -j "${JOBS}" -R \
  '^(stress_concurrency_test|parallel_test|kernels_test|thread_pool_test|tcp_test|simulator_test|server_client_test|integration_fl_test|cross_site_test|faults_test|secure_recovery_test|poison_test|trace_test|scale_test|journal_test|crash_recovery_test|jobs_test|secure_channel_test|poly1305_test)$'

step "tsan: served TCP path (each client's run() moves across threads)"
"${SCRIPT_DIR}/tcp_smoke.sh" build-tsan

step "roundbench: smoke every workload"
python3 roundbench/run.py --smoke-all

step "ci pass complete"
