#!/usr/bin/env bash
# Benchmark harness: builds the release preset and records the compute
# backend's numbers to JSON so a PR can show its perf claim instead of
# asserting it.
#
#   BENCH_tensor.json — google-benchmark output of bench_micro_tensor. The
#       GEMM benches carry the thread budget as their second argument
#       (e.g. BM_GemmNN/512/4 = N=512 at 4 compute threads), so one run
#       captures the 1..4-thread scaling curve: items_per_second is the
#       ops/s figure, real_time the wall time per iteration.
#   BENCH_protocol.json — google-benchmark output of bench_micro_flare,
#       stamped with the host context: serialization, SHA-256, seal+open
#       and the envelope AEAD (up to the BERT payload's 9,888,328 float
#       bytes; each crypto row is labelled with the SHA-256 or ChaCha20 and
#       Poly1305 kernels that ran), Poly1305 per kernel, the ChaCha20
#       keystream per kernel and one
#       site's DP and mask filters on the BERT update at compute budgets 1
#       and 4 (labelled with the PRG kernel), FedAvg and TCP round trips.
#   BENCH_models.json — bench_table2_models latencies per model plus the
#       effective thread budget and total wall seconds.
#   BENCH_faults.json — bench_faults rounds/s of an 8-site TCP federation
#       with and without the standard fault plan (10% drop, 10% delay, one
#       disconnect), plus the resulting overhead factor.
#   BENCH_obs.json — bench_trace rounds/s of a clean vs fully traced 8-site
#     TCP federation and the tracing overhead factor (budget 1.05x).
#   BENCH_scale.json — bench_scale rounds/s, peak fd count and peak thread
#       count at 8/64 sites over TCP (epoll reactor) and 64/256 sites in the
#       multiplexed in-process mode (8 pool workers), plus a re-measurement
#       of the faulty-run overhead factor against the 4.16x pre-reactor
#       baseline recorded in BENCH_faults.json.
#   BENCH_privacy.json — host context (cores, ISA, SHA-256 and PRG
#       kernels, build type, git revision), then bench_privacy rounds/s of
#       masked vs unmasked 8-site TCP federations (clean and with one site
#       dropped mid-run, so masked rounds pay the unmask-recovery wave),
#       plus a DP noise grid: final-model RMSE against the clip-only
#       reference and the accountant's epsilon per sigma (-1 encodes
#       infinite spend).
#   BENCH_crash.json — bench_crash rounds/s of an 8-site threaded federation
#       with the round journal off, fsyncing once per round (budget 1.10x
#       against journal-off) and fsyncing every record, plus the replay
#       latency of a coordinator restarted over a mid-round journal holding
#       eight accepted contributions.
#   BENCH_jobs.json — bench_jobs aggregate rounds/s of 1 vs 4 concurrent
#       federated jobs on one coordinator (8 sites each, in-proc transport)
#       with the resulting scaling factor, plus mean admin-console call
#       latency (status/metrics/list) through the sealed line protocol.
#   BENCH_robust.json — bench_poison accuracy + rounds/s for four
#       aggregation configs (FedAvg, FedAvg+validator+quarantine, median,
#       trimmed mean) under every poisoning mode with 1-2 adversaries, plus
#       the validator's measured overhead on a clean round.
#
# Usage: scripts/bench.sh [-j N]
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "${SCRIPT_DIR}")"
cd "${REPO_ROOT}"

JOBS="$(nproc 2>/dev/null || echo 2)"
if [ "${1:-}" = "-j" ] && [ -n "${2:-}" ]; then JOBS="$2"; fi

step() { echo; echo "==== $* ===="; }

step "release: build benches"
cmake --preset release
cmake --build --preset release -j "${JOBS}" \
  --target bench_micro_tensor bench_micro_flare bench_table2_models bench_faults bench_crash bench_jobs bench_privacy bench_poison bench_trace bench_scale

step "tensor microbenchmarks -> BENCH_tensor.json"
./build-release/bench/bench_micro_tensor \
  --benchmark_out="${REPO_ROOT}/BENCH_tensor.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

step "protocol microbenchmarks -> BENCH_protocol.json"
./build-release/bench/bench_micro_flare \
  --benchmark_out="${REPO_ROOT}/BENCH_protocol.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

step "model latencies -> BENCH_models.json"
./build-release/bench/bench_table2_models --json "${REPO_ROOT}/BENCH_models.json"

step "fault-tolerance overhead -> BENCH_faults.json"
./build-release/bench/bench_faults --json "${REPO_ROOT}/BENCH_faults.json"

step "durability overhead + crash recovery -> BENCH_crash.json"
./build-release/bench/bench_crash --json "${REPO_ROOT}/BENCH_crash.json"

step "multi-job coordinator -> BENCH_jobs.json"
./build-release/bench/bench_jobs --json "${REPO_ROOT}/BENCH_jobs.json"

step "privacy runtime -> BENCH_privacy.json"
./build-release/bench/bench_privacy --json "${REPO_ROOT}/BENCH_privacy.json"

step "adversarial robustness -> BENCH_robust.json"
./build-release/bench/bench_poison --json "${REPO_ROOT}/BENCH_robust.json"

step "observability overhead -> BENCH_obs.json"
./build-release/bench/bench_trace --json "${REPO_ROOT}/BENCH_obs.json"

step "coordinator scaling -> BENCH_scale.json"
./build-release/bench/bench_scale --json "${REPO_ROOT}/BENCH_scale.json"

step "bench complete"
echo "wrote BENCH_tensor.json, BENCH_protocol.json, BENCH_models.json, BENCH_faults.json, BENCH_crash.json, BENCH_jobs.json, BENCH_privacy.json, BENCH_robust.json, BENCH_obs.json and BENCH_scale.json"
