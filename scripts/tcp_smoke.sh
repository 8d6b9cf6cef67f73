#!/usr/bin/env bash
# Smoke test of the served TCP path: one tcp_federation server process
# (a bare FederatedServer behind TcpServer) and two client processes on
# loopback. Every process must exit 0; the server's final line is printed.
#
# Usage: scripts/tcp_smoke.sh BUILD_DIR [EXPECTED_LINE]
#   EXPECTED_LINE, when given, must appear verbatim in the server output
#   (e.g. "final global accuracy: 75.0%" for a release build).
set -euo pipefail

BUILD_DIR="${1:?usage: tcp_smoke.sh BUILD_DIR [EXPECTED_LINE]}"
EXPECTED="${2:-}"
BIN="${BUILD_DIR}/examples/tcp_federation"
[ -x "${BIN}" ] || { echo "tcp_smoke: ${BIN} not built" >&2; exit 2; }

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT
PORT=$((20000 + RANDOM % 20000))

"${BIN}" role=server port="${PORT}" clients=2 rounds=3 >"${OUT}/server.log" 2>&1 &
SERVER=$!

# Wait for the listener before starting clients (their first connect is
# not retried).
for _ in $(seq 1 600); do
  if (exec 3<>"/dev/tcp/127.0.0.1/${PORT}") 2>/dev/null; then break; fi
  if ! kill -0 "${SERVER}" 2>/dev/null; then break; fi
  sleep 0.1
done

"${BIN}" role=client port="${PORT}" site=site-1 >"${OUT}/site-1.log" 2>&1 &
C1=$!
"${BIN}" role=client port="${PORT}" site=site-2 >"${OUT}/site-2.log" 2>&1 &
C2=$!

status=0
for pid in "${C1}" "${C2}" "${SERVER}"; do
  wait "${pid}" || status=1
done
if [ "${status}" -ne 0 ]; then
  for log in "${OUT}"/*.log; do
    echo "---- ${log##*/}"
    tail -n 40 "${log}"
  done
  echo "tcp_smoke: a process exited non-zero" >&2
  exit 1
fi
grep -h "participated in" "${OUT}"/site-*.log
tail -n 1 "${OUT}/server.log"
if [ -n "${EXPECTED}" ] && ! grep -qF "${EXPECTED}" "${OUT}/server.log"; then
  echo "tcp_smoke: server output lacks '${EXPECTED}'" >&2
  exit 1
fi
