#!/usr/bin/env bash
# End-to-end serving-layer check: boot rtled on a loopback port, drive it
# with rtleload under the acceptance mixes (pipelined connections, 90/10
# and 50/50 read/write, witness batches), once cleanly and once under a
# fault plan, then drain with SIGTERM. rtleload exits non-zero on any
# linearizability or batch-atomicity violation, which fails this script.
#
# The whole matrix runs once per shard count: -shards 1 covers the
# unsharded fast path, -shards 4 covers consistent-hash routing, the
# cross-shard slow path (two-key witness batches, cross-shard bank
# transfers), and the multi-shard drain.
#
# With the "failover" scenario it additionally boots a replicated pair
# (sync ack, file-backed log), SIGKILLs the primary under recorded load,
# promotes the replica with SIGUSR1, and requires rtleload to exit 0 with
# a linearizable merged history — the zero acknowledged-write-loss claim,
# checked at the wire.
#
# The "reshard" scenario boots a single-shard server with the admin
# endpoint, POSTs /reshard?shards=4 while recorded load runs, and requires
# the merged history (spanning both topologies) to check linearizable.
# The "warm" scenario runs two consecutive checked rtleload runs against
# the same server: the second must report its models seeded from a server
# snapshot at a nonzero sequence and still verdict linearizable — the
# warm-checking contract.
#
# Usage: scripts/e2e.sh [bindir] [shard counts] [scenarios]
#   bindir: directory holding prebuilt rtled/rtleload (default: build into
#   a temp dir with `go build`).
#   shard counts: space-separated list (default "1 4"); CI passes a single
#   count per matrix job.
#   scenarios: space-separated subset of "load failover reshard warm"
#   (default "load failover").
set -euo pipefail

cd "$(dirname "$0")/.."

BINDIR="${1:-}"
SHARD_COUNTS="${2:-1 4}"
SCENARIOS="${3:-load failover}"
if [ -z "$BINDIR" ]; then
  BINDIR="$(mktemp -d)"
  echo "e2e: building rtled and rtleload into $BINDIR"
  go build -o "$BINDIR/rtled" ./cmd/rtled
  go build -o "$BINDIR/rtleload" ./cmd/rtleload
fi

LOG="$(mktemp)"
LOG2="$(mktemp)"
SRV_PID=""
SRV2_PID=""

cleanup() {
  for PID in "$SRV_PID" "$SRV2_PID"; do
    if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
      kill -TERM "$PID" 2>/dev/null || true
      wait "$PID" 2>/dev/null || true
    fi
  done
  rm -f "$LOG" "$LOG2"
}
trap cleanup EXIT

# boot <rtled args...>: start rtled, export SRV_PID/ADDR.
boot() {
  : >"$LOG"
  "$BINDIR/rtled" -addr 127.0.0.1:0 "$@" >"$LOG" 2>&1 &
  SRV_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^rtled: listening on \([0-9.:]*\).*/\1/p' "$LOG" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { echo "e2e: rtled died at boot"; cat "$LOG"; exit 1; }
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "e2e: rtled never announced its port"; cat "$LOG"; exit 1; }
  echo "e2e: rtled up at $ADDR ($*)"
}

drain() {
  kill -TERM "$SRV_PID"
  wait "$SRV_PID" || { echo "e2e: rtled exited non-zero on drain"; exit 1; }
  SRV_PID=""
  echo "e2e: drained cleanly"
}

# boot2 <rtled args...>: start a second rtled (the replica), export
# SRV2_PID/ADDR2.
boot2() {
  : >"$LOG2"
  "$BINDIR/rtled" -addr 127.0.0.1:0 "$@" >"$LOG2" 2>&1 &
  SRV2_PID=$!
  ADDR2=""
  for _ in $(seq 1 100); do
    ADDR2="$(sed -n 's/^rtled: listening on \([0-9.:]*\).*/\1/p' "$LOG2" | head -1)"
    [ -n "$ADDR2" ] && break
    kill -0 "$SRV2_PID" 2>/dev/null || { echo "e2e: second rtled died at boot"; cat "$LOG2"; exit 1; }
    sleep 0.1
  done
  [ -n "$ADDR2" ] || { echo "e2e: second rtled never announced its port"; cat "$LOG2"; exit 1; }
  echo "e2e: rtled up at $ADDR2 ($*)"
}

drain2() {
  kill -TERM "$SRV2_PID"
  wait "$SRV2_PID" || { echo "e2e: second rtled exited non-zero on drain"; cat "$LOG2"; exit 1; }
  SRV2_PID=""
  echo "e2e: replica drained cleanly"
}

# http_post <host:port> <path>: minimal HTTP/1.0 POST over bash's
# /dev/tcp, so the admin endpoints need no curl on the runner. Prints the
# full response (headers and body).
http_post() {
  local hp="$1" path="$2"
  exec 3<>"/dev/tcp/${hp%:*}/${hp##*:}"
  printf 'POST %s HTTP/1.0\r\nHost: %s\r\nContent-Length: 0\r\n\r\n' "$path" "$hp" >&3
  cat <&3
  exec 3>&-
}

FAULT_PLAN='{"seed":11,"begin_prob":0.05,"storm_every":500,"storm_len":3}'

# run_load: the original serving-layer matrix for one shard count.
run_load() {
  echo "e2e: === load scenario, shard count $SHARDS ==="

  # --- Clean runs: set workload, both acceptance mixes -----------------------
  # One server boot per checked run: the linearizability models assume the
  # initial state of a fresh server (empty set/map, bank at par), so -check
  # is only sound against a server that has served nothing else.
  boot -workload set -method 'FG-TLE(256)' -shards "$SHARDS" -workers 4 -keys 256
  "$BINDIR/rtleload" -addr "$ADDR" -workload set -keys 256 \
    -conns 4 -pipeline 8 -ops 20000 -read-pct 90 -batch-pct 10
  drain

  boot -workload set -method 'FG-TLE(256)' -shards "$SHARDS" -workers 4 -keys 256
  "$BINDIR/rtleload" -addr "$ADDR" -workload set -keys 256 \
    -conns 4 -pipeline 8 -ops 20000 -read-pct 50 -batch-pct 10 -seed 2
  drain

  # --- Fault-plan run: same mixes with the method under chaos ----------------
  boot -workload set -method 'FG-TLE(256)' -shards "$SHARDS" -workers 4 -keys 256 \
    -fault-plan "$FAULT_PLAN"
  "$BINDIR/rtleload" -addr "$ADDR" -workload set -keys 256 \
    -conns 4 -pipeline 8 -ops 12000 -read-pct 50 -batch-pct 10 -seed 3
  drain
  grep -q 'fault director injected [1-9]' "$LOG" || {
    echo "e2e: fault plan injected nothing; chaos run was vacuous"; cat "$LOG"; exit 1; }

  # --- Map and bank workloads over the wire ----------------------------------
  boot -workload map -method TLE -shards "$SHARDS" -workers 4 -keys 128
  "$BINDIR/rtleload" -addr "$ADDR" -workload map -keys 128 \
    -conns 4 -pipeline 8 -ops 10000 -read-pct 50 -batch-pct 10
  drain

  # Bank with several shards drives the cross-shard transfer slow path; the
  # whole-history check plus the full-coverage conservation witness covers it.
  boot -workload bank -method RHNOrec -shards "$SHARDS" -workers 4 -keys 16
  "$BINDIR/rtleload" -addr "$ADDR" -workload bank -keys 16 \
    -conns 2 -pipeline 4 -ops 1500 -read-pct 60 -batch-pct 20
  drain

  # Skewed keys put most of the load on one shard: the hot-shard path, with
  # coalesced blocks that conflict (about 1 % of attempts abort here).
  boot -workload set -method 'FG-TLE(256)' -shards "$SHARDS" -workers 4 -keys 256
  "$BINDIR/rtleload" -addr "$ADDR" -workload set -keys 256 \
    -conns 4 -pipeline 8 -ops 10000 -read-pct 50 -batch-pct 10 \
    -key-dist zipf -zipf-s 1.2 -seed 4
  drain
}

# run_failover: kill the primary of a replicated pair under recorded load,
# promote the replica, and require the merged history to stay linearizable.
run_failover() {
  echo "e2e: === failover scenario, shard count $SHARDS ==="
  RLOG="$(mktemp -u)"
  LOAD_OUT="$(mktemp)"

  boot -workload map -method TLE -shards "$SHARDS" -workers 4 -keys 256 \
    -repl-ack sync -repl-log "$RLOG"
  PRIMARY="$ADDR"
  PRIMARY_PID="$SRV_PID"
  boot2 -workload map -method TLE -shards "$SHARDS" -workers 4 -keys 256 \
    -replica-of "$PRIMARY"
  REPLICA="$ADDR2"

  "$BINDIR/rtleload" -addr "$PRIMARY,$REPLICA" -workload map -keys 256 \
    -conns 4 -pipeline 8 -ops 2000000 -duration 4s -read-pct 60 -batch-pct 5 \
    >"$LOAD_OUT" 2>&1 &
  LOAD_PID=$!

  sleep 1
  echo "e2e: SIGKILL primary (pid $PRIMARY_PID) mid-run"
  kill -KILL "$PRIMARY_PID"
  wait "$PRIMARY_PID" 2>/dev/null || true
  SRV_PID=""
  sleep 0.3
  echo "e2e: promoting replica (SIGUSR1)"
  kill -USR1 "$SRV2_PID"

  wait "$LOAD_PID" || {
    echo "e2e: rtleload failed across the failover"; cat "$LOAD_OUT"; cat "$LOG2"; exit 1; }
  grep -q 'history is linearizable' "$LOAD_OUT" || {
    echo "e2e: failover history was not checked linearizable"; cat "$LOAD_OUT"; exit 1; }
  grep -q 'promoted to primary' "$LOG2" || {
    echo "e2e: replica never announced its promotion"; cat "$LOG2"; exit 1; }
  grep 'rtleload: failover:' "$LOAD_OUT" || true
  grep 'rtleload:.*ops/sec' "$LOAD_OUT" || true

  drain2
  rm -f "$RLOG" "$LOAD_OUT"
  echo "e2e: failover survived with a linearizable history"
}

# run_reshard: rebuild the serving plane mid-run. Boot at one shard with
# the admin endpoint, start recorded load, POST /reshard?shards=4 while it
# runs, and require the merged history — spanning both topologies — to
# check linearizable. The shard-count matrix dimension does not apply: the
# scenario fixes its own before/after counts.
run_reshard() {
  echo "e2e: === reshard scenario (1 -> 4 shards mid-run) ==="
  LOAD_OUT="$(mktemp)"

  boot -workload map -method TLE -shards 1 -workers 4 -keys 256 \
    -http 127.0.0.1:0
  ADMIN=""
  for _ in $(seq 1 100); do
    ADMIN="$(sed -n 's|^rtled: serving /metrics and /snapshot on \(.*\)$|\1|p' "$LOG" | head -1)"
    [ -n "$ADMIN" ] && break
    sleep 0.1
  done
  [ -n "$ADMIN" ] || { echo "e2e: rtled never announced its admin port"; cat "$LOG"; exit 1; }
  echo "e2e: admin endpoint at $ADMIN"

  "$BINDIR/rtleload" -addr "$ADDR" -workload map -keys 256 \
    -conns 4 -pipeline 8 -ops 2000000 -duration 4s -read-pct 60 -batch-pct 5 \
    >"$LOAD_OUT" 2>&1 &
  LOAD_PID=$!

  sleep 1
  echo "e2e: POST /reshard?shards=4 mid-run"
  http_post "$ADMIN" "/reshard?shards=4" | grep -q 'resharded to 4 shards' || {
    echo "e2e: reshard request failed"; cat "$LOG"; kill "$LOAD_PID" 2>/dev/null || true; exit 1; }

  wait "$LOAD_PID" || {
    echo "e2e: rtleload failed across the reshard"; cat "$LOAD_OUT"; cat "$LOG"; exit 1; }
  grep -q 'history is linearizable' "$LOAD_OUT" || {
    echo "e2e: reshard history was not checked linearizable"; cat "$LOAD_OUT"; exit 1; }
  grep -q 'rtled: resharded to 4 shards' "$LOG" || {
    echo "e2e: server never logged the reshard"; cat "$LOG"; exit 1; }
  grep 'rtleload:.*ops/sec' "$LOAD_OUT" || true

  drain
  rm -f "$LOAD_OUT"
  echo "e2e: reshard survived with a linearizable history"
}

# run_warm: the warm-checking contract. Two consecutive checked runs
# against the same server: the second must seed its models from a server
# snapshot at a nonzero sequence (the first run's writes) and still check
# linearizable. An unseeded second run would report false violations.
run_warm() {
  echo "e2e: === warm-check scenario, shard count $SHARDS ==="
  LOAD_OUT="$(mktemp)"

  # Replication (async ack, in-memory log) gives the snapshot a real log
  # sequence, so the second run's "seeded at seq N" proves the cut
  # captured the first run's writes rather than an empty server.
  boot -workload map -method TLE -shards "$SHARDS" -workers 4 -keys 128 \
    -repl-ack async

  "$BINDIR/rtleload" -addr "$ADDR" -workload map -keys 128 \
    -conns 4 -pipeline 8 -ops 8000 -read-pct 50 -batch-pct 10
  echo "e2e: first checked run passed; server is now warm"

  "$BINDIR/rtleload" -addr "$ADDR" -workload map -keys 128 \
    -conns 4 -pipeline 8 -ops 8000 -read-pct 50 -batch-pct 10 -seed 2 \
    >"$LOAD_OUT" 2>&1 || {
    echo "e2e: second (warm) checked run failed"; cat "$LOAD_OUT"; exit 1; }
  grep -qE 'check seeded from server snapshot at seq [1-9]' "$LOAD_OUT" || {
    echo "e2e: warm run was not seeded from a snapshot"; cat "$LOAD_OUT"; exit 1; }
  grep -q 'history is linearizable' "$LOAD_OUT" || {
    echo "e2e: warm history was not checked linearizable"; cat "$LOAD_OUT"; exit 1; }

  drain
  rm -f "$LOAD_OUT"
  echo "e2e: warm run seeded from snapshot and stayed linearizable"
}

for SHARDS in $SHARD_COUNTS; do
  for SCENARIO in $SCENARIOS; do
    case "$SCENARIO" in
      load) run_load ;;
      failover) run_failover ;;
      reshard) run_reshard ;;
      warm) run_warm ;;
      *) echo "e2e: unknown scenario $SCENARIO"; exit 1 ;;
    esac
  done
done

echo "e2e: all serving-layer checks passed"
