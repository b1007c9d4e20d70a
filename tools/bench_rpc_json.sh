#!/usr/bin/env sh
# Benchmarks the real network serving path: starts corec-server on an
# ephemeral loopback port, then drives it with the multi-process
# open-loop load generator (micro_rpc) for four op mixes — put-heavy,
# get-heavy and 50/50 at BENCH_RPC_BYTES, plus 2 MiB puts (the large-body
# ingest-CRC path). The op mixes are sized from nproc so that client
# processes plus server event loops do not oversubscribe the host: half
# the CPUs drive load and the rest serve it (one of each on a single
# CPU); the record's host object names that shape. Each mix runs 3 times;
# the record keeps every run and the median, min and max of its
# throughput and p50/p95/p99 latency over TCP, so a PR-over-PR
# difference can be read against the spread of one host. The record
# also names the host shape: nproc, CPU model, build type, CRC32C
# kernel, git revision and the op-mix clients and server loops.
#
# A second phase sweeps the C10k plane: connection counts 64..4096,
# single-loop vs multi-loop servers, pipelined clients (depth 8 per
# connection). Each cell restarts the server so its shutdown stats line
# (writev syscalls-per-frame, data-bearing recv syscalls-per-frame,
# frames-per-recv/writev histograms, slab-pool hit/miss counters,
# per-loop frame counts) can be scraped into the record. The sweep
# fails the script if the multi-loop p99 regresses past FACTOR x the
# single-loop p99 at >= 1024 connections — sharding the event loop must
# never make tail latency worse — or if the buffered receive path stops
# batching: at pipeline depth >= 8 every cell must complete frames with
# < 1.0 data-bearing recv syscalls per frame, and steady-state slab
# pool misses must stay ~0 per frame.
#
# Usage: bench_rpc_json.sh <micro_rpc-binary> <corec-server-binary> [out.json]
#
# Env knobs:
#   BENCH_RPC_CLIENTS      client processes (default: nproc / 2 for the
#                          op mixes, which then get nproc - clients server
#                          loops; 4 for the C10k sweep)
#   BENCH_RPC_SECONDS / _BYTES      op-mix phase shape
#   BENCH_RPC_C10K_CONNS   sweep connection counts (default "64 256 1024 4096")
#   BENCH_RPC_C10K_LOOPS   sweep loop counts      (default "1 4")
#   BENCH_RPC_C10K_PIPELINE  outstanding requests per connection (default 8)
#   BENCH_RPC_C10K_SECONDS   measured seconds per cell (default 2)
#   BENCH_RPC_C10K_P99_FACTOR  regression tolerance (default 1.5; 2.0 when
#                              nproc=1, where extra loops only add scheduling)
#   BENCH_RPC_RECV_PF_MAX   recv-per-frame ceiling at depth >= 8 (default 1.0)
#   BENCH_RPC_POOL_MISS_PF_MAX  pool-miss-per-frame ceiling (default 0.1;
#                               the allowance covers one-time warmup carves —
#                               per-connection read buffers and the bounded
#                               put-slot working set — which short cells
#                               amortize over fewer frames)
set -eu

MICRO_RPC=${1:?usage: bench_rpc_json.sh micro_rpc corec-server [out.json]}
SERVER=${2:?usage: bench_rpc_json.sh micro_rpc corec-server [out.json]}
OUT=${3:-BENCH_rpc.json}

SECONDS_PER_MIX=${BENCH_RPC_SECONDS:-2}
VALUE_BYTES=${BENCH_RPC_BYTES:-4096}
REPEATS=3
BULK_BYTES=2097152

C10K_CONNS=${BENCH_RPC_C10K_CONNS:-"64 256 1024 4096"}
C10K_LOOPS=${BENCH_RPC_C10K_LOOPS:-"1 4"}
C10K_PIPELINE=${BENCH_RPC_C10K_PIPELINE:-8}
C10K_SECONDS=${BENCH_RPC_C10K_SECONDS:-2}
RECV_PF_MAX=${BENCH_RPC_RECV_PF_MAX:-1.0}
POOL_MISS_PF_MAX=${BENCH_RPC_POOL_MISS_PF_MAX:-0.1}

NPROC=$(nproc 2>/dev/null || echo 1)
# Op mixes: half the CPUs run client processes, the rest server loops.
MIX_CLIENTS=${BENCH_RPC_CLIENTS:-$((NPROC / 2 > 0 ? NPROC / 2 : 1))}
MIX_LOOPS=$((NPROC - MIX_CLIENTS > 0 ? NPROC - MIX_CLIENTS : 1))
CLIENTS=${BENCH_RPC_CLIENTS:-4}
if [ "$NPROC" -le 1 ]; then
  P99_FACTOR=${BENCH_RPC_C10K_P99_FACTOR:-2.0}
  echo "note: single-core host; multi-loop sharding cannot run in" \
    "parallel, p99 gate tolerance defaults to $P99_FACTOR" >&2
else
  P99_FACTOR=${BENCH_RPC_C10K_P99_FACTOR:-1.5}
fi

# The 4096-connection cells need ~4k fds in the server and ~1k per
# client child; raise the soft limit if the hard limit allows.
ulimit -n 16384 2>/dev/null || true

TMPDIR_JSON=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMPDIR_JSON"
}
trap cleanup EXIT

# start_server <logfile> [extra corec-server args...]
# Sets SERVER_PID and PORT.
start_server() {
  log=$1
  shift
  "$SERVER" --port 0 --servers 4 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  # The server prints "corec-server listening on 127.0.0.1:PORT (...)"
  # once the socket is bound; poll for it rather than racing the bind.
  PORT=
  i=0
  while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$log" | head -n 1)
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "corec-server exited before binding:" >&2
      cat "$log" >&2
      exit 1
    }
    sleep 0.1
    i=$((i + 1))
  done
  [ -n "$PORT" ] || { echo "failed to scrape server port" >&2; exit 1; }
}

# stop_server <logfile>: SIGINT, wait, and scrape the shutdown stats
# JSON into SERVER_STATS.
stop_server() {
  kill -INT "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=
  SERVER_STATS=$(sed -n 's/^corec-server stats //p' "$1" | head -n 1)
  [ -n "$SERVER_STATS" ] || SERVER_STATS='{}'
}

# ---- phase 1: op-mix baseline (default loops) ----------------------------

# summarize <mix>: one JSON object with every run of the mix and, for
# each headline field, its median, min and max across the runs.
summarize() {
  RUNS=
  for REP in $(seq 1 "$REPEATS"); do
    RUNS="${RUNS:+$RUNS,}$(cat "$TMPDIR_JSON/${1}_$REP.json")"
  done
  STATS=
  for FIELD in throughput_ops_s throughput_mib_s p50_us p95_us p99_us; do
    VALUES=$(for REP in $(seq 1 "$REPEATS"); do
      sed -n "s/.*\"$FIELD\":\([0-9.]*\).*/\1/p" \
        "$TMPDIR_JSON/${1}_$REP.json"
    done | sort -g)
    STAT=$(echo "$VALUES" | awk -v f="$FIELD" '
      { v[NR] = $1 }
      END {
        med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
        printf "\"%s\":{\"median\":%.2f,\"min\":%.2f,\"max\":%.2f}", f, med, v[1], v[NR]
      }')
    STATS="${STATS:+$STATS,}$STAT"
  done
  printf '{"repeats":%s,%s,"runs":[%s]}' "$REPEATS" "$STATS" "$RUNS"
}

# Each run gets a fresh server, so the runs are independent and the
# 2 MiB objects one run leaves behind do not pile up in the next.
for MIX in put get mixed put_2mib; do
  case $MIX in
    put_2mib) OP=put BYTES=$BULK_BYTES ;;
    *) OP=$MIX BYTES=$VALUE_BYTES ;;
  esac
  for REP in $(seq 1 "$REPEATS"); do
    start_server "$TMPDIR_JSON/server.log" --loops "$MIX_LOOPS"
    echo "running mix=$MIX run=$REP/$REPEATS clients=$MIX_CLIENTS" \
      "loops=$MIX_LOOPS seconds=$SECONDS_PER_MIX (port $PORT) ..."
    "$MICRO_RPC" --port "$PORT" --clients "$MIX_CLIENTS" \
      --seconds "$SECONDS_PER_MIX" --bytes "$BYTES" --mix "$OP" \
      > "$TMPDIR_JSON/${MIX}_$REP.json"
    stop_server "$TMPDIR_JSON/server.log"
  done
done

# Host shape the numbers were taken on.
CPU_MODEL=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
  | head -n 1 | sed 's/["\\]//g')
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$(dirname "$MICRO_RPC")/../CMakeCache.txt" 2>/dev/null | head -n 1)
CRC_KERNEL=$(sed -n 's/.*"crc_kernel":"\([a-z0-9]*\)".*/\1/p' \
  "$TMPDIR_JSON/put_1.json")
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo nogit)

# ---- phase 2: C10k sweep (pipelined clients) -----------------------------

CELLS=
for LOOPS in $C10K_LOOPS; do
  for CONNS in $C10K_CONNS; do
    LOG="$TMPDIR_JSON/c10k_${LOOPS}_${CONNS}.log"
    start_server "$LOG" --loops "$LOOPS"
    echo "c10k: loops=$LOOPS connections=$CONNS pipeline=$C10K_PIPELINE ..."
    "$MICRO_RPC" --port "$PORT" --clients "$CLIENTS" \
      --seconds "$C10K_SECONDS" --bytes "$VALUE_BYTES" --mix mixed \
      --connections "$CONNS" --pipeline "$C10K_PIPELINE" \
      > "$TMPDIR_JSON/c10k_${LOOPS}_${CONNS}.json"
    stop_server "$LOG"
    CELL=$(printf '{"loops":%s,"connections":%s,"load":%s,"server":%s}' \
      "$LOOPS" "$CONNS" \
      "$(cat "$TMPDIR_JSON/c10k_${LOOPS}_${CONNS}.json")" "$SERVER_STATS")
    CELLS="${CELLS:+$CELLS,
}$CELL"
    # Keep the per-cell p99 and receive-path stats around for the gates.
    sed -n 's/.*"p99_us":\([0-9.]*\).*/\1/p' \
      "$TMPDIR_JSON/c10k_${LOOPS}_${CONNS}.json" \
      > "$TMPDIR_JSON/p99_${LOOPS}_${CONNS}"
    echo "$SERVER_STATS" | sed -n 's/.*"recv_per_frame":\([0-9.]*\).*/\1/p' \
      > "$TMPDIR_JSON/recvpf_${LOOPS}_${CONNS}"
    echo "$SERVER_STATS" \
      | sed -n 's/.*"pool_miss_per_frame":\([0-9.]*\).*/\1/p' \
      > "$TMPDIR_JSON/poolpf_${LOOPS}_${CONNS}"
    echo "$SERVER_STATS" | sed -n 's/.*"frames_in":\([0-9]*\).*/\1/p' \
      > "$TMPDIR_JSON/framesin_${LOOPS}_${CONNS}"
  done
done

# ---- p99 regression gate -------------------------------------------------
# At every swept connection count >= 1024, the multi-loop p99 must stay
# within FACTOR x the single-loop p99.

SINGLE_LOOP=$(echo "$C10K_LOOPS" | awk '{print $1}')
GATE_CHECKS=
GATE_FAIL=0
for LOOPS in $C10K_LOOPS; do
  [ "$LOOPS" = "$SINGLE_LOOP" ] && continue
  for CONNS in $C10K_CONNS; do
    [ "$CONNS" -ge 1024 ] || continue
    BASE=$(cat "$TMPDIR_JSON/p99_${SINGLE_LOOP}_${CONNS}")
    MULTI=$(cat "$TMPDIR_JSON/p99_${LOOPS}_${CONNS}")
    OK=$(awk -v m="$MULTI" -v b="$BASE" -v f="$P99_FACTOR" \
      'BEGIN { print (m <= b * f) ? "true" : "false" }')
    [ "$OK" = "true" ] || GATE_FAIL=1
    CHECK=$(printf \
      '{"connections":%s,"loops":%s,"p99_single_us":%s,"p99_multi_us":%s,"ok":%s}' \
      "$CONNS" "$LOOPS" "$BASE" "$MULTI" "$OK")
    GATE_CHECKS="${GATE_CHECKS:+$GATE_CHECKS,}$CHECK"
    echo "p99 gate: conns=$CONNS loops=$LOOPS ${MULTI}us vs" \
      "loops=$SINGLE_LOOP ${BASE}us (factor $P99_FACTOR) -> ok=$OK"
  done
done

# ---- buffered-receive gate -----------------------------------------------
# At pipeline depth >= 8 the buffered read path must complete frames
# with fewer than RECV_PF_MAX data-bearing recv syscalls per frame, and
# the warm slab pool must keep heap carves ~0 per frame, in every cell
# that actually moved frames.

RECV_CHECKS=
RECV_FAIL=0
if [ "$C10K_PIPELINE" -ge 8 ]; then
  for LOOPS in $C10K_LOOPS; do
    for CONNS in $C10K_CONNS; do
      FRAMES=$(cat "$TMPDIR_JSON/framesin_${LOOPS}_${CONNS}")
      RECV_PF=$(cat "$TMPDIR_JSON/recvpf_${LOOPS}_${CONNS}")
      POOL_PF=$(cat "$TMPDIR_JSON/poolpf_${LOOPS}_${CONNS}")
      [ -n "$FRAMES" ] && [ "$FRAMES" -gt 0 ] || continue
      [ -n "$RECV_PF" ] && [ -n "$POOL_PF" ] || continue
      OK=$(awk -v r="$RECV_PF" -v p="$POOL_PF" \
        -v rmax="$RECV_PF_MAX" -v pmax="$POOL_MISS_PF_MAX" \
        'BEGIN { print (r < rmax && p <= pmax) ? "true" : "false" }')
      [ "$OK" = "true" ] || RECV_FAIL=1
      CHECK=$(printf \
        '{"connections":%s,"loops":%s,"recv_per_frame":%s,"pool_miss_per_frame":%s,"ok":%s}' \
        "$CONNS" "$LOOPS" "$RECV_PF" "$POOL_PF" "$OK")
      RECV_CHECKS="${RECV_CHECKS:+$RECV_CHECKS,}$CHECK"
      echo "recv gate: conns=$CONNS loops=$LOOPS" \
        "recv/frame=$RECV_PF (max $RECV_PF_MAX)" \
        "pool-miss/frame=$POOL_PF (max $POOL_MISS_PF_MAX) -> ok=$OK"
    done
  done
fi

{
  printf '{\n"bench": "rpc_loopback",\n'
  printf '"transport": "tcp length-prefixed frames, 4 server shards",\n'
  printf '"host": {"nproc": %s, "cpu": "%s", "build_type": "%s", "crc_kernel": "%s", "git_rev": "%s", "mix_clients": %s, "mix_server_loops": %s},\n' \
    "$NPROC" "${CPU_MODEL:-unknown}" "${BUILD_TYPE:-unset}" \
    "${CRC_KERNEL:-unknown}" "$GIT_REV" "$MIX_CLIENTS" "$MIX_LOOPS"
  printf '"put": %s,\n' "$(summarize put)"
  printf '"get": %s,\n' "$(summarize get)"
  printf '"mixed": %s,\n' "$(summarize mixed)"
  printf '"put_2mib": %s,\n' "$(summarize put_2mib)"
  printf '"c10k": {\n'
  printf '"pipeline": %s,\n' "$C10K_PIPELINE"
  printf '"clients": %s,\n' "$CLIENTS"
  printf '"nproc": %s,\n' "$NPROC"
  printf '"cells": [\n%s\n],\n' "$CELLS"
  printf '"p99_gate": {"factor": %s, "checks": [%s], "pass": %s},\n' \
    "$P99_FACTOR" "$GATE_CHECKS" \
    "$([ "$GATE_FAIL" -eq 0 ] && echo true || echo false)"
  printf \
    '"recv_gate": {"recv_per_frame_max": %s, "pool_miss_per_frame_max": %s, "checks": [%s], "pass": %s}\n' \
    "$RECV_PF_MAX" "$POOL_MISS_PF_MAX" "$RECV_CHECKS" \
    "$([ "$RECV_FAIL" -eq 0 ] && echo true || echo false)"
  printf '}\n}\n'
} > "$OUT"

echo "wrote $OUT"
if [ "$GATE_FAIL" -ne 0 ]; then
  echo "FAIL: multi-loop p99 regressed past ${P99_FACTOR}x single-loop" \
    "at >= 1024 connections" >&2
  exit 1
fi
if [ "$RECV_FAIL" -ne 0 ]; then
  echo "FAIL: buffered receive path regressed — recv/frame >=" \
    "$RECV_PF_MAX or pool-miss/frame > $POOL_MISS_PF_MAX at pipeline" \
    "depth $C10K_PIPELINE" >&2
  exit 1
fi
