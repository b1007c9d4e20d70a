#!/usr/bin/env sh
# Runs the concurrent data-plane microbenchmarks (ShardedObjectStore
# with one lock stripe vs 16 stripes across 1→8 threads and three
# read/write mixes) in google-benchmark's JSON format and
# writes one machine-readable file (default BENCH_concurrency.json).
# The per-benchmark counters carry the shard contention telemetry
# (lock acquisitions, contended %, max shard occupancy) and the
# zero-copy proof counters (copied_bytes/crc_recomputes must stay 0 on
# the read-only sweep), so scaling regressions are visible PR over PR.
#
# Usage: bench_concurrency_json.sh <micro_concurrency-binary> [out.json]
set -eu

MICRO_CONCURRENCY=${1:?usage: bench_concurrency_json.sh micro_concurrency [out.json]}
OUT=${2:-BENCH_concurrency.json}

TMPDIR_JSON=$(mktemp -d)
trap 'rm -rf "$TMPDIR_JSON"' EXIT

"$MICRO_CONCURRENCY" --benchmark_format=json \
  --benchmark_out="$TMPDIR_JSON/concurrency.json" \
  --benchmark_out_format=json >/dev/null

{
  printf '{\n"micro_concurrency": '
  cat "$TMPDIR_JSON/concurrency.json"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
