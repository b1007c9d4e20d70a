#!/usr/bin/env sh
# Runs the zero-copy data-plane microbenchmarks in google-benchmark's
# JSON format and writes one machine-readable file (default
# BENCH_staging.json). Besides wall-time throughput, the per-benchmark
# counters record allocations/object, bytes copied/object, CRC
# recompute vs cache-hit rates, and — for the token-serial replica→EC
# transition (BM_TransitionPerObject) — sim_drain_ms/sim_GBps encode
# throughput. So payload copy-count regressions are visible PR over PR
# even when wall time stays flat.
#
# Usage: bench_staging_json.sh <micro_staging-binary> [out.json]
set -eu

MICRO_STAGING=${1:?usage: bench_staging_json.sh micro_staging [out.json]}
OUT=${2:-BENCH_staging.json}

TMPDIR_JSON=$(mktemp -d)
trap 'rm -rf "$TMPDIR_JSON"' EXIT

"$MICRO_STAGING" --benchmark_format=json \
  --benchmark_out="$TMPDIR_JSON/staging.json" \
  --benchmark_out_format=json >/dev/null

{
  printf '{\n"micro_staging": '
  cat "$TMPDIR_JSON/staging.json"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
