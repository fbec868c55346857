#!/usr/bin/env bash
# BENCH_0008 — the paired million-vertex trajectory point.
#
# Runs the Table-IV-scale paired simulation (baseline + GraphPIM on
# ldbc-1M) and emits one JSON record with the wall time, the simulated
# Baseline cycle count and the tiled-trace footprint parsed from the
# report's "trace: peak" line. cycles and trace_peak_bytes are
# deterministic, so CI gates them at zero tolerance against the committed
# point; wall_ms depends on the host.
#
# Usage: scripts/bench_trajectory.sh [sim-binary] [out-json]
#   sim-binary  defaults to build/tools/graphpim_sim
#   out-json    defaults to BENCH_0008.json
#
# Environment:
#   BENCH_VERTICES      vertex count           (default 1048576)
#   BENCH_OPCAP         per-thread op cap      (default 12000000)
#   BENCH_REPS          timed repetitions, min is kept (default 1)
set -eu

SIM="${1:-build/tools/graphpim_sim}"
OUT="${2:-BENCH_0008.json}"
VERTICES="${BENCH_VERTICES:-1048576}"
OPCAP="${BENCH_OPCAP:-12000000}"
REPS="${BENCH_REPS:-1}"

FLAGS=(--workload=bfs --profile=ldbc "--vertices=$VERTICES"
       "--opcap=$OPCAP" --threads=16 --seed=1 --jobs=1
       --mode=baseline,graphpim)

WORK="$(mktemp -d "${TMPDIR:-/tmp}/graphpim_bench.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# Wall-clock milliseconds around one run, via $EPOCHREALTIME (no external
# `bc`/`time` dependency). With BENCH_REPS > 1 the minimum is kept — the
# least-noise estimate on a shared host.
echo "== bench_trajectory: bfs ldbc-$VERTICES paired (baseline+graphpim)"
wall_ms=""
for ((rep = 0; rep < REPS; ++rep)); do
  t0="$EPOCHREALTIME"
  "$SIM" "${FLAGS[@]}" > "$WORK/run.out" 2>/dev/null
  t1="$EPOCHREALTIME"
  ms="$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.0f", (b - a) * 1000 }')"
  echo "   run $((rep + 1))/$REPS: ${ms} ms"
  if [[ -z "$wall_ms" ]] || ((ms < wall_ms)); then wall_ms="$ms"; fi
done

trace_bytes="$(grep -m1 '^trace: peak' "$WORK/run.out" | awk '{print $3}')"
cycles="$(grep -m1 '^cycles:' "$WORK/run.out" | awk '{print $2}')"

cat > "$OUT" <<EOF
{
  "bench": "BENCH_0008",
  "scenario": "bfs ldbc paired baseline+graphpim",
  "vertices": $VERTICES,
  "opcap": $OPCAP,
  "host_cpus": $(nproc),
  "reps": $REPS,
  "wall_ms": $wall_ms,
  "trace_peak_bytes": ${trace_bytes:-0},
  "cycles": ${cycles:-0}
}
EOF
echo "== wrote $OUT"
cat "$OUT"
