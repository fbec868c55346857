#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe sweep journal.
#
# Starts a journaled sweep, SIGKILLs it mid-run (no chance to flush or
# clean up), resumes from the journal, and asserts the resumed run's
# deterministic CSV is byte-identical to an uninterrupted run's and that
# every row's --json "result" object equals the reference's. Restored rows
# are rebuilt from the journaled end tick and counters, and the CSV shows
# only some of the rebuilt fields, so the JSON check covers the rest.
# Exercises the full robustness path end to end: append-only JSONL
# journaling, torn-line tolerance, fingerprint checking, and deterministic
# re-execution of the missing rows.
#
# Usage: scripts/resume_smoke.sh [path/to/graphpim_sim]
set -u

SIM="${1:-build/tools/graphpim_sim}"
if [[ ! -x "$SIM" ]]; then
  echo "resume_smoke: $SIM not found or not executable" >&2
  echo "build first: cmake -B build && cmake --build build --target graphpim_sim" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/graphpim_resume_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# A grid big enough that a mid-run kill lands between rows, small enough to
# finish in seconds. Fault knobs on, so injection state must survive too.
ARGS=("--sweep=workloads=bfs,prank;modes=baseline,graphpim;vertices=8192;opcap=400000"
      --jobs=2 --link-ber=1e-7 --vault-stall-ppm=200)

echo "== reference run (uninterrupted)"
"$SIM" "${ARGS[@]}" --det-csv="$WORK/ref.csv" --json="$WORK/ref.json" \
    >/dev/null || {
  echo "resume_smoke: FAIL — reference run errored" >&2; exit 1; }

echo "== victim run (SIGKILL mid-sweep)"
"$SIM" "${ARGS[@]}" --journal="$WORK/rows.jsonl" >/dev/null &
VICTIM=$!
# Wait for the journal to hold at least one completed row, then kill -9.
for _ in $(seq 1 200); do
  LINES=0
  [[ -f "$WORK/rows.jsonl" ]] && LINES="$(wc -l <"$WORK/rows.jsonl")"
  [[ "$LINES" -ge 2 ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.05
done
kill -KILL "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
STATUS=$?
if [[ "$STATUS" -ne 137 ]]; then
  # The sweep finished before we could kill it; resume still must work
  # (all rows restore, none re-simulate), so carry on.
  echo "   (victim finished before the kill landed: exit $STATUS)"
fi

echo "== resumed run"
"$SIM" "${ARGS[@]}" --journal="$WORK/rows.jsonl" --resume=1 \
    --det-csv="$WORK/resumed.csv" --json="$WORK/resumed.json" |
    grep -E "resumed|FAILED" || true

if ! cmp -s "$WORK/ref.csv" "$WORK/resumed.csv"; then
  echo "resume_smoke: FAIL — resumed CSV differs from the reference:" >&2
  diff "$WORK/ref.csv" "$WORK/resumed.csv" >&2 | head -20
  exit 1
fi

# The whole JSON document but its wall-clock fields: each row's wall_ms
# and the top-level timing object.
if ! python3 - "$WORK/ref.json" "$WORK/resumed.json" <<'PY'
import json
import sys

def rows(path):
    with open(path) as f:
        doc = json.load(f)
    doc.pop("timing")
    for row in doc["rows"]:
        row.pop("wall_ms")
    return doc

ref, resumed = rows(sys.argv[1]), rows(sys.argv[2])
if ref == resumed:
    sys.exit(0)
for i, (a, b) in enumerate(zip(ref["rows"], resumed["rows"])):
    if a != b:
        print(f"row {i} ({a['workload']}, {a['config']}) differs", file=sys.stderr)
if len(ref["rows"]) != len(resumed["rows"]):
    print("row counts differ", file=sys.stderr)
sys.exit(1)
PY
then
  echo "resume_smoke: FAIL — resumed --json rows differ from the reference" >&2
  exit 1
fi
echo "resume_smoke: PASS — resumed sweep is bit-identical to the reference"
