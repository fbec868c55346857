#!/usr/bin/env bash
# Golden byte-identity gate for the instrumentation substrate.
#
# Builds the PR branch AND its merge-base with main, runs both simulators
# on the pinned golden scenarios (the same flags tests/golden/ was captured
# with), and asserts the --json output and the deterministic report section
# are byte-identical. This catches counter-surface drift the unit goldens
# can't: it compares against the *actual base revision*, not a checked-in
# snapshot, so an accidental regeneration of tests/golden/ cannot mask a
# behavior change.
#
# Usage: scripts/golden_identity.sh [base-ref]   (default: origin/main,
#        falling back to main). Requires a full clone (fetch-depth: 0).
set -eu

BASE_REF="${1:-}"
if [[ -z "$BASE_REF" ]]; then
  if git rev-parse --verify -q origin/main >/dev/null; then
    BASE_REF=origin/main
  else
    BASE_REF=main
  fi
fi

REPO="$(git rev-parse --show-toplevel)"
cd "$REPO"
BASE_SHA="$(git merge-base HEAD "$BASE_REF")"
if [[ "$BASE_SHA" == "$(git rev-parse HEAD)" ]]; then
  echo "golden_identity: HEAD is the merge base ($BASE_SHA); nothing to compare"
  exit 0
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/graphpim_golden.XXXXXX")"
trap 'rm -rf "$WORK" && git worktree prune' EXIT

echo "== building base $BASE_SHA"
git worktree add --detach "$WORK/base" "$BASE_SHA" >/dev/null
cmake -B "$WORK/base/build" -S "$WORK/base" >/dev/null
cmake --build "$WORK/base/build" -j "$(nproc)" --target graphpim_sim >/dev/null

echo "== building HEAD"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target graphpim_sim >/dev/null

# Pinned scenarios: one plain baseline, one GraphPIM, one fault-injecting
# run (decorrelated RNG paths must survive the refactor too), and one on
# 80 cores, whose sharer bits take two words per L3 slot. Flags after
# COMMON override it (the last value of a key wins).
SCENARIOS=(
  "bfs_baseline|--workload=bfs --mode=baseline"
  "bfs_graphpim|--workload=bfs --mode=graphpim"
  "dc_graphpim_ber|--workload=dc --mode=graphpim --link-ber=1e-7"
  "sssp_t80|--workload=sssp --mode=baseline --threads=80 --vertices=32768"
)
COMMON=(--profile=ldbc --vertices=2048 --opcap=150000 --threads=8 --seed=1
        --jobs=1)

fail=0
for sc in "${SCENARIOS[@]}"; do
  name="${sc%%|*}"
  read -r -a flags <<< "${sc#*|}"
  for side in base head; do
    if [[ "$side" == base ]]; then
      sim="$WORK/base/build/tools/graphpim_sim"
    else
      sim="build/tools/graphpim_sim"
    fi
    "$sim" "${COMMON[@]}" "${flags[@]}" --json="$WORK/$name.$side.json" \
        > "$WORK/$name.$side.out"
    # The deterministic report section; driver chatter above/below carries
    # wall-clock noise.
    sed -n '/^config:/,/^uncore energy:/p' "$WORK/$name.$side.out" \
        > "$WORK/$name.$side.report"
  done
  for kind in json report; do
    if cmp -s "$WORK/$name.base.$kind" "$WORK/$name.head.$kind"; then
      echo "   $name.$kind: identical"
    else
      echo "golden_identity: FAIL — $name.$kind differs from $BASE_SHA:" >&2
      diff "$WORK/$name.base.$kind" "$WORK/$name.head.$kind" | head -20 >&2
      fail=1
    fi
  done
done

# The small paired grid (less its workloads) the HEAD-only sweep gates
# below run through graphpim_sim --sweep.
GRID='modes=baseline,graphpim;vertices=2048;opcap=150000;seed=1'

# HEAD-only gate: the multi-cube network does not exist at the merge base
# (the base binary rejects --num-cubes), so its identity check is jobs-count
# invariance instead of a base diff — a pinned-seed num_cubes=2 sweep must
# emit a bit-identical deterministic CSV at --jobs=1 and --jobs=4.
echo "== multi-cube determinism (num_cubes=2, jobs 1 vs 4)"
for j in 1 4; do
  build/tools/graphpim_sim --sweep="workloads=bfs,dc;$GRID" --num-cubes=2 \
      --jobs="$j" --det-csv="$WORK/cubes2.j$j.csv" >/dev/null
done
if cmp -s "$WORK/cubes2.j1.csv" "$WORK/cubes2.j4.csv"; then
  echo "   cubes2.det-csv: jobs-invariant"
else
  echo "golden_identity: FAIL — num_cubes=2 sweep differs across --jobs:" >&2
  diff "$WORK/cubes2.j1.csv" "$WORK/cubes2.j4.csv" | head -20 >&2
  fail=1
fi

# HEAD-only gate: a machine-knob flag given next to --sweep applies to the
# whole grid exactly like the same key inside the spec.
echo "== sweep flag forwarding (--link-ber=1e-7 vs link_ber=1e-7 in the spec)"
FWD_GRID='workloads=bfs;modes=graphpim;vertices=2048;opcap=150000;threads=8'
build/tools/graphpim_sim --sweep="$FWD_GRID" --link-ber=1e-7 \
    --det-csv="$WORK/fwd.flag.csv" >/dev/null
build/tools/graphpim_sim --sweep="$FWD_GRID;link_ber=1e-7" \
    --det-csv="$WORK/fwd.spec.csv" >/dev/null
if cmp -s "$WORK/fwd.flag.csv" "$WORK/fwd.spec.csv"; then
  echo "   fwd.det-csv: flag and spec key identical"
else
  echo "golden_identity: FAIL — --link-ber next to --sweep differs from the spec key:" >&2
  diff "$WORK/fwd.flag.csv" "$WORK/fwd.spec.csv" | head -20 >&2
  fail=1
fi

# HEAD-only gate: transaction tracing (DESIGN.md §12). The base binary
# rejects --trace-sample-rate, so this is not a base diff either. Two
# halves: (a) tracing off must be a true no-op — passing the flag
# explicitly at 0 must reproduce the flag-less HEAD outputs byte for byte;
# (b) a sampled run must produce artifacts scripts/validate_trace.py
# accepts, and journal span sidecars must be --jobs invariant.
echo "== tracing-off identity (--trace-sample-rate=0 vs no flag)"
for sc in "${SCENARIOS[@]}"; do
  name="${sc%%|*}"
  read -r -a flags <<< "${sc#*|}"
  build/tools/graphpim_sim "${COMMON[@]}" "${flags[@]}" \
      --trace-sample-rate=0 --json="$WORK/$name.off.json" \
      > "$WORK/$name.off.out"
  sed -n '/^config:/,/^uncore energy:/p' "$WORK/$name.off.out" \
      > "$WORK/$name.off.report"
  for kind in json report; do
    if cmp -s "$WORK/$name.head.$kind" "$WORK/$name.off.$kind"; then
      echo "   $name.$kind: identical with tracing off"
    else
      echo "golden_identity: FAIL — --trace-sample-rate=0 perturbs $name.$kind:" >&2
      diff "$WORK/$name.head.$kind" "$WORK/$name.off.$kind" | head -20 >&2
      fail=1
    fi
  done
done

# HEAD-only gate: the persistent PMR (DESIGN.md §14). Same structure as
# the tracing gate: (a) pmem.enable=0 must be a strict byte-identical
# passthrough — passing the flag explicitly at 0 reproduces the flag-less
# HEAD outputs exactly; (b) the crash recovery table of a seeded
# --crash-sweep must be bit-identical across --jobs and across reruns.
echo "== pmem-off identity (--pmem-enable=0 vs no flag)"
for sc in "${SCENARIOS[@]}"; do
  name="${sc%%|*}"
  read -r -a flags <<< "${sc#*|}"
  build/tools/graphpim_sim "${COMMON[@]}" "${flags[@]}" \
      --pmem-enable=0 --json="$WORK/$name.pmem0.json" \
      > "$WORK/$name.pmem0.out"
  sed -n '/^config:/,/^uncore energy:/p' "$WORK/$name.pmem0.out" \
      > "$WORK/$name.pmem0.report"
  for kind in json report; do
    if cmp -s "$WORK/$name.head.$kind" "$WORK/$name.pmem0.$kind"; then
      echo "   $name.$kind: identical with pmem off"
    else
      echo "golden_identity: FAIL — --pmem-enable=0 perturbs $name.$kind:" >&2
      diff "$WORK/$name.head.$kind" "$WORK/$name.pmem0.$kind" | head -20 >&2
      fail=1
    fi
  done
done

echo "== crash-sweep determinism (gup, jobs 1 vs 4, rerun)"
for run in j1 j4 rerun; do
  j=1; [[ "$run" == j4 ]] && j=4
  build/tools/graphpim_sim --workload=gup --profile=ldbc --vertices=2048 \
      --threads=8 --seed=1 --pmem-enable=1 --crash-sweep=25 --jobs="$j" \
      > "$WORK/crash.$run.out"
  sed -n '/^== crash recovery table ==$/,/^== end crash recovery table ==$/p' \
      "$WORK/crash.$run.out" > "$WORK/crash.$run.table"
done
for pair in "j1 j4" "j1 rerun"; do
  read -r a b <<< "$pair"
  if cmp -s "$WORK/crash.$a.table" "$WORK/crash.$b.table"; then
    echo "   crash.table $a vs $b: identical"
  else
    echo "golden_identity: FAIL — crash recovery table $a vs $b differs:" >&2
    diff "$WORK/crash.$a.table" "$WORK/crash.$b.table" | head -20 >&2
    fail=1
  fi
done
if ! grep -q "persist check: OK" "$WORK/crash.j1.out"; then
  echo "golden_identity: FAIL — full persist discipline failed the checker" >&2
  fail=1
fi

echo "== tracing smoke (--trace-sample-rate=0.05)"
build/tools/graphpim_sim "${COMMON[@]}" --workload=bfs --mode=all \
    --trace-sample-rate=0.05 --metrics-out="$WORK/trace.json" \
    > "$WORK/trace.out"
# Rows carry wall_ms and land in completion order under --jobs=4, so the
# invariant is the *sorted sidecar lines*, not the whole journal.
for j in 1 4; do
  build/tools/graphpim_sim --sweep="workloads=bfs;$GRID" --jobs="$j" \
      --trace-sample-rate=0.05 --journal="$WORK/spans.j$j.jsonl" >/dev/null
  grep '^{"spans_for":' "$WORK/spans.j$j.jsonl" | sort \
      > "$WORK/spans.j$j.sidecars"
done
if cmp -s "$WORK/spans.j1.sidecars" "$WORK/spans.j4.sidecars"; then
  echo "   span sidecars: jobs-invariant"
else
  echo "golden_identity: FAIL — span sidecars differ across --jobs:" >&2
  diff "$WORK/spans.j1.sidecars" "$WORK/spans.j4.sidecars" | head -20 >&2
  fail=1
fi
if python3 scripts/validate_trace.py "$WORK/trace.json" "$WORK/spans.j1.jsonl"; then
  echo "   trace artifacts: valid"
else
  echo "golden_identity: FAIL — trace artifacts rejected by validate_trace.py" >&2
  fail=1
fi

# HEAD-only gate: the query-serving engine (DESIGN.md §13) does not exist
# at the merge base, so its identity checks are (a) jobs-count invariance
# and (b) rerun byte-identity of the deterministic region between the
# "== saturation table ==" markers. The base-diff scenarios above already
# prove the batch tools' output is untouched with the serve subsystem
# compiled in; this adds the serve tool's own determinism contract.
echo "== serve determinism (saturation table: jobs 1 vs 4, rerun)"
cmake --build build -j "$(nproc)" --target graphpim_serve >/dev/null
# Telemetry windows + an SLO target ride along so the per-window table
# printed inside the markers (and its burn-rate column) inherits the same
# jobs/rerun identity contract as the saturation table itself.
SERVE_FLAGS=(--profile=ldbc --vertices=2048 --requests=48 --tenants=2
             --modes=baseline,graphpim --num-cubes=1,2 --qps-grid=2e5,1e6,5e6
             --queue-depth=16 --seed=1 --telemetry-window-ns=50000
             --slo-ns=200000)
for run in j1 j4 rerun; do
  j=1; [[ "$run" == j4 ]] && j=4
  extra=()
  [[ "$run" == j1 ]] && extra=(--metrics-out="$WORK/serve.trace.json")
  build/tools/graphpim_serve "${SERVE_FLAGS[@]}" --jobs="$j" "${extra[@]}" \
      > "$WORK/serve.$run.out"
  sed -n '/^== saturation table ==$/,/^== end saturation table ==$/p' \
      "$WORK/serve.$run.out" > "$WORK/serve.$run.table"
done
for pair in "j1 j4" "j1 rerun"; do
  read -r a b <<< "$pair"
  if cmp -s "$WORK/serve.$a.table" "$WORK/serve.$b.table"; then
    echo "   serve.table $a vs $b: identical"
  else
    echo "golden_identity: FAIL — serve saturation table $a vs $b differs:" >&2
    diff "$WORK/serve.$a.table" "$WORK/serve.$b.table" | head -20 >&2
    fail=1
  fi
done
if python3 scripts/validate_trace.py "$WORK/serve.trace.json"; then
  echo "   serve trace artifact: valid"
else
  echo "golden_identity: FAIL — serve --metrics-out rejected by validate_trace.py" >&2
  fail=1
fi

# HEAD-only gate: telemetry timelines (DESIGN.md §17). The base binary
# rejects --telemetry-window-ns, so two halves again: (a) telemetry off is
# the default and passing the knob explicitly at 0 must reproduce the
# flag-less HEAD outputs byte for byte on every pinned scenario; (b) a
# windowed run's timeline must be bit-identical across reruns and across
# --jobs for the sweep journal sidecars, and every artifact must clear
# scripts/validate_trace.py.
echo "== telemetry-off identity (--telemetry-window-ns=0 vs no flag)"
for sc in "${SCENARIOS[@]}"; do
  name="${sc%%|*}"
  read -r -a flags <<< "${sc#*|}"
  build/tools/graphpim_sim "${COMMON[@]}" "${flags[@]}" \
      --telemetry-window-ns=0 --json="$WORK/$name.tele0.json" \
      > "$WORK/$name.tele0.out"
  sed -n '/^config:/,/^uncore energy:/p' "$WORK/$name.tele0.out" \
      > "$WORK/$name.tele0.report"
  for kind in json report; do
    if cmp -s "$WORK/$name.head.$kind" "$WORK/$name.tele0.$kind"; then
      echo "   $name.$kind: identical with telemetry off"
    else
      echo "golden_identity: FAIL — --telemetry-window-ns=0 perturbs $name.$kind:" >&2
      diff "$WORK/$name.head.$kind" "$WORK/$name.tele0.$kind" | head -20 >&2
      fail=1
    fi
  done
done

echo "== timeline determinism (rerun, sweep jobs 1 vs 4)"
for run in first rerun; do
  build/tools/graphpim_sim "${COMMON[@]}" --workload=bfs --mode=graphpim \
      --telemetry-window-ns=5000 --timeline-out="$WORK/tl.$run.jsonl" \
      --metrics-out="$WORK/tl.$run.metrics.json" >/dev/null
done
if cmp -s "$WORK/tl.first.jsonl" "$WORK/tl.rerun.jsonl"; then
  echo "   timeline first vs rerun: identical"
else
  echo "golden_identity: FAIL — timeline first vs rerun differs:" >&2
  diff "$WORK/tl.first.jsonl" "$WORK/tl.rerun.jsonl" | head -20 >&2
  fail=1
fi
# Sweep rows retire in completion order under --jobs=4, so (as with span
# sidecars) the invariant is the sorted interval sidecar lines: the
# telemetry windows and, with --journal-phases=1, the phases.
for j in 1 4; do
  build/tools/graphpim_sim --sweep="workloads=bfs;$GRID" --jobs="$j" \
      --telemetry-window-ns=5000 --journal-phases=1 \
      --journal="$WORK/tl.j$j.jsonl" >/dev/null
  grep -E '^\{"(timeline|phases)_for":' "$WORK/tl.j$j.jsonl" | sort \
      > "$WORK/tl.j$j.sidecars"
done
if cmp -s "$WORK/tl.j1.sidecars" "$WORK/tl.j4.sidecars"; then
  echo "   timeline and phase sidecars: jobs-invariant"
else
  echo "golden_identity: FAIL — timeline or phase sidecars differ across --jobs:" >&2
  diff "$WORK/tl.j1.sidecars" "$WORK/tl.j4.sidecars" | head -20 >&2
  fail=1
fi
if python3 scripts/validate_trace.py "$WORK/tl.first.jsonl" \
    "$WORK/tl.first.metrics.json" "$WORK/tl.j1.jsonl"; then
  echo "   timeline artifacts: valid"
else
  echo "golden_identity: FAIL — timeline artifacts rejected by validate_trace.py" >&2
  fail=1
fi
# CI sets TELEMETRY_OUT_DIR to keep the timelines as build artifacts; the
# work dir itself is wiped by the trap.
if [[ -n "${TELEMETRY_OUT_DIR:-}" ]]; then
  mkdir -p "$TELEMETRY_OUT_DIR"
  cp "$WORK/tl.first.jsonl" "$WORK/tl.first.metrics.json" "$WORK/tl.j1.jsonl" \
     "$TELEMETRY_OUT_DIR/"
fi

# The regression sentinel itself: identical inputs must pass, an injected
# counter drift must trip the non-zero exit CI keys on.
echo "== graphpim_compare sentinel (self-compare passes, drift fails)"
cmake --build build -j "$(nproc)" --target graphpim_compare >/dev/null
if build/tools/graphpim_compare "$WORK/tl.first.jsonl" "$WORK/tl.rerun.jsonl" \
    --tolerance=0 >/dev/null; then
  echo "   self-compare: exit 0"
else
  echo "golden_identity: FAIL — compare of identical timelines reported drift" >&2
  fail=1
fi
python3 - "$WORK/tl.first.jsonl" "$WORK/tl.drift.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
key = next(iter(lines[0]["deltas"]))
lines[0]["deltas"][key] = lines[0]["deltas"][key] * 1.5 + 7
open(sys.argv[2], "w").write("\n".join(json.dumps(l) for l in lines) + "\n")
EOF
if build/tools/graphpim_compare "$WORK/tl.first.jsonl" "$WORK/tl.drift.jsonl" \
    --tolerance=0.02 >/dev/null; then
  echo "golden_identity: FAIL — compare missed an injected counter drift" >&2
  fail=1
else
  echo "   injected drift: exit non-zero"
fi

# HEAD-only gate: the ann.* knobs (DESIGN.md §16). The defaults ARE the
# "knob not given" state — only the hnsw workload and the knn query kind
# read them — so passing every ann flag explicitly at its default must
# reproduce the flag-less HEAD outputs byte for byte on every pinned
# scenario (strict passthrough; same structure as the tracing/pmem gates).
echo "== ann-off identity (explicit default ann.* flags vs no flags)"
ANN_DEFAULTS=(--ann-dim=16 --ann-m=8 --ann-ef-search=32 --ann-k=8
              --ann-queries=16)
for sc in "${SCENARIOS[@]}"; do
  name="${sc%%|*}"
  read -r -a flags <<< "${sc#*|}"
  build/tools/graphpim_sim "${COMMON[@]}" "${flags[@]}" \
      "${ANN_DEFAULTS[@]}" --json="$WORK/$name.ann0.json" \
      > "$WORK/$name.ann0.out"
  sed -n '/^config:/,/^uncore energy:/p' "$WORK/$name.ann0.out" \
      > "$WORK/$name.ann0.report"
  for kind in json report; do
    if cmp -s "$WORK/$name.head.$kind" "$WORK/$name.ann0.$kind"; then
      echo "   $name.$kind: identical with default ann flags"
    else
      echo "golden_identity: FAIL — default ann.* flags perturb $name.$kind:" >&2
      diff "$WORK/$name.head.$kind" "$WORK/$name.ann0.$kind" | head -20 >&2
      fail=1
    fi
  done
done

# HEAD-only gate: k-NN serving over the shared HNSW index (DESIGN.md §16).
# A pure knn mix exercises the emitter registry's new kind end-to-end; its
# saturation table must be jobs- and rerun-invariant like the default mix,
# and the recall self-check printed inside the markers must clear the
# quality bar (>= 0.9 vs brute force).
echo "== knn serve determinism (--mix=knn=1: jobs 1 vs 4, rerun)"
KNN_FLAGS=(--profile=ldbc --vertices=2048 --requests=48 --tenants=2
           --modes=baseline,graphpim --qps-grid=2e5,1e6,5e6
           --queue-depth=16 --seed=1 --mix=knn=1)
for run in j1 j4 rerun; do
  j=1; [[ "$run" == j4 ]] && j=4
  build/tools/graphpim_serve "${KNN_FLAGS[@]}" --jobs="$j" \
      > "$WORK/knn.$run.out"
  sed -n '/^== saturation table ==$/,/^== end saturation table ==$/p' \
      "$WORK/knn.$run.out" > "$WORK/knn.$run.table"
done
for pair in "j1 j4" "j1 rerun"; do
  read -r a b <<< "$pair"
  if cmp -s "$WORK/knn.$a.table" "$WORK/knn.$b.table"; then
    echo "   knn.table $a vs $b: identical"
  else
    echo "golden_identity: FAIL — knn saturation table $a vs $b differs:" >&2
    diff "$WORK/knn.$a.table" "$WORK/knn.$b.table" | head -20 >&2
    fail=1
  fi
done
recall_line="$(grep '^ann self-check:' "$WORK/knn.j1.table" || true)"
if [[ -z "$recall_line" ]]; then
  echo "golden_identity: FAIL — knn serve printed no ann self-check line" >&2
  fail=1
elif ! echo "$recall_line" | \
    awk -F'recall@[0-9]+=' '{exit !($2 + 0 >= 0.9)}'; then
  echo "golden_identity: FAIL — knn recall below 0.9: $recall_line" >&2
  fail=1
else
  echo "   $recall_line (>= 0.9)"
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "golden_identity: PASS — all scenarios byte-identical to $BASE_SHA"
