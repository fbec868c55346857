#!/usr/bin/env python3
"""Host-time benchmark of the GraphPIM simulator.

    python3 simbench/run.py --workload bfs-ldbc1m-paired --seed 1 --seconds 35 --trace 0

Builds simbench_pass (simbench/CMakeLists.txt) from the checkout's own
sources into .bench_build/simbench, then runs benchmark passes of the named
workload until the next pass would overrun --seconds (at least MIN_PASSES,
or one untraced and one traced pass with --trace 1). Each pass is one
simbench_pass process, so the simulated machine, the allocator and the process's
peak memory all start fresh, as in a user's batch run.

Every pass is checked for simulator correctness (conservation invariants,
and identical simulated counters across passes of one seed); a pass that
fails a check counts as failed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end host-time metrics (AGGREGATE folds passes into one
value); with --trace 1 untraced and traced passes alternate, and the
metrics are per-layer: stage times, self times from the traced passes'
spans, simulated event counts, substrate rates and tracing overhead. Spans
are written to .bench_build/simbench-trace/ when the run ends. See
simbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "simbench")
TRACE_DIR = os.path.join(OUT_DIR, "simbench-trace")
PASS_BIN = os.path.join(BUILD_DIR, "simbench_pass")

# Paper Fig 7 GraphPIM speedups, as read in EXPERIMENTS.md.
PAPER_SPEEDUP = {"bfs": 2.2, "prank": 2.4}

WORKLOADS = {
    # Front-end heavy: RMAT generation + CSR build are over half the pass.
    "bfs-ldbc1m-paired": {"pass": "paired", "algo": "bfs",
                          "vertices": 1048576, "opcap": 12000000},
    # Replay heavy: Baseline + GraphPIM replay are over nine tenths of it.
    "prank-ldbc64k-paired": {"pass": "paired", "algo": "prank",
                             "vertices": 65536, "opcap": 12000000},
    # Serving: thousands of short cold-start replays behind an admission
    # queue (2 tenants, 2e5 qps: constants of simbench_pass's serve pass).
    "serve-ldbc64k": {"pass": "serve", "vertices": 65536, "requests": 4000},
}

# Untraced passes a --trace 0 run makes even when they overrun --seconds.
# Normally --seconds allows more (four 8 s passes of bfs-ldbc1m-paired fit
# in 35 s); when the host is slow, stopping at three keeps the run near
# --seconds.
MIN_PASSES = 3

# How a run folds its passes into one value. Host noise here comes from
# other tenants of the machine and only ever slows a pass, in episodes that
# can last a minute, so host times are the best of the run's passes
# (min-of-N). Set-up time and memory are medians.
AGGREGATE = {"run_s": min, "replay_mops": max, "cpu_s": min,
             "setup_s": statistics.median, "peak_rss_mb": statistics.median}

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("replay_mops", "Mops/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("graph.generate_s", "s"),
    ("graph.csr_s", "s"),
    ("graph.edges", "count"),
    ("graph.generate_medges_per_s", "Medges/s"),
    ("graph.csr_medges_per_s", "Medges/s"),
    ("graph.self_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.uops", "count"),
    ("workloads.trace_mops", "Mops/s"),
    ("workloads.self_s", "s"),
    ("core.replay_s.baseline", "s"),
    ("core.replay_s.graphpim", "s"),
    ("core.replay_mops.baseline", "Mops/s"),
    ("core.replay_mops.graphpim", "Mops/s"),
    ("core.export_s", "s"),
    ("core.call_overhead_us", "us"),
    ("core.self_s", "s"),
    ("cpu.insts", "count"),
    ("cpu.atomics", "count"),
    ("cpu.offloaded_atomics", "count"),
    ("cpu.host_ns_per_inst.baseline", "ns"),
    ("cpu.host_ns_per_inst.graphpim", "ns"),
    ("mem.l1_misses", "count"),
    ("mem.l3_misses", "count"),
    ("mem.atomic_reqs", "count"),
    ("mem.coherence_invals", "count"),
    ("mem.cache_lookup_ns", "ns"),
    ("mem.hierarchy_access_ns", "ns"),
    ("hmc.reads", "count"),
    ("hmc.atomics", "count"),
    ("hmc.req_flits", "count"),
    ("hmc.row_misses", "count"),
    ("hmc.read_ns", "ns"),
    ("hmc.atomic_ns", "ns"),
    ("serve.graph_s", "s"),
    ("serve.point_s.baseline", "s"),
    ("serve.point_s.graphpim", "s"),
    ("serve.batches.baseline", "count"),
    ("serve.batches.graphpim", "count"),
    ("serve.replayed_ops", "count"),
    ("serve.host_us_per_batch", "us"),
    ("serve.self_s", "s"),
    ("pass.run_s", "s"),
    ("pass.self_s", "s"),
    ("trace.span_ns", "ns"),
    ("trace.overhead_s", "s"),
    ("trace.run_delta_s", "s"),
    ("trace.spans", "count"),
]

LAYERS = ["graph", "workloads", "core", "serve", "pass"]


def log(msg):
    print("simbench: " + msg, file=sys.stderr, flush=True)


def child_env():
    """Keeps compiler and simbench_pass temporaries inside the checkout."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds simbench_pass; raises on failure."""
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "simbench_pass", "-j", jobs]]
    with open(os.path.join(OUT_DIR, "simbench-build.log"), "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                raise RuntimeError("build step failed: %s (see %s)"
                                   % (" ".join(cmd), logf.name))


def pass_args(spec, seed, spans):
    args = [PASS_BIN, "--pass=" + spec["pass"], "--seed=%d" % seed,
            "--spans=%d" % int(spans)]
    for key, value in spec.items():
        if key != "pass":
            args.append("--%s=%s" % (key, value))
    return args


def run_pass(args):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError("simbench_pass failed (%d): %s"
                           % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks


def check_pass(rec, spec):
    """Returns the simulator invariants this pass violates (empty = ok)."""
    bad = []
    base, pim = rec["modes"]["baseline"], rec["modes"]["graphpim"]

    def expect(ok, what):
        if not ok:
            bad.append(what)

    expect(base["insts"] == pim["insts"], "insts differ across modes")
    expect(base["offloaded_atomics"] == 0, "baseline offloaded atomics")
    expect(base["hmc_atomics"] == 0, "baseline issued HMC atomics")
    expect(pim["offloaded_atomics"] == pim["atomics"] == pim["hmc_atomics"],
           "graphpim offloaded != atomics != hmc.atomics")
    if rec["pass"] == "paired":
        c = rec["counts"]
        for name, m in rec["modes"].items():
            expect(m["insts"] + c["workloads.barrier_ops"] == c["workloads.uops"],
                   name + " replayed ops != trace ops")
            expect(m["cycles"] > 0, name + " simulated no cycles")
        expect(c["core.export_bytes"] > 0, "export produced nothing")
    else:
        for name, m in rec["modes"].items():
            expect(m["served"] + m["dropped"] == m["offered"] == spec["requests"],
                   name + " served + dropped != offered")
            expect(m["insts"] == m["replayed_ops"],
                   name + " replayed ops != emitted ops")
    return bad


def simulated(rec):
    """The deterministic part of a pass: equal for equal seeds."""
    return json.dumps([rec["modes"], rec.get("counts")], sort_keys=True)


# --------------------------------------------------------------- metrics


def replay_totals(rec):
    """(micro-ops replayed, host seconds spent replaying) over the pass."""
    st, modes = rec["stages"], rec["modes"]
    if rec["pass"] == "paired":
        secs = st["core.replay_s.baseline"] + st["core.replay_s.graphpim"]
        return sum(m["insts"] for m in modes.values()), secs
    # Serve replays happen inside RunServePoint; its wall time is the bound.
    secs = st["serve.point_s.baseline"] + st["serve.point_s.graphpim"]
    return sum(m["replayed_ops"] for m in modes.values()), secs


def end_to_end(rec):
    ops, secs = replay_totals(rec)
    return {"run_s": rec["run_s"], "setup_s": rec["setup_s"],
            "replay_mops": ops / secs / 1e6, "cpu_s": rec["cpu_s"],
            "peak_rss_mb": rec["peak_rss_mb"]}


def self_times(spans):
    """Per-layer self time: span duration minus its children's durations."""
    child = {}
    for _, parent, _, start, end in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, _, name, start, end in spans:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def per_layer(rec):
    """Per-layer metrics of one traced pass (0 where a layer is not run)."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    st, modes = rec["stages"], rec["modes"]
    base, pim = modes["baseline"], modes["graphpim"]
    for key, value in st.items():
        if key in m:
            m[key] = value
    if rec["pass"] == "paired":
        c = rec["counts"]
        m["graph.edges"] = c["graph.edges"]
        m["graph.generate_medges_per_s"] = c["graph.edges"] / st["graph.generate_s"] / 1e6
        m["graph.csr_medges_per_s"] = c["graph.edges"] / st["graph.csr_s"] / 1e6
        m["workloads.uops"] = c["workloads.uops"]
        m["workloads.trace_mops"] = c["workloads.uops"] / st["workloads.trace_s"] / 1e6
        replay = {k: st["core.replay_s." + k] for k in modes}
        for k, secs in replay.items():
            m["core.replay_mops." + k] = modes[k]["insts"] / secs / 1e6
    else:
        for k, mode in modes.items():
            m["serve.batches." + k] = mode["batches"]
        m["serve.replayed_ops"] = pim["replayed_ops"]
        batches = base["batches"] + pim["batches"]
        m["serve.host_us_per_batch"] = replay_totals(rec)[1] / batches * 1e6
        replay = {k: st["serve.point_s." + k] for k in modes}
    for k, secs in replay.items():
        m["cpu.host_ns_per_inst." + k] = secs / modes[k]["insts"] * 1e9
    m["cpu.insts"] = pim["insts"]
    m["cpu.atomics"] = pim["atomics"]
    m["cpu.offloaded_atomics"] = pim["offloaded_atomics"]
    for key in ("l1_misses", "l3_misses", "atomic_reqs", "coherence_invals"):
        m["mem." + key] = base[key]
    for key in ("reads", "atomics", "req_flits", "row_misses"):
        m["hmc." + key] = pim["hmc_" + key]
    for layer, secs in self_times(rec["spans"]).items():
        m[layer + ".self_s"] = secs
    m["pass.run_s"] = rec["run_s"]
    m["trace.spans"] = len(rec["spans"])
    return m


# ------------------------------------------------------------------- run


def fidelity_lines(name, spec, rec):
    """Simulated (not host-time) results: printed, never gated."""
    modes = rec["modes"]
    if spec["pass"] == "paired":
        speedup = modes["baseline"]["cycles"] / modes["graphpim"]["cycles"]
        paper = PAPER_SPEEDUP.get(spec["algo"])
        ref = ("paper Fig 7 GraphPIM ~%.1fx, error %+.1f%%"
               % (paper, (speedup / paper - 1) * 100) if paper else "no paper reading")
        return ["simulated (ungated) %s: sim.cycles.baseline=%d sim.cycles.graphpim=%d "
                "sim.speedup=%.3f | %s" % (name, modes["baseline"]["cycles"],
                                           modes["graphpim"]["cycles"], speedup, ref)]
    return ["simulated (ungated) %s: sim.p99_ns.baseline=%.1f sim.p99_ns.graphpim=%.1f"
            % (name, modes["baseline"]["p99_ns"], modes["graphpim"]["p99_ns"])]


def write_trace(name, seed, traced):
    """Writes every traced pass's spans as one Chrome trace (pid = pass id)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    events = []
    for pass_id, rec in traced:
        for sid, parent, span, start, end in rec["spans"]:
            events.append({"name": span, "cat": span.split(".")[0], "ph": "X",
                           "pid": pass_id, "tid": 0, "ts": start * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": {"span": sid, "parent": parent, "pass": pass_id}})
    path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (name, seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


def measure(name, spec, seed, seconds, trace):
    """Runs passes of one workload; returns the benchmark result object."""
    start = time.monotonic()
    records = []  # (traced?, record, violations)
    attempted = failed = 0
    reference = None
    walls = []
    while True:
        traced = trace and attempted % 2 == 1
        began = time.monotonic()
        attempted += 1
        try:
            rec = run_pass(pass_args(spec, seed, traced))
        except (RuntimeError, ValueError, KeyError) as err:
            failed += 1
            log("pass %d failed to run: %s" % (attempted, err))
            rec = None
        if rec is not None:
            bad = check_pass(rec, spec)
            if reference is None:
                reference = simulated(rec)
            elif simulated(rec) != reference:
                bad.append("simulated counters differ from the seed's first pass")
            if bad:
                failed += 1
                log("pass %d failed checks: %s" % (attempted, "; ".join(bad)))
            records.append((traced, rec, bad))
        walls.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        need = 2 if trace else MIN_PASSES
        if attempted >= need and elapsed + max(walls) > seconds:
            break
        if attempted >= 64:
            break
    if not records:
        raise RuntimeError("no pass of %s completed" % name)

    good = [(t, r) for t, r, bad in records if not bad] or \
           [(t, r) for t, r, _ in records]
    for line in fidelity_lines(name, spec, good[0][1]):
        print(line)
    untraced = [end_to_end(r) for t, r in good if not t]
    if trace:
        traced = [(i, r) for i, (t, r) in enumerate(good) if t]
        if not traced or not untraced:
            raise RuntimeError("trace run needs a traced and an untraced pass")
        layers = [per_layer(r) for _, r in traced]
        values = {n: statistics.median(p[n] for p in layers) for n, _ in PER_LAYER}
        substrate = run_pass([PASS_BIN, "--pass=substrate"])
        for key in ("mem.cache_lookup_ns", "mem.hierarchy_access_ns",
                    "hmc.read_ns", "hmc.atomic_ns", "core.call_overhead_us",
                    "trace.span_ns"):
            values[key] = substrate[key]
        # What tracing adds to a pass: its spans times the cost of one.
        values["trace.overhead_s"] = values["trace.span_ns"] * values["trace.spans"] * 1e-9
        # Sanity line only: best traced minus best untraced run_s is mostly
        # host noise between passes, and can be negative.
        values["trace.run_delta_s"] = (min(r["run_s"] for _, r in traced)
                                       - min(u["run_s"] for u in untraced))
        log("spans written to %s" % write_trace(name, seed, traced))
        units = PER_LAYER
    else:
        values = {n: AGGREGATE[n](u[n] for u in untraced) for n, _ in END_TO_END}
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as err:
        log("error: %s" % err)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
