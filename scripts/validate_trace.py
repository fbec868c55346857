#!/usr/bin/env python3
"""Strict validator for the simulator's trace artifacts.

Accepts any mix of:
  * Chrome-trace files (graphpim_sim --metrics-out=x.json): must parse as
    strict JSON with a traceEvents list; every event needs name/ph/pid, X
    events need ts and a non-negative dur, C (counter) events need a
    non-negative ts, a numeric args dict, and non-rewinding timestamps per
    (pid, name) track.
  * JSONL files (--metrics-out=x.jsonl, --timeline-out, or a sweep
    --journal): every line must parse as strict JSON; phase lines (and the
    phases of journal {"phases_for":...} sidecars) need start_ns <= end_ns,
    and each phase must start where the previous one ended; span
    lines/objects need known stage names and enter_ns <= exit_ns; telemetry
    window lines (and journal {"timeline_for":...} sidecars) need
    contiguous indices per point and monotonic, non-overlapping window
    timestamps.

Exits 0 when every file validates, 1 with a diagnostic otherwise. Stdlib
only — runs anywhere CI has python3.

Usage: scripts/validate_trace.py FILE [FILE...]
"""

import json
import sys

STAGES = {
    "issue", "cache", "pou", "hop", "cube_link",
    "vault_queue", "bank", "fu", "response",
}


def fail(path, msg):
    print(f"validate_trace: {path}: {msg}", file=sys.stderr)
    return False


def check_span(path, span):
    for key in ("id", "core", "kind", "begin_ns", "end_ns", "stages"):
        if key not in span:
            return fail(path, f"span missing key '{key}': {span}")
    if span["kind"] not in ("R", "W", "A"):
        return fail(path, f"span has unknown kind '{span['kind']}'")
    if span["begin_ns"] > span["end_ns"]:
        return fail(path, f"span {span['id']} ends before it begins")
    for st in span["stages"]:
        if st.get("s") not in STAGES:
            return fail(path, f"span {span['id']} has unknown stage '{st.get('s')}'")
        if st["enter_ns"] > st["exit_ns"]:
            return fail(path, f"span {span['id']} stage {st['s']} exits before entry")
        if st["enter_ns"] < span["begin_ns"] - 1e-6:
            return fail(path, f"span {span['id']} stage {st['s']} precedes the span")
    return True


def check_chrome(path, doc):
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(path, "no traceEvents list")
    counter_ts = {}  # (pid, name) -> last ts; counter tracks must not rewind
    for ev in events:
        for key in ("name", "ph", "pid"):
            if key not in ev:
                return fail(path, f"event missing key '{key}': {ev}")
        if ev["ph"] == "X":
            if "ts" not in ev or "dur" not in ev:
                return fail(path, f"X event missing ts/dur: {ev}")
            if ev["dur"] < 0:
                return fail(path, f"X event has negative dur: {ev}")
        elif ev["ph"] == "C":
            if "ts" not in ev or ev["ts"] < 0:
                return fail(path, f"C event missing ts or ts < 0: {ev}")
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                return fail(path, f"C event needs a non-empty args dict: {ev}")
            for k, v in args.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    return fail(path,
                                f"C event arg '{k}' is not numeric: {ev}")
            track = (ev["pid"], ev["name"])
            if track in counter_ts and ev["ts"] < counter_ts[track]:
                return fail(path,
                            f"C track {track} timestamps rewind at {ev['ts']}")
            counter_ts[track] = ev["ts"]
    print(f"validate_trace: {path}: OK ({len(events)} events)")
    return True


def check_phase(path, i, phase, prev_end):
    """One phase interval; prev_end is where the previous phase of the same
    log ended (None for the first). Returns this phase's end_ns, or None
    when the phase fails."""
    for key in ("phase", "start_ns", "end_ns", "deltas"):
        if key not in phase:
            fail(path, f"line {i}: phase missing key '{key}'")
            return None
    if phase["start_ns"] > phase["end_ns"]:
        fail(path, f"line {i}: phase {phase['phase']} ends before it starts")
        return None
    if prev_end is not None and phase["start_ns"] != prev_end:
        fail(path, f"line {i}: phase {phase['phase']} starts at "
                   f"{phase['start_ns']}, not where the previous phase ended "
                   f"({prev_end})")
        return None
    return phase["end_ns"]


def check_window(path, i, obj, last_window):
    """One telemetry timeline line; last_window maps point -> (index, end)."""
    for key in ("window", "start_ns", "end_ns", "deltas", "gauges"):
        if key not in obj:
            return fail(path, f"line {i}: window line missing key '{key}'")
    if obj["start_ns"] > obj["end_ns"]:
        return fail(path, f"line {i}: window ends before it starts")
    for field in ("deltas", "gauges"):
        if not isinstance(obj[field], dict):
            return fail(path, f"line {i}: window '{field}' is not an object")
        for k, v in obj[field].items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                return fail(path,
                            f"line {i}: window {field}['{k}'] is not numeric")
    point = obj.get("point", "")
    prev = last_window.get(point)
    if prev is not None:
        prev_index, prev_end = prev
        if obj["window"] != prev_index + 1:
            return fail(path, f"line {i}: window index {obj['window']} breaks "
                              f"sequence (previous {prev_index})")
        if obj["start_ns"] < prev_end:
            return fail(path, f"line {i}: window timestamps not monotonic "
                              f"(start {obj['start_ns']} < previous end "
                              f"{prev_end})")
    elif obj["window"] != 0:
        return fail(path, f"line {i}: first window of a point must have "
                          f"index 0, got {obj['window']}")
    last_window[point] = (obj["window"], obj["end_ns"])
    return True


def check_jsonl(path, lines):
    phases = spans = windows = rows = 0
    phase_end = None  # end_ns of the file's previous phase line
    last_window = {}  # point -> (index, end_ns) across the file
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(path, f"line {i} is not strict JSON: {e}")
        if "phase" in obj:
            phases += 1
            phase_end = check_phase(path, i, obj, phase_end)
            if phase_end is None:
                return False
        elif "phases_for" in obj:
            # Journal sidecar: the embedded phases validate like phase
            # lines, in order within this sidecar.
            sidecar_end = None
            for phase in obj.get("phases", []):
                phases += 1
                sidecar_end = check_phase(path, i, phase, sidecar_end)
                if sidecar_end is None:
                    return False
        elif "spans_for" in obj or "stages" in obj:
            group = obj.get("spans", [obj] if "stages" in obj else [])
            for span in group:
                spans += 1
                if not check_span(path, span):
                    return False
        elif "window" in obj:
            windows += 1
            if not check_window(path, i, obj, last_window):
                return False
        elif "timeline_for" in obj:
            # Journal sidecar: the embedded windows validate like timeline
            # lines, scoped to this sidecar's coordinates.
            sidecar_last = {}
            for w in obj.get("windows", []):
                windows += 1
                if not check_window(path, i, w, sidecar_last):
                    return False
        else:
            rows += 1  # journal header / result rows
    print(f"validate_trace: {path}: OK "
          f"({phases} phases, {spans} spans, {windows} windows, "
          f"{rows} other lines)")
    return True


def check_file(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stripped = text.lstrip()
    if not stripped:
        return fail(path, "empty file")
    # A Chrome trace is one JSON document; everything else we emit is JSONL.
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "traceEvents" in doc:
            return check_chrome(path, doc)
    except json.JSONDecodeError:
        pass
    return check_jsonl(path, text.splitlines())


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    ok = True
    for path in argv[1:]:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
