#!/usr/bin/env python3
"""Self-tests of the simulator benchmark at tiny sizes.

    python3 simbench/test_simbench.py

Builds simbench_pass like run.py does (into .bench_build/simbench), then runs
passes on a 2048-vertex graph, which take milliseconds.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = {
    "paired": dict(run.WORKLOADS["bfs-ldbc1m-paired"], vertices=2048, opcap=150000),
    "serve": dict(run.WORKLOADS["serve-ldbc64k"], vertices=2048, requests=48),
}


def one_pass(spec, seed=1, spans=False):
    return run.run_pass(run.pass_args(spec, seed, spans))


class SimbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_metric_prints_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = {
            False: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            True: [(m["name"], m["unit"]) for m in bench["per_layer"]],
        }
        self.assertEqual(declared[False], run.END_TO_END)
        self.assertEqual(declared[True], run.PER_LAYER)
        for kind, spec in TINY.items():
            for trace in (False, True):
                with self.subTest(kind=kind, trace=trace):
                    result = run.measure("tiny-" + kind, spec, 1, 0, trace)
                    json.dumps(result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    metrics = result["metrics"]
                    self.assertEqual(
                        [(n, m["unit"]) for n, m in metrics.items()], declared[trace])
                    for name, m in metrics.items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if not trace:
                            self.assertGreater(m["value"], 0, name)

    def test_layer_self_times_sum_to_run_s(self):
        for kind, spec in TINY.items():
            with self.subTest(kind=kind):
                m = run.per_layer(one_pass(spec, spans=True))
                layers = sum(m[layer + ".self_s"] for layer in run.LAYERS
                             if layer != "pass")
                self.assertAlmostEqual(layers / m["pass.run_s"], 1.0, delta=0.05)

    def test_injected_violation_fails_the_pass(self):
        tamper = {
            "paired": [
                lambda r: r["modes"]["graphpim"].update(insts=r["modes"]["graphpim"]["insts"] + 1),
                lambda r: r["modes"]["baseline"].update(offloaded_atomics=1),
                lambda r: r["modes"]["baseline"].update(hmc_atomics=1),
                lambda r: r["modes"]["graphpim"].update(hmc_atomics=0),
                lambda r: r["counts"].update({"workloads.uops": r["counts"]["workloads.uops"] + 1}),
            ],
            "serve": [
                lambda r: r["modes"]["baseline"].update(dropped=1),
                lambda r: r["modes"]["graphpim"].update(offloaded_atomics=0),
                lambda r: r["modes"]["graphpim"].update(replayed_ops=1),
            ],
        }
        for kind, spec in TINY.items():
            clean = one_pass(spec)
            self.assertEqual(run.check_pass(clean, spec), [])
            for i, bad in enumerate(tamper[kind]):
                with self.subTest(kind=kind, violation=i):
                    rec = json.loads(json.dumps(clean))
                    bad(rec)
                    self.assertNotEqual(run.check_pass(rec, spec), [])

        # Through the whole run: the second pass reports one extra offloaded
        # atomic, and the run counts exactly that pass as failed.
        spec = TINY["paired"]
        real_run_pass = run.run_pass
        calls = []

        def injecting_run_pass(args):
            rec = real_run_pass(args)
            calls.append(args)
            if len(calls) == 2:
                rec["modes"]["graphpim"]["offloaded_atomics"] += 1
            return rec

        run.run_pass = injecting_run_pass
        try:
            result = run.measure("tiny-inject", spec, 1, 0, False)
        finally:
            run.run_pass = real_run_pass
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], run.MIN_PASSES)

    def test_seed_changes_inputs_and_repeats_exactly(self):
        spec = TINY["paired"]
        a, b, c = one_pass(spec, 1), one_pass(spec, 1), one_pass(spec, 2)
        self.assertEqual(run.simulated(a), run.simulated(b))
        self.assertNotEqual(run.simulated(a), run.simulated(c))

    def test_pass_without_a_workload_flag_fails(self):
        for kind, spec in TINY.items():
            args = run.pass_args(spec, 1, False)
            for i in range(1, len(args)):
                with self.subTest(kind=kind, missing=args[i]):
                    with self.assertRaises(RuntimeError):
                        run.run_pass(args[:i] + args[i + 1:])

    def test_unknown_workload_fails_without_a_result(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
