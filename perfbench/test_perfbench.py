"""Self-tests of the benchmark.

Run from the repository root with either of::

    python3 -m pytest perfbench -q
    python3 perfbench/test_perfbench.py

They use the real workloads shortened to a few simulated milliseconds.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from calib import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CALIBRATOR = Calibrator()


def short(name: str):
    """The named workload, cut down to a few simulated milliseconds."""
    workload = copy.copy(WORKLOADS[name])
    workload.sim_seconds = 0.05 if name == "kv-mftl-gc" else 0.006
    return workload


def quiet_run(workload, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, workload.default_seed, 0.0, trace)


class TestDeterminism(unittest.TestCase):

    def test_same_seed_twice_gives_identical_counters_and_digest(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = short(name)
                first = run.measure_rep(workload, 3, CALIBRATOR)
                second = run.measure_rep(workload, 3, CALIBRATOR)
                self.assertEqual(first.rep.problems, [])
                self.assertEqual(first.rep.digest, second.rep.digest)
                self.assertEqual(run.layer_counters(first),
                                 run.layer_counters(second))

    def test_traced_digest_equals_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = short(name)
                plain = run.measure_rep(workload, 5, CALIBRATOR)
                traced = run.measure_rep(workload, 5, CALIBRATOR, Tracer())
                self.assertEqual(plain.rep.digest, traced.rep.digest)
                self.assertGreater(traced.tracer.counts["spawns"], 0)

    def test_tracer_restores_every_entry_point(self):
        from repro.net.rpc import RpcNode
        from repro.sim.core import Simulator
        import repro.net.network as network_mod

        before = (Simulator.process, RpcNode.register,
                  network_mod.wire_size_of)
        with Tracer():
            self.assertIsNot(Simulator.process, before[0])
        self.assertEqual((Simulator.process, RpcNode.register,
                          network_mod.wire_size_of), before)


class TestCalibration(unittest.TestCase):

    def test_calibration_imports_nothing_from_repro(self):
        with open(os.path.join(BENCH_DIR, "calib.py")) as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        self.assertEqual(imported, {"__future__", "heapq", "time"})
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import calib; calib.Calibrator().measure(10); "
                 "print(any(m.split('.')[0] == 'repro' for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe, BENCH_DIR],
                             capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")


class TestMetrics(unittest.TestCase):

    def test_metric_names_are_valid_and_listed(self):
        bench = run.load_spec()
        end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in WORKLOADS:
            for trace, listed in ((False, end_to_end), (True, per_layer)):
                with self.subTest(workload=name, trace=trace):
                    result = quiet_run(short(name), trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(listed))
                    for metric, entry in metrics.items():
                        self.assertRegex(metric, NAME)
                        self.assertEqual(entry["unit"], listed[metric])

    def test_benchmark_json_names_the_workloads(self):
        bench = run.load_spec()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.fullmatch(n) for n in names))

    def test_bypass_prediction_miss_is_reported(self):
        layer = {"net.msgs_per_op": 1.0, "ftl.gc_runs": 0}
        problems = run.bypass_problems(WORKLOADS["kv-mftl-gc"], layer)
        self.assertEqual(len(problems), 2)
        self.assertEqual(
            run.bypass_problems(WORKLOADS["retwis-fig8"], layer), [])


if __name__ == "__main__":
    unittest.main()
