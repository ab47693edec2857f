"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that a run prints every metric named in BENCHMARK.json with its
unit, on every workload and in both modes, that a result corrupted inside
the benchmark's check path counts as a failure and makes the run exit
non-zero, and that the benchmark refuses to run without the package
sources.  The passes run in this process with one or two ops of each shape.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import loop  # noqa: E402  (puts src on the path)
import run  # noqa: E402
import workloads  # noqa: E402
from gl11kl import oracle  # noqa: E402
from gl11kl.labels import FormalSum  # noqa: E402
from gl11kl.series import JacobiSeries  # noqa: E402


def tiny(name):
    wl = workloads.WORKLOADS[name]()
    if name == "label-stream":
        wl.make_up = {"VA": 1, "AP": 1, "PV": 1}
    elif name == "char-sweep":
        wl.max_depth, wl.max_atypical_cutoff, wl.induced_per_block = 3, 2, 2
    elif name == "oracle-crosscheck":
        wl.make_up = {"VV": 1, "VV*": 1, "AP": 1, "VVV": 1}
    else:
        wl.make_up = {
            "fuse": 1, "induce": 1, "char V 3": 1, "char A 2": 1, "oracle VV*": 1,
            "kz": 1, "out-of-scope": 1, "malformed": 1,
        }
    return wl


def corrupted(wl):
    """The workload with every result altered before its check."""
    honest = wl.run

    def run_and_corrupt(item, tr):
        out = honest(item, tr)
        if wl.name == "label-stream":
            out["ab"] = out["ab"] + FormalSum(workloads.UNIT)
        elif wl.name == "char-sweep":
            if item[0] == "induced":
                return out[:3] + (False,)
            out = JacobiSeries({**out.terms, (Fraction(-99), 0, 0): -1})
        elif wl.name == "oracle-crosscheck":
            out = (out[0], {**out[1], oracle.Atypical(Fraction(99)): 1})
        else:
            out = subprocess.CompletedProcess(out.args, out.returncode, "corrupted", "corrupted")
        return out

    wl.run = run_and_corrupt
    return wl


class TinyRuns(unittest.TestCase):
    def main_output(self, workload, trace, make=tiny):
        def tiny_pass(name, seed, seconds, trace):
            return loop.measure(name, seed, 0, bool(trace), min_ops=4, workload=make(name))

        stdout = io.StringIO()
        with mock.patch.object(run, "loop_pass", tiny_pass), \
                mock.patch.multiple(run, SETUP_RUNS=1, INTERPRETER_RUNS=1), \
                contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
        return code, json.loads(stdout.getvalue().splitlines()[-1])

    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    code, result = self.main_output(w["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_corrupted_results_count_as_failures(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = loop.run_pass(name, 3, 0, False, min_ops=4, workload=corrupted(tiny(name)))
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_a_corrupted_run_exits_nonzero(self):
        code, result = self.main_output("oracle-crosscheck", 0, make=lambda n: corrupted(tiny(n)))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = BENCH / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "label-stream", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
