"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Shows that the corpus generator is byte-deterministic for a seed and
refuses corpora that break its size rules, that every output check passes
real reports and rejects deliberately corrupted ones, and that the smoke
mode finishes in seconds, prints exactly the metrics BENCHMARK.json names,
repeats its counts exactly, and refuses to run without the sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from unittest import mock

import checks
import corpus
import run

SCRATCH = run.OUT / "selftest"


def _build(workload, seed, tag, size="smoke"):
    return corpus.build(workload, seed, SCRATCH / tag / f"{workload}-{seed}", size)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in corpus.WORKLOADS:
            a = [s.path.read_bytes() for s in _build(workload, 5, "a", "full")]
            b = [s.path.read_bytes() for s in _build(workload, 5, "b", "full")]
            c = [s.path.read_bytes() for s in _build(workload, 6, "c", "full")]
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_ladder_grid_within_oracle_cap_is_refused(self):
        with mock.patch.dict(corpus._LADDER, {"smoke": [(3, 5, None, 20)]}):
            with self.assertRaisesRegex(corpus.CorpusError, "oracle cap"):
                _build("scarf-ladder", 1, "refuse")

    def test_deep_grid_within_oracle_cap_is_refused(self):
        with mock.patch.dict(corpus._DEEP, {"smoke": [(4, 6, 12)]}):
            with self.assertRaisesRegex(corpus.CorpusError, "oracle cap"):
                _build("deep-bounds", 1, "refuse")

    def test_profit_generator_count_over_budget_is_refused(self):
        with mock.patch.dict(corpus._PROFIT, {"smoke": [((60, 60, 60), ((1, 1), (1, 1), (1, 1)), None)]}):
            with self.assertRaisesRegex(corpus.CorpusError, "budget"):
                _build("profit-grid", 1, "refuse")

    def test_profit_generator_count_out_of_reach_is_refused(self):
        with mock.patch.dict(corpus._PROFIT, {"smoke": [((30, 30), ((1, 1), (4, 7)), 99)]}):
            with self.assertRaisesRegex(corpus.CorpusError, "no coefficients"):
                _build("profit-grid", 1, "refuse")

    def test_profit_minimal_points_match_a_full_scan(self):
        linear, levels = (2, 3, 7), (6, 5, 4)
        cutoff = 17

        def reaches(a):
            return sum(c * x for c, x in zip(linear, a)) >= cutoff

        grid = [(a, b, c) for a in range(6) for b in range(5) for c in range(4)]
        minimal = {
            p for p in grid
            if reaches(p) and not any(
                p[i] > 0 and reaches(p[:i] + (p[i] - 1,) + p[i + 1:]) for i in range(3)
            )
        }
        self.assertEqual(set(corpus.profit_minimal_points(linear, cutoff, levels)), minimal)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        import scarfrel.cli

        runner = run.Runner(scarfrel.cli.main)
        cls.reports = {}
        for workload in corpus.WORKLOADS:
            for spec in _build(workload, 3, "checks"):
                for command in spec.commands:
                    rc, text = runner.invoke(spec, command)
                    assert rc == 0, text
                    cls.reports[(spec.name, command)] = (spec, json.loads(text))

    def report(self, prefix, command):
        for (name, cmd), (spec, payload) in self.reports.items():
            if name.startswith(prefix) and cmd == command:
                return spec, copy.deepcopy(payload)
        raise LookupError(prefix)

    def assertRejected(self, command, spec, payload):
        with self.assertRaises(checks.CheckError):
            checks.CHECKS[command](spec, payload)

    def test_real_reports_pass(self):
        for (name, command), (spec, payload) in self.reports.items():
            with self.subTest(spec=name, command=command):
                checks.CHECKS[command](spec, payload)

    def test_dropped_face_is_rejected(self):
        for prefix in ("ladder-d3", "ladder-d8", "profit-1"):
            spec, payload = self.report(prefix, "scarf")
            dropped = payload["faces"].pop()
            payload["face_count"] -= 1
            payload["facets"] = [f for f in payload["facets"] if f != dropped["members"]]
            self.assertRejected("scarf", spec, payload)
            spec, payload = self.report(prefix, "reliability")
            payload["faces"].pop()
            payload["terms"].pop()
            payload["term_count"] -= 1
            self.assertRejected("reliability", spec, payload)

    def test_perturbed_identity_is_rejected(self):
        spec, payload = self.report("ladder-d8", "reliability")
        payload["identity_value"] += 1e-6
        self.assertRejected("reliability", spec, payload)
        spec, payload = self.report("profit-2", "reliability")
        payload["oracle_value"] += 1e-6
        self.assertRejected("reliability", spec, payload)
        spec, payload = self.report("deep", "compare")
        payload["identity_scarf"] += 1e-6
        self.assertRejected("compare", spec, payload)

    def test_bound_on_wrong_side_is_rejected(self):
        spec, clean = self.report("deep", "bounds")
        exact = checks.reference_identity(spec)
        for depth, shift in ((1, -1e-6), (2, 1e-6)):
            payload = copy.deepcopy(clean)
            payload["rows"][depth - 1]["scarf"] = exact + shift
            self.assertRejected("bounds", spec, payload)
        payload = copy.deepcopy(clean)
        row = payload["rows"][0]
        row["bonferroni"] = row["scarf"] - 1e-6  # Bonferroni tighter than Scarf
        self.assertRejected("bounds", spec, payload)


def _metric_names():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def _bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    command = [sys.executable, str(script), *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_prints_every_metric_and_repeats_counts(self):
        end_to_end, per_layer = _metric_names()
        for workload in corpus.WORKLOADS:
            counts = []
            for trace in (0, 1, 1):
                start = time.perf_counter()
                proc = _bench("--workload", workload, "--seed", "4", "--seconds", "1",
                              "--trace", str(trace), "--smoke")
                self.assertLess(time.perf_counter() - start, 60)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(list(result["metrics"]), per_layer if trace else end_to_end)
                if trace:
                    counts.append({k: m["value"] for k, m in result["metrics"].items()
                                   if m["unit"] == "count"})
            self.assertEqual(counts[0], counts[1], workload)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "deep-bounds", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / run.HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
