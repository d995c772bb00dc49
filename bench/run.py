"""Seeded benchmark of the scarfrel command line.

Run from the repository root:

    python3 bench/run.py --workload scarf-ladder --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload, both modes

One run generates the workload's spec corpus from the seed, then calls
``scarfrel.cli.main([command, FILE, "--json"])`` in this process, one call
after another (a closed loop with a single caller), in passes over the
corpus until ``--seconds`` are used up.  Every report is checked outside the
timed region.  ``--trace 0`` times the calls untraced and reports the
end-to-end metrics; ``--trace 1`` alternates untraced passes with traced
ones and reports per-layer self times and counts.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (corpus manifest, per-pass times,
spans) go to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import corpus
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
MIN_PASSES = 3
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50, 75, 90)
# A full run makes at least this many calls, so call_tail_s is always p90.
MIN_CALLS = 10 * TAIL_BEYOND
# Times are reported at a fixed reference speed.  Shared machines run the
# same code up to twice as slow, in episodes that last from a fraction of a
# second to minutes.  So the reference loop (``reference.py``) is timed
# before the first call of a pass and after every call, and each call's time
# is scaled by NOMINAL_S / (mean of the loop times just before and after it).
# The loop shares no code with the package, so a change to the package
# cannot move it.


def timed_at_reference(steps):
    """Run each step and return its time at reference speed and its scale factor."""
    times, factors = [], []
    before = reference.reference_time()
    for step in steps:
        start = perf_counter()
        step()
        elapsed = perf_counter() - start
        after = reference.reference_time()
        factor = 2 * reference.NOMINAL_S / (before + after)
        times.append(elapsed * factor)
        factors.append(factor)
        before = after
    return times, factors


class Runner:
    """Makes CLI calls and checks their reports; counts attempts and failures."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._verified: dict[tuple[str, str], str] = {}
        self.reports: dict[tuple[str, str], dict] = {}

    def invoke(self, spec, command, main=None):
        """One call; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        argv = [command, str(spec.path), "--json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = (main or self.main)(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        if rc != 0:
            out.write(err.getvalue())
        return rc, out.getvalue()

    def verify(self, spec, command, rc, text) -> None:
        self.attempted += 1
        key = (spec.name, command)
        if rc == 0 and self._verified.get(key) == text:
            return
        try:
            if rc != 0:
                raise checks.CheckError(f"{spec.name}: {command} exited {rc}: {text.strip()[:200]}")
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as err:
                raise checks.CheckError(f"{spec.name}: {command} printed invalid JSON: {err}")
            checks.CHECKS[command](spec, payload)
        except (checks.CheckError, KeyError, TypeError, IndexError) as err:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{command} {spec.name}: {type(err).__name__}: {err}")
            return
        self._verified.setdefault(key, text)
        self.reports.setdefault(key, payload)

    def run_pass(self, calls, main=None):
        """One pass over ``calls``; returns per-call times at reference speed and factors.

        Reports are checked after the pass, outside the timed calls.
        """
        results = []

        def step(spec, command):
            return lambda: results.append(self.invoke(spec, command, main))

        times, factors = timed_at_reference([step(spec, command) for spec, command in calls])
        for (spec, command), (rc, text) in zip(calls, results):
            self.verify(spec, command, rc, text)
        return times, factors


# Run by a fresh interpreter: the import of scarfrel.cli, timed in that
# interpreter between two runs of the reference loop, which loads no module
# the package needs.  Interpreter start-up itself is the same for every
# version of the package and is left out.  Prints the import time, the two
# loop times and the module's file.
_SETUP_PROBE = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
from time import perf_counter
from reference import reference_time
before = reference_time()
start = perf_counter()
import scarfrel.cli
took = perf_counter() - start
print(took, before, reference_time(), scarfrel.cli.__file__)
"""


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds (at reference speed) that ``import scarfrel.cli`` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", _SETUP_PROBE]
    # The first import also writes the bytecode cache; it is not counted.
    first = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    imported = first.stdout.split()[-1]
    if not Path(imported).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fresh interpreter imported scarfrel from {imported}")
    times = []
    for _ in range(samples):
        out = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        took, before, after = (float(x) for x in out.stdout.split()[:3])
        times.append(took * 2 * reference.NOMINAL_S / (before + after))
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile of TAIL_PERCENTILES with at least TAIL_BEYOND calls above it.

    Nearest rank.  A fixed list, rather than the highest whole percentile,
    keeps the reported percentile the same when a faster machine fits more
    passes into a run.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank, pct = 1, 0.0
    for p in TAIL_PERCENTILES:
        r = max(1, math.ceil(p * n / 100))
        if n - r >= TAIL_BEYOND:
            rank, pct = r, p
    return xs[rank - 1], pct


def _deadline_passes(seconds, min_passes, one_pass):
    """Run ``one_pass`` at least ``min_passes`` times, then until the next one would end after ``seconds``."""
    start = perf_counter()
    results = []
    while True:
        t0 = perf_counter()
        results.append(one_pass())
        took = perf_counter() - t0
        if len(results) >= min_passes and perf_counter() - start + took > seconds:
            return results


def measure_untraced(runner, calls, seconds, min_calls) -> tuple[dict, dict]:
    setup = measure_setup()
    min_passes = max(MIN_PASSES, math.ceil(min_calls / len(calls)))
    passes = _deadline_passes(seconds, min_passes, lambda: runner.run_pass(calls))
    walls = [sum(times) for times, _ in passes]
    latencies = [t for times, _ in passes for t in times]
    factors = [f for _, per_call in passes for f in per_call]
    tail_s, pct = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_s": (statistics.median(latencies), "s"),
        "call_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "median_factor": statistics.median(factors),
        "passes": len(walls),
        "calls": len(latencies),
        "tail_percentile": pct,
        "setup_samples": setup,
        "pass_walls": walls,
        "latencies": latencies,
        "factors": factors,
    }
    return metrics, notes


def measure_traced(runner, calls, touch, seconds, cli_main) -> tuple[dict, dict]:
    """Alternate an untraced pass with a traced one until time runs out.

    The traced pass replays the workload's calls and then the touch set,
    whose tiny specs run every subcommand so every layer shows a span on
    every workload.  Span times are scaled by their call's reference factor.
    Coverage and overhead compare the workload part of the traced pass with
    the untraced pass just before it.
    """
    tracer = spans.Tracer()
    traced_main = lambda argv: tracer.root(cli_main, argv)  # noqa: E731
    per_pass = []
    all_spans = []

    def pair():
        untraced, _ = runner.run_pass(calls)
        tracer.reset()
        tracer.install()
        try:
            first = tracer.call_id + 1
            traced, factors = runner.run_pass(calls, traced_main)
            workload_ids = set(range(first, tracer.call_id + 1))
            _, touch_factors = runner.run_pass(touch, traced_main)
        finally:
            tracer.uninstall()
        weight = dict(enumerate(factors + touch_factors, start=first))
        own = spans.self_times(tracer.spans, weight)
        layer_work = spans.self_times(tracer.spans, weight, keep=workload_ids)
        covered = sum(layer_work.get(name, 0.0) for name in spans.LAYER_NAMES)
        per_pass.append({
            "self": own,
            "counts": dict(tracer.counts),
            "coverage": covered / sum(untraced),
            "overhead": sum(traced) - sum(untraced),
        })
        all_spans.append(list(tracer.spans))

    _deadline_passes(seconds, MIN_PASSES, pair)
    counts = per_pass[0]["counts"]
    if any(p["counts"] != counts for p in per_pass):
        runner.failed += 1
        runner.failures.append("deterministic counts differ between traced passes")

    def med(key):
        return statistics.median(p["self"].get(key, 0.0) for p in per_pass)

    metrics = {f"{name}_s": (med(name), "s") for name in spans.LAYER_NAMES}
    for tag in (3, 8):
        metrics[f"complexes.scarf_s.d{tag}"] = (med(f"complexes.scarf.d{tag}"), "s")
    metrics["cli.self_s"] = (med(spans.ROOT), "s")
    for name in spans.COUNT_NAMES:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["trace.overhead_s"] = (statistics.median(p["overhead"] for p in per_pass), "s")
    metrics["trace.coverage"] = (statistics.median(p["coverage"] for p in per_pass), "ratio")
    notes = {"pairs": len(per_pass), "missing_targets": tracer.missing, "per_pass": per_pass}
    return metrics, {"notes": notes, "spans": all_spans}


def run_workload(workload, seed, seconds, trace, size) -> dict:
    import scarfrel.cli

    specs = corpus.build(workload, seed, OUT / "corpus" / f"{workload}-{seed}-{size}", size)
    calls = [(s, c) for s in specs if not s.touch for c in s.commands]
    touch = [(s, c) for s in specs if s.touch for c in s.commands]
    runner = Runner(scarfrel.cli.main)
    extra = {}
    if trace:
        metrics, extra = measure_traced(runner, calls, touch, seconds, scarfrel.cli.main)
        notes = extra.pop("notes")
    else:
        metrics, notes = measure_untraced(runner, calls, seconds, MIN_CALLS if size == "full" else 0)
    manifest = []
    for spec in specs:
        entry = spec.manifest()
        for command in ("scarf", "reliability"):
            report = runner.reports.get((spec.name, command))
            if report is not None:
                entry["faces"] = report.get("face_count", report.get("term_count"))
                if command == "reliability":
                    entry["oracle_ran"] = report["oracle_value"] is not None
        manifest.append(entry)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "result": result,
        "failures": runner.failures,
        "manifest": manifest,
        "notes": notes,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{size}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(extra["spans"]) + "\n")
    return details


def summarize(details) -> list[str]:
    result, notes = details["result"], details["notes"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"# {details['workload']} seed {details['seed']} trace {details['trace']}: "
        f"{attempted} calls checked, {failed} failed, error_rate {failed / attempted:.4g}",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"#   {name:<28} {metric['value']:.6g} {metric['unit']}")
    if details["trace"]:
        lines.append(f"#   {notes['pairs']} untraced/traced pass pairs")
        if notes["missing_targets"]:
            lines.append(f"#   not traced (missing): {', '.join(notes['missing_targets'])}")
    else:
        lines.append(
            f"#   times at reference speed ({reference.NOMINAL_S} s per reference loop); "
            f"median scale factor {notes['median_factor']:.4f}"
        )
        lines.append(
            f"#   {notes['passes']} passes, {notes['calls']} calls; "
            f"call_tail_s is p{notes['tail_percentile']} with at least {TAIL_BEYOND} calls beyond it"
        )
    lines.extend(f"#   FAILED {f}" for f in details["failures"])
    return lines


def run_all(args) -> int:
    """Every workload in both modes, each in its own interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            part = json.loads(lines[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "scarfrel" / "cli.py").is_file():
        print(f"error: no scarfrel sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import scarfrel

    if not Path(scarfrel.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: scarfrel was imported from {scarfrel.__file__}", file=sys.stderr)
        return 2
    details = run_workload(
        args.workload, args.seed, args.seconds, args.trace, "smoke" if args.smoke else "full"
    )
    print("\n".join(summarize(details)))
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
