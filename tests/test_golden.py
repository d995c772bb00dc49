"""CLI reports compared byte for byte with recorded golden outputs.

Every subcommand runs on every bundled spec, in text and ``--json``, plus
``bounds --depth 1`` and ``bounds --depth 3,1`` on every spec, the
seeded random self-test, and a ``--v`` override on a spec that sets its
own ``deformation_v`` (the command-line value wins).  Two test-local
layer specs at the Bonferroni cap (``tests/specs``: r = 20 and r = 21,
d = 3) run ``bounds``, ``bounds --depth 3,1`` and ``compare``; above the
cap the baseline cells read ``n/a`` and ``compare`` prints no
``identity (taylor)`` line.  A third test-local spec whose grid is above
``STATE_CAP`` (d = 8, 8 levels, 3 points) runs ``reliability``,
``bounds`` and ``compare``, which pins the oracle-skip line, and
``oracle``, which pins its refusal (standard error, exit code 1).  A
fourth, shaped like the deep-bounds benchmark workload (``deep_d8_r12.json``:
d = 8, r = 12, 14 levels, non-generic, so its Scarf route deforms; its
points are the compositions of 13 cut at the sorted (3i + 5j + i j^2)
mod 14, j = 0..6, for the first twelve i = 0, 1, ... giving distinct
points), runs the same calls as the layer specs.  Each call's standard
output is stored in ``tests/golden/<name>.out``, its standard error in
``tests/golden/<name>.err`` when it writes any, and its exit code in
``tests/golden/exit_codes.json``.  Regenerate them only for a
declared output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from scarfrel.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CAP_SPECS = Path(__file__).resolve().parent / "specs"
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = ("scarf", "reliability", "bounds", "oracle", "compare")
DEPTHS = {"depth1": "1", "depth3_1": "3,1"}


def golden_calls() -> list[tuple[str, list[str]]]:
    calls = []
    for spec in sorted((ROOT / "specs").glob("*.json")):
        for command in COMMANDS:
            calls.append((f"{spec.stem}.{command}", [command, str(spec)]))
            calls.append((f"{spec.stem}.{command}.json", [command, str(spec), "--json"]))
        for tag, depth in DEPTHS.items():
            argv = ["bounds", str(spec), "--depth", depth]
            calls.append((f"{spec.stem}.bounds.{tag}", argv))
            calls.append((f"{spec.stem}.bounds.{tag}.json", [*argv, "--json"]))
    binary = str(ROOT / "specs" / "binary_network.json")  # says deformation_v: 10
    calls.append(("binary_network.scarf.v12", ["scarf", binary, "--v", "12"]))
    calls.append(
        ("binary_network.reliability.v12.json", ["reliability", binary, "--v", "12", "--json"])
    )
    for spec in [*sorted(CAP_SPECS.glob("layer_*.json")), CAP_SPECS / "deep_d8_r12.json"]:
        for name, argv in (
            (f"{spec.stem}.bounds", ["bounds", str(spec)]),
            (f"{spec.stem}.bounds.depth3_1", ["bounds", str(spec), "--depth", "3,1"]),
            (f"{spec.stem}.compare", ["compare", str(spec)]),
        ):
            calls.append((name, argv))
            calls.append((f"{name}.json", [*argv, "--json"]))
    above_cap = str(CAP_SPECS / "grid_above_cap.json")
    for command in ("reliability", "bounds", "compare", "oracle"):
        calls.append((f"grid_above_cap.{command}", [command, above_cap]))
        calls.append((f"grid_above_cap.{command}.json", [command, above_cap, "--json"]))
    random_self_test = ["compare", "--seed", "3", "--count", "25"]
    calls.append(("random.compare", random_self_test))
    calls.append(("random.compare.json", [*random_self_test, "--json"]))
    return calls


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize(
    "name, argv", [pytest.param(name, argv, id=name) for name, argv in golden_calls()]
)
def test_cli_output_matches_golden(name, argv):
    code, stdout, stderr = run_cli(argv)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    err_file = GOLDEN / f"{name}.err"
    assert stderr == (err_file.read_bytes() if err_file.exists() else b"")
    assert code == json.loads(EXIT_CODES.read_text())[name]


def test_every_golden_file_is_a_call():
    names = {name for name, _ in golden_calls()}
    assert {p.stem for p in GOLDEN.glob("*.out")} == names
    assert {p.stem for p in GOLDEN.glob("*.err")} <= names
    assert set(json.loads(EXIT_CODES.read_text())) == names


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in golden_calls():
        codes[name], stdout, stderr = run_cli(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
        (GOLDEN / f"{name}.err").unlink(missing_ok=True)
        if stderr:
            (GOLDEN / f"{name}.err").write_bytes(stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_goldens()
