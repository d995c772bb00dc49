import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import scarfrel.analysis as analysis
import scarfrel.cli as cli
import scarfrel.complexes as complexes
import scarfrel.monomial as monomial
import scarfrel.specfile as specfile
from scarfrel import LabeledComplex
from scarfrel.cli import main
from scarfrel.complexes import Face, SignedTerm
from scarfrel.specfile import load_spec
from scarfrel.systems import random_points_for, random_system

from helpers import MemoSpy, exact_face_bounds, reference_face_codes, tuple_walk_bounds

SPECS = Path(__file__).resolve().parent.parent / "specs"
BINARY = str(SPECS / "binary_network.json")
POINTS = str(SPECS / "multistate_points.json")
PROFIT = str(SPECS / "multistate_profit.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, data, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def generic_spec():
    """Two generators on a 3x3 grid, generic, so nothing is deformed."""
    probs = [0.25, 0.25, 0.5]
    return {
        "components": [{"name": n, "levels": 3, "probs": probs} for n in ("a", "b")],
        "minimal_nonfailure_points": [[1, 2], [2, 1]],
    }


def base_points_spec():
    return {
        "components": [
            {"name": "a", "levels": 2, "probs": [0.5, 0.5]},
            {"name": "b", "levels": 3, "probs": [0.25, 0.25, 0.5]},
        ],
        "minimal_nonfailure_points": [[1, 0], [0, 2]],
    }


class TestScarfCommand:
    def test_binary_network(self, capsys):
        code, out, err = run(capsys, "scarf", BINARY)
        assert code == 0
        assert err == ""
        assert "generators (9), 1-based, input order:" in out
        assert "generic: no" in out
        assert "deformation: applied (v = 10)" in out
        assert "facets (6):" in out
        assert "face count: 103" in out

    def test_multistate_points(self, capsys):
        code, out, _ = run(capsys, "scarf", POINTS)
        assert code == 0
        assert "face count: 31" in out
        assert "facets (7):" in out

    def test_profit_file_extracts_eleven_generators(self, capsys):
        code, out, _ = run(capsys, "scarf", PROFIT)
        assert code == 0
        assert "generators (11), 1-based, input order:" in out
        assert "face count: 49" in out

    def test_profit_integers_above_two_to_the_53_stay_exact(self, capsys, tmp_path):
        # as floats 2**53 + 1 rounds to 2**53, and (1, 1) would fall one short
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [2**53 + 1, 1], "cutoff": 2**53 + 2}
        path = write_spec(tmp_path, data)
        assert load_spec(path).profit.linear == (2**53 + 1, 1)
        code, out, err = run(capsys, "scarf", path, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["generators"] == [[1, 1]]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "scarf", BINARY)
        _, second, _ = run(capsys, "scarf", BINARY)
        assert first == second

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "scarf", POINTS, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["face_count"] == 31
        assert payload["generic"] is False
        assert payload["deformation_v"] == 10
        assert len(payload["generators"]) == 9
        assert {"members": [4, 8, 9], "label": [1, 3, 2, 3]} in payload["faces"]

    def test_generic_spec_reports_no_deformation(self, capsys, tmp_path):
        data = base_points_spec()
        path = write_spec(tmp_path, data)
        code, out, _ = run(capsys, "scarf", path)
        assert code == 0
        assert "generic: yes" in out
        assert "deformation: not applied" in out


class TestReliabilityCommand:
    def test_multistate_points(self, capsys):
        code, out, _ = run(capsys, "reliability", POINTS)
        assert code == 0
        assert "identity: 0.34423828125" in out
        assert "terms: 31 (complete formula: 511)" in out
        assert "oracle: 0.34423828125 (256 states)" in out
        assert "discrepancy: 0" in out

    def test_profit_file(self, capsys):
        code, out, _ = run(capsys, "reliability", PROFIT)
        assert code == 0
        assert "generators: 11" in out
        assert "terms: 49 (complete formula: 2047)" in out
        assert "identity: 0.353759765625" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "reliability", POINTS, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["identity_value"] == 0.34423828125
        assert payload["oracle_value"] == 0.34423828125
        assert payload["discrepancy"] == 0.0
        assert payload["term_count"] == 31
        assert payload["baseline_term_count"] == 511
        assert len(payload["bounds"]) == 3


class TestBoundsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "bounds", POINTS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["depth", "kind", "scarf", "bonferroni", "tighter"]
        assert len(lines) == 4
        assert lines[1].endswith("equal")
        assert lines[2].split()[-1] == "scarf"

    def test_depth_selection(self, capsys):
        code, out, _ = run(capsys, "bounds", POINTS, "--depth", "1,3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_bad_depth_value(self, capsys):
        code, out, err = run(capsys, "bounds", POINTS, "--depth", "x")
        assert code == 2
        assert "error:" in err

    def test_out_of_range_depth(self, capsys):
        code, _, err = run(capsys, "bounds", POINTS, "--depth", "9")
        assert code == 2
        assert "depth" in err

    def test_nonpositive_depth_is_rejected(self, capsys):
        # depth 0 must fail, not read the deepest row through index -1
        for depths in ("0", "2,0,9"):
            code, out, err = run(capsys, "bounds", POINTS, "--depth", depths)
            assert code == 2
            assert out == ""
            assert "must lie in 1..3 for this complex, got 0" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "bounds", POINTS, "--json")
        payload = json.loads(out)
        assert code == 0
        assert [row["kind"] for row in payload["rows"]] == ["upper", "lower", "upper"]

    @staticmethod
    def walk_depths(monkeypatch):
        """The size each Scarf walk stops at, d = 8 for a walk over every size."""
        depths = []
        walk = complexes._scarf_walk

        def spy(ideal, walked, depth=None, members=False):
            depths.append(walked.dimension if depth is None else min(depth, walked.dimension))
            return walk(ideal, walked, depth, members)

        monkeypatch.setattr(complexes, "_scarf_walk", spy)
        return depths

    @pytest.mark.parametrize(
        "depths, bad", [("0,3", 0), ("3,8", 8), ("3,9", 9), ("-1", -1), ("7,x", None)]
    )
    def test_a_bad_entry_names_the_complex_true_depth(self, capsys, monkeypatch, depths, bad):
        # The deformed complex of deep_d8_r12 reaches size 7 of d = 8: an entry
        # outside 1..7 is named against 7, so the walk went to every size.  A
        # non-integer entry is refused before any walk.
        walks = self.walk_depths(monkeypatch)
        code, out, err = run(capsys, "bounds", TestLabelFreeCommands.DEEP, "--depth", depths)
        message = "must be integers, got 'x'" if bad is None else f"1..7 for this complex, got {bad}"
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(message + "\n")
        assert walks == ([] if bad is None else [8])

    @pytest.mark.parametrize(
        "depths, code, checked",
        [("1", 0, [1]), ("3,1", 0, [3, 1]), (" 2 , 2", 0, [2, 2]), ("7", 0, [7]),
         ("3,0,9", 2, [3, 0]), ("3,8", 2, [3, 8]), (None, 0, [])],
    )
    def test_each_entry_is_range_checked_once(self, capsys, monkeypatch, depths, code, checked):
        # in order up to the first entry out of range; no entry is checked without --depth
        checks = []
        check = cli.check_depth

        def spy(depth, max_card):
            checks.append(depth)
            check(depth, max_card)

        monkeypatch.setattr(cli, "check_depth", spy)
        args = () if depths is None else ("--depth", depths)
        assert run(capsys, "bounds", TestLabelFreeCommands.DEEP, *args)[0] == code
        assert checks == checked

    @pytest.mark.parametrize("depths, deepest", [("1", 1), ("2,1", 2), (" 3, 1", 3), ("7", 7)])
    def test_the_walk_stops_at_the_deepest_entry(self, capsys, monkeypatch, depths, deepest):
        walks = self.walk_depths(monkeypatch)
        full = run(capsys, "bounds", TestLabelFreeCommands.DEEP)[1].splitlines()
        code, out, err = run(capsys, "bounds", TestLabelFreeCommands.DEEP, "--depth", depths)
        assert (code, err) == (0, "")
        wanted = [int(piece) for piece in depths.split(",")]
        assert out.splitlines() == [full[0], *(full[depth] for depth in wanted)]
        assert walks == [8, deepest]

    def test_shallow_depth_builds_no_taylor_complex(self, capsys, tmp_path, monkeypatch):
        # r = 20 sits at the Bonferroni cap: the baseline for --depth 1 must
        # come from the 20 singletons, not from a 2^20 - 1 face complex.
        # Watch both constructors: the checked one and the builders' own.
        taylor_builds = []
        init, built = LabeledComplex.__init__, LabeledComplex._built.__func__

        def refuse_taylor(ideal, kind):
            if kind == "taylor":
                taylor_builds.append(len(ideal.generators))
                raise RuntimeError("Taylor complex built")

        def checked(self, ideal, members, kind):
            refuse_taylor(ideal, kind)
            init(self, ideal, members, kind)

        def unchecked(cls, ideal, kind, runs, codes=None):
            refuse_taylor(ideal, kind)
            return built(cls, ideal, kind, runs, codes)

        monkeypatch.setattr(LabeledComplex, "__init__", checked)
        monkeypatch.setattr(LabeledComplex, "_built", classmethod(unchecked))
        points = [[a, b, 9 - a - b] for a in range(10) for b in range(10 - a)][:20]
        spec = {
            "components": [
                {"name": f"c{i}", "levels": 10, "probs": [0.0625] * 8 + [0.25, 0.25]}
                for i in range(3)
            ],
            "minimal_nonfailure_points": points,
        }
        code, out, err = run(
            capsys, "bounds", write_spec(tmp_path, spec), "--depth", "1", "--json"
        )
        assert taylor_builds == []
        assert (code, err) == (0, "")
        [row] = json.loads(out)["rows"]
        assert row["bonferroni"] is not None
        assert row["bonferroni"] == row["scarf"]
        assert row["tighter"] == "equal"


class TestOracleCommand:
    def test_profit_file(self, capsys):
        code, out, _ = run(capsys, "oracle", PROFIT)
        assert code == 0
        assert "states: 256" in out
        assert "reliability: 0.353759765625" in out

    def test_state_cap_exceeded(self, capsys, monkeypatch, tmp_path):
        data = {
            "components": [
                {"name": f"c{i}", "levels": 4, "probs": [0.25, 0.25, 0.25, 0.25]}
                for i in range(12)
            ],
            "minimal_nonfailure_points": [[1] + [0] * 11],
        }
        points = write_spec(tmp_path, data)
        # 4 components of 64 levels: extracting its 174,784 generators takes seconds
        profit = str(Path(__file__).resolve().parent / "specs" / "profit_above_cap.json")
        calls = count_calls(monkeypatch, "minimal_points_from_profit", "minimalize")
        for path, states in ((points, 4**12), (profit, 64**4)):
            code, out, err = run(capsys, "oracle", path)
            assert code == 1
            assert out == ""
            assert err == f"error: state space has {states} states, above the cap 10000000\n"
        assert not calls  # the cap is checked before the ideal is built


class TestCompareCommand:
    def test_file_mode(self, capsys):
        code, out, _ = run(capsys, "compare", BINARY)
        assert code == 0
        assert "identity (scarf): 0.193030595779" in out
        assert "identity (taylor): 0.193030595779" in out
        assert "max discrepancy: 0" in out
        assert "agreement (<= 1e-09): yes" in out

    def test_random_mode(self, capsys):
        code, out, _ = run(capsys, "compare", "--seed", "3", "--count", "5")
        assert code == 0
        assert "random self-test: 5 systems, seed 3" in out
        assert "failures: 0" in out

    def test_random_mode_json(self, capsys):
        code, out, _ = run(capsys, "compare", "--seed", "3", "--count", "5", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["seed"] == 3
        assert payload["count"] == 5
        assert payload["failures"] == 0

    def test_count_must_be_positive(self, capsys):
        for count in ("0", "-5"):
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, "compare", "--count", count, *extra)
                assert code == 2
                assert out == ""
                assert err == f"error: --count must be at least 1, got {count}\n"

    def test_default_seed_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "compare", "--count", "3")
        _, second, _ = run(capsys, "compare", "--count", "3")
        assert first == second

    def test_default_count_is_25(self, capsys):
        _, out, _ = run(capsys, "compare")
        assert out.startswith("random self-test: 25 systems, seed 0\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--v", "12"], "--v"),
            (["--v", "12", "--seed", "3"], "--v"),
            ([BINARY, "--seed", "3"], "--seed"),
            ([BINARY, "--count", "5"], "--count"),
            ([BINARY, "--seed", "3", "--count", "5", "--json"], "--seed"),
        ],
    )
    def test_flags_the_mode_ignores_are_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, "compare", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} applies only to ")

    def test_file_mode_accepts_v(self, capsys):
        code, out, _ = run(capsys, "compare", BINARY, "--v", "12", "--json")
        assert code == 0
        assert json.loads(out)["deformation_v"] == 12

    def test_self_test_takes_both_routes(self, capsys, monkeypatch):
        routes = Counter()
        walk = cli._scarf_codes

        def counted(ideal, v, depth=None):
            routes["deformed" if v else "generic"] += 1
            return walk(ideal, v, depth)

        monkeypatch.setattr(cli, "_scarf_codes", counted)
        code, _, _ = run(capsys, "compare", "--seed", "3", "--count", "25")
        assert code == 0
        assert routes == {"generic": 17, "deformed": 8}

    def offset_oracle(self, monkeypatch):
        oracle = cli.brute_force_reliability
        monkeypatch.setattr(cli, "brute_force_reliability", lambda *a: oracle(*a) + 1e-6)

    def test_file_mode_disagreement_exits_1(self, capsys, monkeypatch):
        self.offset_oracle(monkeypatch)
        code, out, err = run(capsys, "compare", BINARY)
        assert (code, err) == (1, "")
        assert out.endswith("max discrepancy: 1e-06\nagreement (<= 1e-09): no\n")
        code, out, err = run(capsys, "compare", BINARY, "--json")
        payload = json.loads(out)
        assert (code, err) == (1, "")
        assert payload["ok"] is False
        assert payload["oracle"] - payload["identity_scarf"] == pytest.approx(1e-6)

    def test_random_mode_disagreement_exits_1(self, capsys, monkeypatch):
        self.offset_oracle(monkeypatch)
        code, out, err = run(capsys, "compare", "--seed", "3", "--count", "5")
        assert (code, err) == (1, "")
        assert "failures: 5\n" in out
        code, out, err = run(capsys, "compare", "--seed", "3", "--count", "5", "--json")
        payload = json.loads(out)
        assert (code, err) == (1, "")
        assert (payload["ok"], payload["failures"]) == (False, 5)


def count_calls(monkeypatch, *names):
    """Count the calls to each named function as ``scarfrel.cli`` sees it."""
    calls = Counter()
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


class TestOneReportPath:
    """Commands return a payload and lazy text; ``main`` alone renders and writes."""

    ARGVS = [
        ("scarf", POINTS),
        ("reliability", POINTS),
        ("bounds", POINTS),
        ("oracle", PROFIT),
        ("compare", POINTS),
        ("compare", "--seed", "3", "--count", "5"),
    ]
    IDS = ["scarf", "reliability", "bounds", "oracle", "compare_file", "compare_random"]

    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_json_formats_no_text(self, capsys, monkeypatch, argv):
        calls = count_calls(monkeypatch, "_members", "_fmt")
        code, _, err = run(capsys, *argv, "--json")
        assert (code, err, calls) == (0, "", {})
        run(capsys, *argv)
        assert calls["_fmt"] + calls["_members"] > 0

    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_commands_write_nothing(self, capsys, argv):
        args = cli.build_parser().parse_args(argv)
        payload, text = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert isinstance(payload, dict)
        assert run(capsys, *argv) == (0, "\n".join(text()) + "\n", "")


class TestOnePipelinePerCall:
    STAGES = ("load_spec", "minimalize", "minimal_points_from_profit", "is_generic")

    @pytest.mark.parametrize("spec", [POINTS, PROFIT], ids=["points", "profit"])
    @pytest.mark.parametrize("command", ["scarf", "reliability", "bounds", "oracle", "compare"])
    @pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
    def test_each_stage_runs_once(self, capsys, monkeypatch, spec, command, extra):
        calls = count_calls(monkeypatch, *self.STAGES)
        code, _, err = run(capsys, command, spec, *extra)
        assert (code, err) == (0, "")
        assert calls["load_spec"] == 1
        assert calls["minimalize"] + calls["minimal_points_from_profit"] == 1
        assert calls["is_generic"] == (0 if command == "oracle" else 1)


class TestLabelFreeCommands:
    """``bounds`` and ``compare`` print no face label, so they derive none."""

    DEEP = str(Path(__file__).resolve().parent / "specs" / "deep_d8_r12.json")

    @pytest.mark.parametrize("spec", [POINTS, PROFIT, DEEP], ids=["points", "profit", "deep"])
    @pytest.mark.parametrize(
        "argv", [("bounds",), ("bounds", "--depth", "3,1"), ("compare",)],
        ids=["bounds", "depth3_1", "compare"],
    )
    @pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
    def test_no_labels_derived(self, capsys, monkeypatch, spec, argv, extra):
        def no_labels(self):
            raise AssertionError("labels derived")

        monkeypatch.setattr(LabeledComplex, "faces", property(no_labels))
        code, out, err = run(capsys, argv[0], spec, *argv[1:], *extra)
        assert (code, err) == (0, "")
        assert out


class TestOneOrthantTablePerCall:
    """The Scarf route and the subset walk of one call share one exact orthant
    table, which forms the product of each head key and each tail key of the
    codes they sum once between them; every printed value is the exact sum
    rounded once."""

    @pytest.mark.parametrize(
        "argv", [("bounds",), ("bounds", "--depth", "3,1"), ("compare",)],
        ids=["bounds", "depth3_1", "compare"],
    )
    def test_each_half_formed_once(self, capsys, monkeypatch, argv):
        spec = TestLabelFreeCommands.DEEP
        system, ideal, v_used = cli._pipeline(spec)
        assert v_used is not None  # deformed: its faces repeat labels
        complex_ = complexes.deform_and_scarf(ideal, v_used)
        codes = ideal._packed[0]
        r = len(ideal.generators)
        scarf_depth = 3 if "--depth" in argv else complex_.max_cardinality()
        subset_depth = r if argv == ("compare",) else scarf_depth
        scarf = exact_face_bounds(system, complex_)
        bonferroni = tuple_walk_bounds(system, ideal, subset_depth)
        faces = zip(complex_.member_tuples, reference_face_codes(complex_, codes))
        summed = [c for members, c in faces if len(members) <= scarf_depth]
        summed += itertools.chain.from_iterable(analysis._subset_label_counts(codes, subset_depth))

        spy = MemoSpy(monkeypatch)
        code, out, err = run(capsys, argv[0], spec, *argv[1:], "--json")
        assert (code, err) == (0, "")
        spy.assert_one_table_forms_each_half_once(ideal, summed)
        assert len(spy.formed) < len(set(summed))
        payload = json.loads(out)
        if argv == ("compare",):
            assert payload["identity_scarf"] == scarf[-1].value == bonferroni[-1].value
            assert payload["identity_taylor"] == bonferroni[-1].value
        else:
            for row in payload["rows"]:
                assert row["scarf"] == scarf[row["depth"] - 1].value
                assert row["bonferroni"] == bonferroni[row["depth"] - 1].value


class TestSummingCommandsBuildNoComplex:
    """``bounds`` and ``compare`` sum the Scarf walk's codes: no LabeledComplex is made."""

    DEEP = TestLabelFreeCommands.DEEP

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", POINTS), ("bounds", PROFIT), ("bounds", DEEP),
            ("bounds", DEEP, "--depth", "3,1"), ("compare", POINTS), ("compare", PROFIT),
            ("compare", DEEP), ("compare", BINARY, "--v", "12"),
            ("compare", "--seed", "3", "--count", "25"),
        ],
        ids=[
            "bounds_points", "bounds_profit", "bounds_deep", "bounds_depth3_1", "compare_points",
            "compare_profit", "compare_deep", "compare_v", "compare_random",
        ],
    )
    @pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
    def test_no_complex_constructed(self, capsys, monkeypatch, argv, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("LabeledComplex constructed")

        monkeypatch.setattr(LabeledComplex, "__init__", refuse)
        monkeypatch.setattr(LabeledComplex, "_built", classmethod(refuse))
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert out


class TestOnePackingPerCall:
    """The complex and the evaluators of one call read the ideal's one lcm packing:
    each command packs the generators once, on every bundled spec it completes."""

    BUNDLED = [
        *sorted(SPECS.glob("*.json")),
        *(p for p in sorted((Path(__file__).resolve().parent / "specs").glob("*.json"))
          # refused before any complex is built, and a complex too big to build in full
          if p.name not in ("profit_above_cap.json", "deep_d8_r96.json")),
    ]

    @pytest.mark.parametrize("command", ["scarf", "reliability", "bounds", "compare"])
    @pytest.mark.parametrize("spec", BUNDLED, ids=lambda p: p.stem)
    def test_each_command_packs_once(self, capsys, monkeypatch, command, spec):
        packs = []
        lcm_codes = monomial._lcm_codes
        monkeypatch.setattr(
            monomial, "_lcm_codes", lambda vectors: packs.append(vectors) or lcm_codes(vectors)
        )
        code, _, err = run(capsys, command, str(spec))
        assert (code, err) == (0, "")
        assert len(packs) == 1


class TestCachedParser:
    """``main`` builds its parser once; consecutive calls share no state."""

    def alone(self, capsys, argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize(
        "first, second",
        [
            (("bounds", POINTS, "--depth", "1"), ("bounds", POINTS)),
            (("scarf", POINTS, "--v", "12", "--json"), ("scarf", POINTS)),
            (("compare", "--seed", "3", "--count", "2"), ("compare", POINTS)),
        ],
        ids=["depth", "v_json", "seed"],
    )
    def test_consecutive_calls_give_their_own_bytes(self, capsys, first, second):
        expected = [self.alone(capsys, first), self.alone(capsys, second)]
        cli.build_parser.cache_clear()
        got = [run(capsys, *first), run(capsys, *second)]
        assert got == expected
        assert [code for code, _, _ in got] == [0, 0]
        assert cli.build_parser.cache_info().misses == 1

    def test_parser_is_built_on_first_call_not_at_import(self):
        code = "import scarfrel.cli as c; print(c.build_parser.cache_info().misses)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            check=True,
        )
        assert result.stdout == "0\n"


class TestImportFloor:
    # Heavy standard modules the CLI does not need at import.  The interpreter
    # runs with -S, since a site hook (a .pth file) may import some of them itself.
    HEAVY = {"dataclasses", "inspect", "ast", "typing", "pathlib", "random", "fractions", "decimal"}

    def test_import_loads_no_heavy_module(self):
        code = "import sys, scarfrel.cli; print(' '.join(sorted(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            check=True,
        )
        loaded = set(result.stdout.split())
        assert "scarfrel.cli" in loaded
        assert self.HEAVY & loaded == set()


class TestScarfPairCap:
    PROFIT_ABOVE_CAP = str(Path(__file__).resolve().parent / "specs" / "profit_above_cap.json")
    MESSAGE = "error: Scarf complex on 174784 generators needs 15274635936 pair tests; cap is 2097152\n"

    @pytest.mark.parametrize("command", ["scarf", "reliability", "bounds", "compare"])
    def test_exit_2_with_the_cap_message(self, capsys, monkeypatch, command):
        monkeypatch.setattr(complexes, "SCARF_PAIR_CAP", 35)  # the 9 generators of POINTS need 36
        code, out, err = run(capsys, command, POINTS)
        message = "error: Scarf complex on 9 generators needs 36 pair tests; cap is 35\n"
        assert (code, out, err) == (2, "", message)

    def test_repro_refused_under_a_memory_limit(self):
        # 4 components of 64 levels: 174,784 minimal points.  Without the cap
        # the builder runs out of memory under this limit instead.
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 800 << 20 if hard == resource.RLIM_INFINITY else min(800 << 20, hard)

        def cap_memory():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        for command in ("scarf", "reliability"):
            result = subprocess.run(
                [sys.executable, "-m", "scarfrel.cli", command, self.PROFIT_ABOVE_CAP],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                preexec_fn=cap_memory,
                timeout=60,
            )
            assert (result.returncode, result.stdout, result.stderr) == (2, "", self.MESSAGE)

    def test_a_non_integer_depth_is_refused_first(self, capsys):
        # --depth is parsed before the walk, so its message wins over the pair cap's
        code, out, err = run(capsys, "bounds", self.PROFIT_ABOVE_CAP, "--depth", "x")
        assert (code, out, err) == (2, "", "error: --depth entries must be integers, got 'x'\n")


class TestDeepRepro:
    """d = 8, r = 96: the deformed complex has 1,628,633 faces.  The 4,118 faces
    of sizes 1 and 2 are all that ``bounds --depth 2`` walks, and the full-depth
    ``bounds`` and ``compare`` hold only the faces' codes."""

    SPEC = str(Path(__file__).resolve().parent / "specs" / "deep_d8_r96.json")

    def run_capped(self, *argv, megabytes, timeout):
        """``scarfrel.cli`` on the spec with ``--json`` in a child process whose
        address space is capped at ``megabytes``; the parsed report."""
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = megabytes << 20 if hard == resource.RLIM_INFINITY else min(megabytes << 20, hard)

        def cap_memory():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        result = subprocess.run(
            [sys.executable, "-m", "scarfrel.cli", argv[0], self.SPEC, *argv[1:], "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            preexec_fn=cap_memory,
            timeout=timeout,
        )
        assert (result.returncode, result.stderr) == (0, "")
        return json.loads(result.stdout)

    def test_shallow_bounds_under_a_memory_limit(self):
        payload = self.run_capped("bounds", "--depth", "2", megabytes=200, timeout=10)
        assert payload["deformation_v"] == 97
        [row] = payload["rows"]
        assert (row["depth"], row["kind"], row["bonferroni"], row["tighter"]) == (2, "lower", None, "n/a")
        assert row["scarf"] == -737.1686817284739

    def test_full_depth_under_a_memory_limit(self):
        # every one of the 1,628,633 faces is summed; only their codes are held
        rows = self.run_capped("bounds", megabytes=400, timeout=30)["rows"]
        assert [row["depth"] for row in rows] == list(range(1, 9))
        assert rows[1]["scarf"] == -737.1686817284739
        compared = self.run_capped("compare", megabytes=400, timeout=30)
        assert compared["identity_scarf"] == rows[-1]["scarf"]  # one exact sum, rounded once

    def test_the_walk_stops_at_size_2(self):
        system, ideal, v_used = cli._pipeline(self.SPEC)
        runs = complexes._scarf_codes(ideal, v_used, 2)
        assert [len(run) for run in runs] == [96, 4022]  # 4,045 pair tests pass (b)


class TestBrokenPipe:
    def test_a_reader_that_leaves_early_gets_exit_1_and_no_message(self, tmp_path):
        # Eight binary components whose minimal points are the 28 pairs: about
        # 0.5 MB of JSON, far more than a pipe holds, so the writer is still
        # writing when the reader closes after the first line.
        pairs = itertools.combinations(range(8), 2)
        data = {
            "components": [{"name": f"c{k}", "levels": 2, "probs": [0.5, 0.5]} for k in range(8)],
            "minimal_nonfailure_points": [[int(k in pair) for k in range(8)] for pair in pairs],
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "scarfrel.cli", "scarf", write_spec(tmp_path, data), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b"")


class TestUnexpectedErrors:
    def test_empty_message_is_named_by_its_type(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_spec", out_of_memory)
        for command in ("scarf", "reliability", "bounds", "oracle", "compare"):
            assert run(capsys, command, POINTS) == (1, "", "error: MemoryError\n")


class TestSpecErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "scarf", "/nonexistent/spec.json")
        assert code == 2
        assert "cannot read" in err

    def test_missing_file_is_named_in_normal_form(self):
        message = "nope.json: cannot read spec file: [Errno 2] No such file or directory: 'nope.json'"
        with pytest.raises(specfile.SpecFileError) as caught:
            load_spec("./nope.json")
        assert str(caught.value) == message

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        code, _, err = run(capsys, "scarf", str(p))
        assert code == 2
        assert "line 1" in err

    def test_both_modes_given(self, capsys, tmp_path):
        data = base_points_spec()
        data["profit"] = {"linear": [1, 1], "cutoff": 1}
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "exactly one" in err

    def test_neither_mode_given(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "exactly one" in err

    def test_negative_probability(self, capsys, tmp_path):
        data = base_points_spec()
        data["components"][0]["probs"] = [1.5, -0.5]
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "components[0]" in err

    def test_point_outside_level_range(self, capsys, tmp_path):
        data = base_points_spec()
        data["minimal_nonfailure_points"] = [[1, 3]]
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "outside 0..2" in err

    @pytest.mark.parametrize(
        "point, message",
        [
            ("x", "minimal_nonfailure_points[2]: expected a list of integers"),
            ([1], "minimal_nonfailure_points[2]: has 1 coordinates, expected 2"),
            ([1, True], "minimal_nonfailure_points[2][1]: expected an integer, got True"),
            ([1.0, 9], "minimal_nonfailure_points[2][0]: expected an integer, got 1.0"),
            ([0, -1], "minimal_nonfailure_points[2][1]: level -1 outside 0..2 for component 'b'"),
            ([2, 0], "minimal_nonfailure_points[2][0]: level 2 outside 0..1 for component 'a'"),
        ],
        ids=["not-a-list", "length", "bool", "float", "negative", "above"],
    )
    def test_each_point_rule_names_its_entry(self, capsys, tmp_path, point, message):
        data = base_points_spec()
        data["minimal_nonfailure_points"].append(point)
        path = write_spec(tmp_path, data)
        assert run(capsys, "scarf", path) == (2, "", f"error: {path}: {message}\n")

    def test_unknown_key(self, capsys, tmp_path):
        data = base_points_spec()
        data["plot"] = True
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "unknown key 'plot'" in err

    def test_unreachable_cutoff(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [1, 1], "cutoff": 1000000}
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "cutoff" in err

    def test_v_not_above_generator_count(self, capsys):
        code, _, err = run(capsys, "scarf", POINTS, "--v", "9")
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("spec_v, argv_v", [(None, "-5"), (1, None), (1, "-5")])
    def test_v_is_checked_on_a_generic_ideal(self, capsys, tmp_path, spec_v, argv_v):
        data = generic_spec()
        if spec_v is not None:
            data["deformation_v"] = spec_v
        extra = () if argv_v is None else ("--v", argv_v)
        for command in ("scarf", "reliability", "bounds", "compare"):
            code, out, err = run(capsys, command, write_spec(tmp_path, data), *extra)
            assert (code, out) == (2, "")
            v = argv_v or spec_v
            assert err == f"error: deformation parameter v must exceed the generator count 2, got {v}\n"

    def test_valid_v_on_a_generic_ideal_changes_nothing(self, capsys, tmp_path):
        plain = write_spec(tmp_path, generic_spec(), "plain.json")
        with_v = write_spec(tmp_path, {**generic_spec(), "deformation_v": 3}, "with_v.json")
        for command in ("scarf", "reliability", "bounds", "compare"):
            for extra in ((), ("--json",)):
                expected = run(capsys, command, plain, *extra)
                assert expected[0] == 0
                assert run(capsys, command, plain, "--v", "7", *extra) == expected
                assert run(capsys, command, with_v, *extra) == expected

    def test_interaction_pair_out_of_range(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {
            "linear": [1, 1],
            "interactions": [[1, 3, 2.0]],
            "cutoff": 1,
        }
        code, _, err = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 2
        assert "outside 1..2" in err

    @pytest.mark.parametrize("interactions", [5, None, "12", {"i": 1}])
    def test_interactions_must_be_a_list(self, capsys, tmp_path, interactions):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [1, 1], "interactions": interactions, "cutoff": 1}
        path = write_spec(tmp_path, data)
        code, out, err = run(capsys, "scarf", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: profit.interactions: expected a list\n"

    def test_interaction_pair_must_be_distinct_in_the_indices_written(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [1, 1], "interactions": [[2, 2, 1]], "cutoff": 1}
        path = write_spec(tmp_path, data)
        code, out, err = run(capsys, "scarf", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: profit.interactions[0]: pair (2, 2) must name two "
            "distinct components\n"
        )

    @pytest.mark.parametrize(
        "profit, message",
        [
            (
                {"linear": [1, 1], "interactions": [[1, 2, 1], [1, 2, -2]], "cutoff": 1},
                "profit.interactions[1][2]: must be nonnegative, got -2",
            ),
            (
                {"linear": [1, 1], "interactions": [[1, 2, math.inf]], "cutoff": 1},
                "profit.interactions[0][2]: must be finite, got inf",
            ),
            ({"linear": [1, -1], "cutoff": 1}, "profit.linear[1]: must be nonnegative, got -1"),
            ({"linear": [math.nan, 1], "cutoff": 1}, "profit.linear[0]: must be finite, got nan"),
            ({"linear": [1, 1], "cutoff": math.nan}, "profit.cutoff: must be finite, got nan"),
            ({"linear": [1, 1], "cutoff": -math.inf}, "profit.cutoff: must be finite, got -inf"),
            (
                {"linear": [1, 1], "cutoff": 10**400},
                "profit.cutoff: must be finite, got an integer of 401 digits",
            ),
            (
                {"linear": [1, 1], "cutoff": -(10**400)},
                "profit.cutoff: must be finite, got an integer of 401 digits",
            ),
            (
                {"linear": [1, 10**400], "cutoff": 1},
                "profit.linear[1]: must be finite, got an integer of 401 digits",
            ),
            (
                {"linear": [1, 1], "interactions": [[1, 2, 10**400]], "cutoff": 1},
                "profit.interactions[0][2]: must be finite, got an integer of 401 digits",
            ),
        ],
    )
    def test_bad_profit_number_is_named_by_its_path(self, capsys, tmp_path, profit, message):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = profit
        path = write_spec(tmp_path, data)  # json.dumps writes NaN and Infinity
        code, out, err = run(capsys, "scarf", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    def test_probability_beyond_float_range_is_named_by_its_path(self, capsys, tmp_path):
        data = base_points_spec()
        data["components"][1]["probs"] = [0.25, 10**400, 0.5]
        path = write_spec(tmp_path, data)
        code, out, err = run(capsys, "scarf", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: components[1].probs[1]: must be finite, got an integer of 401 digits\n"
        )

    def test_integer_beyond_the_digit_limit_is_named_by_its_file(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [1, 1], "cutoff": "CUTOFF"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data).replace('"CUTOFF"', "1" + "0" * 4400))
        code, out, err = run(capsys, "scarf", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert "4401 digits" in err

    def test_nesting_beyond_the_recursion_limit_is_named_by_its_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"components": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "scarf", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth exceeded")

    def test_bytes_that_are_not_utf8_are_named_by_their_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "scarf", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: cannot read spec file: 'utf-8' codec can't decode")

    def test_negative_cutoff_is_accepted(self, capsys, tmp_path):
        data = base_points_spec()
        del data["minimal_nonfailure_points"]
        data["profit"] = {"linear": [1, 1], "cutoff": -1}
        code, out, _ = run(capsys, "scarf", write_spec(tmp_path, data))
        assert code == 0
        assert "  1: (0, 0)\n" in out


def reference_json(payload) -> str:
    """``json.dumps`` of a payload, its Face and SignedTerm tuples as dicts of their fields."""
    plain = {
        key: [x._asdict() for x in value] if key in ("faces", "terms") else value
        for key, value in payload.items()
    }
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def rendered(payload) -> str:
    return cli._json_text(payload) + "\n"


def check_json_calls(capsys, monkeypatch, calls):
    """Run each ``--json`` argv; its output must equal json.dumps of the payload it rendered."""
    payloads = []
    render = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda p: (payloads.append(p), render(p))[1])
    for argv in calls:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert out == reference_json(payloads.pop()), argv
    assert payloads == []


class TestJsonRenderer:
    def test_bundled_specs(self, capsys, monkeypatch):
        commands = ("scarf", "reliability", "bounds", "oracle", "compare")
        calls = [["compare", "--seed", "3", "--count", "25"]]
        for spec in sorted(SPECS.glob("*.json")):
            calls += [[command, str(spec)] for command in commands]
            calls += [["bounds", str(spec), "--depth", depth] for depth in ("1", "3,1")]
        calls.append(["reliability", BINARY, "--v", "12"])
        check_json_calls(capsys, monkeypatch, calls)

    def test_random_self_test_systems(self, capsys, monkeypatch, tmp_path):
        rng = random.Random(3)  # the systems `compare --seed 3 --count 25` draws
        calls = []
        for n in range(25):
            system = random_system(rng)
            points = random_points_for(rng, system)
            data = {
                "components": [
                    {"name": c.name, "levels": c.levels, "probs": list(c.probs)}
                    for c in system.components
                ],
                "minimal_nonfailure_points": [list(p) for p in points],
            }
            path = write_spec(tmp_path, data, f"random{n}.json")
            calls += [["scarf", path], ["reliability", path]]
        check_json_calls(capsys, monkeypatch, calls)

    FLOATS = st.sampled_from([-0.0, 1e-300, 1e16, 5e-324]) | st.floats()
    INTS = st.lists(st.integers(0, 10**4), max_size=3).map(tuple)
    FACES = st.lists(st.builds(Face, INTS, INTS), max_size=3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "generators": st.lists(INTS, max_size=3),
                "generic": st.booleans(),
                "deformation_v": st.none() | st.integers(1, 10**6),
                "kind": st.sampled_from(["scarf", "scarf_deformed"]),
                "face_count": st.integers(0, 10**6),
                "faces": FACES,
                "facets": st.lists(INTS, max_size=3),
            }
        )
    )
    @example(
        {
            "generators": [(12, 0, 3)],
            "generic": True,
            "deformation_v": None,
            "kind": "scarf",
            "face_count": 1,
            "faces": [Face((1,), (12, 0, 3))],
            "facets": [(1,)],
        }
    )
    # Runs of one shape that break and resume: cardinalities 1, 2, 1, 3 and
    # rows of mixed lengths, then empty lists and one-item lists.
    @example(
        {
            "generators": [(1, 0), (0, 2, 1), (3, 1), ()],
            "generic": False,
            "deformation_v": 5,
            "kind": "scarf_deformed",
            "face_count": 4,
            "faces": [
                Face((1,), (1, 0)),
                Face((1, 2), (1, 2)),
                Face((2,), (0, 2)),
                Face((1, 2, 3), (3, 2)),
                Face((1, 2, 3), (3, 2, 0)),
                Face((), ()),
            ],
            "facets": [(1, 2), (3,), (1, 2), (1, 2, 3), ()],
        }
    )
    @example(
        {
            "generators": [],
            "generic": True,
            "deformation_v": None,
            "kind": "scarf",
            "face_count": 0,
            "faces": [],
            "facets": [],
        }
    )
    def test_scarf_shaped_payloads(self, payload):
        assert rendered(payload) == reference_json(payload)

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "identity_value": FLOATS,
                "term_count": st.integers(0, 10**6),
                "baseline_term_count": st.integers(0, 10**6),
                "deformation_v": st.none() | st.integers(1, 10**6),
                "oracle_value": st.none() | FLOATS,
                "discrepancy": st.none() | FLOATS,
                "terms": st.lists(
                    st.builds(SignedTerm, st.sampled_from([-1, 1]), INTS, st.integers(0, 30)),
                    max_size=3,
                ),
                "faces": FACES,
                "bounds": st.lists(
                    st.fixed_dictionaries(
                        {
                            "depth": st.integers(1, 30),
                            "kind": st.sampled_from(["upper", "lower"]),
                            "value": FLOATS,
                        }
                    ),
                    max_size=3,
                ),
            }
        )
    )
    # Terms whose exponent lengths, cardinalities and signs change from one
    # term to the next, faces of cardinalities 1, 2, 1, 3; then one-item and
    # empty lists.
    @example(
        {
            "identity_value": 0.5,
            "term_count": 5,
            "baseline_term_count": 7,
            "deformation_v": None,
            "oracle_value": None,
            "discrepancy": None,
            "terms": [
                SignedTerm(-1, (1, 2), 1),
                SignedTerm(-1, (1, 2, 3), 1),
                SignedTerm(1, (1, 2, 3), 2),
                SignedTerm(-1, (4,), 1),
                SignedTerm(1, (4,), 1),
                SignedTerm(1, (), 0),
                SignedTerm(-1, (1, 2), 1),
            ],
            "faces": [
                Face((1,), (1, 2)),
                Face((1, 2), (1, 3)),
                Face((2,), (0, 3)),
                Face((1, 2, 3), (2, 3)),
            ],
            "bounds": [],
        }
    )
    @example(
        {
            "identity_value": 1.0,
            "term_count": 1,
            "baseline_term_count": 1,
            "deformation_v": 2,
            "oracle_value": 1.0,
            "discrepancy": 0.0,
            "terms": [SignedTerm(-1, (0, 0), 1)],
            "faces": [Face((1,), (0, 0))],
            "bounds": [{"depth": 1, "kind": "upper", "value": 1.0}],
        }
    )
    @example(
        {
            "identity_value": 0.0,
            "term_count": 0,
            "baseline_term_count": 0,
            "deformation_v": None,
            "oracle_value": None,
            "discrepancy": None,
            "terms": [],
            "faces": [],
            "bounds": [],
        }
    )
    def test_reliability_shaped_payloads(self, payload):
        assert rendered(payload) == reference_json(payload)
