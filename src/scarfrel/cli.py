"""Command-line interface.

Subcommands:

- ``scarf FILE``: generators, genericity, deformation, full face list
  with lcm labels, facets and face count.
- ``reliability FILE``: identity value, term count against the full
  2^r - 1 formula, and the enumeration oracle when the state space is
  small enough.
- ``bounds FILE``: truncation bounds per depth, Scarf route next to the
  classical full-subset (Bonferroni) route, flagging the tighter side.
- ``oracle FILE``: enumeration oracle only.
- ``compare [FILE]``: all routes side by side with the maximum
  discrepancy; without FILE, a seeded randomized self-test corpus.

All numbers print with 12 significant digits and every report is
deterministic byte for byte.  Exit codes: 0 success, 1 runtime failure or
detected disagreement, 2 invalid spec file or arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Optional, Sequence

from .analysis import (
    STATE_CAP,
    brute_force_reliability,
    build_report,
    check_depth,
    depth_bounds,
    reliability_identity,
    subset_bounds,
)
from .complexes import TAYLOR_GENERATOR_CAP, deform_and_scarf
from .monomial import is_generic, minimalize
from .specfile import (
    SpecFileError,
    complex_from_spec,
    ideal_from_spec,
    load_spec,
)
from .systems import CutoffUnreachableError, random_points_for, random_system

AGREEMENT_TOL = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _members(face_members: Sequence[int]) -> str:
    return "{" + ", ".join(str(i) for i in face_members) + "}"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _spec_and_complex(path: str, v_override: Optional[int]):
    spec = load_spec(path)
    complex_, v_used = complex_from_spec(spec, v_override)
    return spec, complex_, v_used


def cmd_scarf(args) -> int:
    spec, complex_, v_used = _spec_and_complex(args.spec, args.v)
    ideal = complex_.ideal
    facets = complex_.facets()
    if args.json:
        _emit_json(
            {
                "generators": [list(g) for g in ideal.generators],
                "generic": is_generic(ideal),
                "deformation_v": v_used,
                "kind": complex_.kind,
                "face_count": len(complex_.faces),
                "faces": [
                    {"members": list(f.members), "label": list(f.label)}
                    for f in complex_.faces
                ],
                "facets": [list(f.members) for f in facets],
            }
        )
        return 0
    print(f"generators ({len(ideal.generators)}), 1-based, input order:")
    for i, g in enumerate(ideal.generators, start=1):
        print(f"  {i}: {g}")
    print(f"generic: {'yes' if is_generic(ideal) else 'no'}")
    if v_used is None:
        print("deformation: not applied")
    else:
        print(f"deformation: applied (v = {v_used})")
    print(f"faces ({len(complex_.faces)}):")
    for f in complex_.faces:
        print(f"  {_members(f.members)}  {f.label}")
    print(f"facets ({len(facets)}):")
    for f in facets:
        print(f"  {_members(f.members)}")
    print(f"face count: {len(complex_.faces)}")
    return 0


def cmd_reliability(args) -> int:
    spec, complex_, v_used = _spec_and_complex(args.spec, args.v)
    report = build_report(spec.system, complex_)
    discrepancy = (
        None
        if report.oracle_value is None
        else abs(report.identity_value - report.oracle_value)
    )
    if args.json:
        _emit_json(
            {
                "identity_value": report.identity_value,
                "term_count": report.term_count,
                "baseline_term_count": report.baseline_term_count,
                "deformation_v": v_used,
                "oracle_value": report.oracle_value,
                "discrepancy": discrepancy,
                "terms": [
                    {"sign": t.sign, "exponent": list(t.exponent), "cardinality": t.cardinality}
                    for t in report.terms
                ],
                "faces": [
                    {"members": list(f.members), "label": list(f.label)}
                    for f in complex_.faces
                ],
                "bounds": [
                    {"depth": b.depth, "kind": b.kind, "value": b.value}
                    for b in report.bounds
                ],
            }
        )
        return 0
    print(f"system: {spec.system.dimension} components")
    print(f"generators: {len(complex_.ideal.generators)}")
    print(f"generic: {'yes' if v_used is None else 'no'}")
    if v_used is not None:
        print(f"deformation: applied (v = {v_used})")
    print(f"identity: {_fmt(report.identity_value)}")
    print(f"terms: {report.term_count} (complete formula: {report.baseline_term_count})")
    if report.oracle_value is None:
        states = math.prod(spec.system.level_counts())
        print(f"oracle: skipped ({states} states exceeds cap {STATE_CAP})")
    else:
        states = math.prod(spec.system.level_counts())
        print(f"oracle: {_fmt(report.oracle_value)} ({states} states)")
        print(f"discrepancy: {_fmt(discrepancy)}")
    return 0


def _parse_depths(raw: Optional[str], max_depth: int) -> list[int]:
    if raw is None:
        return list(range(1, max_depth + 1))
    depths = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            depths.append(int(piece))
        except ValueError:
            raise SpecFileError(f"--depth entries must be integers, got {piece!r}")
    return depths


def cmd_bounds(args) -> int:
    spec, complex_, v_used = _spec_and_complex(args.spec, args.v)
    depths = _parse_depths(args.depth, complex_.max_cardinality())
    for depth in depths:
        check_depth(depth, complex_.max_cardinality())
    scarf = depth_bounds(spec.system, complex_, max(depths))
    bonferroni = ()  # depths never exceed r; the subset walk stops at max(depths)
    if len(complex_.ideal.generators) <= TAYLOR_GENERATOR_CAP:
        bonferroni = subset_bounds(spec.system, complex_.ideal, max(depths))
    rows = []
    for depth in depths:
        scarf_bound = scarf[depth - 1]
        bonf_value = bonferroni[depth - 1].value if bonferroni else None
        tighter = "n/a"
        if bonf_value is not None:
            if abs(scarf_bound.value - bonf_value) <= 1e-12:
                tighter = "equal"
            elif scarf_bound.kind == "upper":
                tighter = "scarf" if scarf_bound.value < bonf_value else "bonferroni"
            else:
                tighter = "scarf" if scarf_bound.value > bonf_value else "bonferroni"
        rows.append((scarf_bound, bonf_value, tighter))
    if args.json:
        _emit_json(
            {
                "deformation_v": v_used,
                "rows": [
                    {
                        "depth": b.depth,
                        "kind": b.kind,
                        "scarf": b.value,
                        "bonferroni": bonf,
                        "tighter": tighter,
                    }
                    for b, bonf, tighter in rows
                ],
            }
        )
        return 0
    print("depth  kind   scarf            bonferroni       tighter")
    for b, bonf, tighter in rows:
        bonf_text = "n/a" if bonf is None else _fmt(bonf)
        print(f"{b.depth:>5}  {b.kind:<5}  {_fmt(b.value):<16} {bonf_text:<16} {tighter}")
    return 0


def cmd_oracle(args) -> int:
    spec = load_spec(args.spec)
    ideal = ideal_from_spec(spec)
    value = brute_force_reliability(spec.system, ideal)
    states = math.prod(spec.system.level_counts())
    if args.json:
        _emit_json({"states": states, "reliability": value})
        return 0
    print(f"states: {states}")
    print(f"reliability: {_fmt(value)}")
    return 0


def _compare_file(args) -> int:
    spec, complex_, v_used = _spec_and_complex(args.spec, args.v)
    system = spec.system
    ideal = complex_.ideal
    values = {"scarf": reliability_identity(system, complex_)}
    if len(ideal.generators) <= TAYLOR_GENERATOR_CAP:
        values["taylor"] = subset_bounds(system, ideal)[-1].value
    if math.prod(system.level_counts()) <= STATE_CAP:
        values["oracle"] = brute_force_reliability(system, ideal)
    spread = max(values.values()) - min(values.values())
    ok = spread <= AGREEMENT_TOL
    if args.json:
        _emit_json(
            {
                "identity_scarf": values["scarf"],
                "identity_taylor": values.get("taylor"),
                "oracle": values.get("oracle"),
                "deformation_v": v_used,
                "max_discrepancy": spread,
                "ok": ok,
            }
        )
        return 0 if ok else 1
    print(f"identity (scarf): {_fmt(values['scarf'])}")
    if "taylor" in values:
        print(f"identity (taylor): {_fmt(values['taylor'])}")
    if "oracle" in values:
        print(f"oracle: {_fmt(values['oracle'])}")
    print(f"max discrepancy: {_fmt(spread)}")
    print(f"agreement (<= {AGREEMENT_TOL:g}): {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _compare_random(args) -> int:
    seed = args.seed if args.seed is not None else 0
    count = args.count
    if count < 1:
        raise SpecFileError(f"--count must be at least 1, got {count}")
    rng = random.Random(seed)
    failures = 0
    worst = 0.0
    for _ in range(count):
        system = random_system(rng)
        ideal = minimalize(random_points_for(rng, system))
        oracle = brute_force_reliability(system, ideal)
        scarf_value = reliability_identity(system, deform_and_scarf(ideal))
        taylor_value = subset_bounds(system, ideal)[-1].value
        spread = max(scarf_value, taylor_value, oracle) - min(
            scarf_value, taylor_value, oracle
        )
        worst = max(worst, spread)
        if spread > AGREEMENT_TOL:
            failures += 1
    ok = failures == 0
    if args.json:
        _emit_json(
            {
                "count": count,
                "seed": seed,
                "failures": failures,
                "max_discrepancy": worst,
                "ok": ok,
            }
        )
        return 0 if ok else 1
    print(f"random self-test: {count} systems, seed {seed}")
    print(f"failures: {failures}")
    print(f"max discrepancy: {_fmt(worst)}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    if args.spec is None:
        return _compare_random(args)
    return _compare_file(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarfrel",
        description="Reliability of coherent multistate systems via Scarf complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec_required=True):
        if spec_required:
            p.add_argument("spec", help="JSON system spec file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_scarf = sub.add_parser("scarf", help="faces, labels and facets of the complex")
    add_common(p_scarf)
    p_scarf.add_argument("--v", type=int, help="deformation denominator (must exceed r)")
    p_scarf.set_defaults(func=cmd_scarf)

    p_rel = sub.add_parser("reliability", help="identity value and term counts")
    add_common(p_rel)
    p_rel.add_argument("--v", type=int, help="deformation denominator (must exceed r)")
    p_rel.set_defaults(func=cmd_reliability)

    p_bounds = sub.add_parser("bounds", help="truncation bounds per depth")
    add_common(p_bounds)
    p_bounds.add_argument("--v", type=int, help="deformation denominator (must exceed r)")
    p_bounds.add_argument("--depth", help="comma-separated depths (default: all)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_oracle = sub.add_parser("oracle", help="state-enumeration reliability")
    add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_cmp = sub.add_parser(
        "compare", help="cross-check all routes (no FILE: random self-test)"
    )
    p_cmp.add_argument("spec", nargs="?", help="JSON system spec file")
    p_cmp.add_argument("--json", action="store_true", help="emit a JSON report")
    p_cmp.add_argument("--v", type=int, help="deformation denominator (must exceed r)")
    p_cmp.add_argument("--seed", type=int, help="seed for the random self-test")
    p_cmp.add_argument(
        "--count", type=int, default=25, help="number of random systems (default 25)"
    )
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, CutoffUnreachableError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
