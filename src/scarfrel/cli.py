"""Command-line interface.

Every subcommand takes one pipeline: load the spec, extract its minimal
nonfailure points (explicit list or profit grid scan) and check
genericity once.  The Scarf route then runs on the ideal or, for a
non-generic ideal, on its deformation.  ``scarf`` and ``reliability``,
which print faces, build the complex; ``bounds`` and ``compare``, which
only sum, take the Scarf walk's lcm codes per face size and build no
complex and no member tuple (``bounds`` walks only as deep as its deepest
``--depth``).  Each subcommand only picks the routes it evaluates on that
result:

- ``scarf FILE``: generators, genericity, deformation, full face list
  with lcm labels, facets and face count.
- ``reliability FILE``: identity value, term count against the full
  2^r - 1 formula, and the enumeration oracle when the state space is
  small enough.
- ``bounds FILE``: truncation bounds per depth, Scarf route next to the
  classical full-subset (Bonferroni) route, flagging the tighter side.
- ``oracle FILE``: enumeration oracle only (the pipeline stops at the ideal,
  and a grid above the state cap is refused before the ideal is built).
- ``compare [FILE]``: all routes side by side with the maximum
  discrepancy; without FILE, a seeded randomized self-test corpus whose
  random systems take the same generic-or-deform choice as a spec file.

Every command returns its report as a payload and a callable that yields
its text lines; ``main`` alone writes one of them to stdout, flushes and
maps the outcome to an exit code, so a ``--json`` call formats no text line.
All numbers print with 12 significant digits and every report is
deterministic byte for byte.  ``--json`` prints ``json.dumps(payload,
indent=2, sort_keys=True)`` of the payload with each complex replaced: under
``faces`` by the dicts of ``cx.faces``, under ``terms`` by those of
``hilbert_numerator(cx)[1:]``.  It fills int rows, faces and terms into
``%`` templates instead of running that pure-Python encoder.  Rows of one length
share one template.  Faces and terms come from the complex's cardinality
runs and lcm code runs: each distinct code's label is decoded and filled
into its slot once, and that one text serves its faces and its terms.  A
face run fills one template, a slot for the label text and one per member,
by ``map`` in C; a term run shares one cardinality and sign, so it is one
``str.join`` of label texts.  No Face or term tuple is built, and no Python
statement runs per item.

Exit codes: 0 success; 1 runtime failure or detected disagreement
(``compare``'s ``"ok": false``); 2 invalid spec file or argument, such as
``--v`` not above r or a ``--depth`` outside the complex, or an ideal whose
Scarf builder would need more than ``SCARF_PAIR_CAP`` pair tests, refused
before the complex is built (the oracle's state cap keeps exit 1).  A
reader that closes stdout early (``scarfrel scarf FILE | head -1``) ends
the call with exit code 1 and no message.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, groupby, islice

from .analysis import STATE_CAP, _check_oracle_cap, _code_bounds, _oracle_affordable
from .analysis import brute_force_reliability, build_report, check_depth, subset_bounds
from .complexes import TAYLOR_GENERATOR_CAP, ComplexSizeError, check_deformation_v
from .complexes import _labels, _scarf_codes, deform_and_scarf, scarf_complex
from .monomial import is_generic, minimalize
from .specfile import SpecFileError, load_spec
from .systems import (
    CutoffUnreachableError,
    minimal_points_from_profit,
    random_points_for,
    random_system,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Optional, Sequence

    _Report = tuple[dict, Callable[[], Iterable[str]]]  # a payload and its text lines, built on demand

AGREEMENT_TOL = 1e-9
_ROUTES = {"scarf": "identity (scarf)", "taylor": "identity (taylor)", "oracle": "oracle"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _members(face_members: Sequence[int]) -> str:
    return "{" + ", ".join(str(i) for i in face_members) + "}"


def _slot(pad: str, n: int) -> str:
    """``%s`` slots for n ints, laid out as json.dumps(indent=2) lays out a list at indent pad."""
    sep = ",\n" + pad + "  "
    return f"[{sep[1:]}{sep.join(['%s'] * n)}\n{pad}]" if n else "[]"


def _rows(rows, tables=None) -> list[str]:
    """Each int row filled into the slot of its length; ``tables`` goes unused.

    ``groupby`` splits the lengths into runs of equal ones, comparing them
    in C, and each run fills its one template by ``map``.
    """
    texts: list[str] = []
    items = iter(rows)
    for n, run in groupby(map(len, rows)):
        texts += map(_slot("    ", n).__mod__, islice(items, len(list(run))))
    return texts


def _label_texts(complex_, tables: dict) -> dict[int, str]:
    """Each distinct lcm code's label filled into its slot at an item's indent.

    Made once per payload and kept in its ``tables`` by complex, so the
    complex's faces and terms share one text per code.
    """
    if id(complex_) not in tables:
        labels = _labels(complex_.ideal, chain.from_iterable(complex_._lcm))
        slot = _slot("      ", complex_.ideal.dimension).__mod__
        tables[id(complex_)] = dict(zip(labels, map(slot, labels.values())))
    return tables[id(complex_)]


def _face_texts(complex_, tables: dict) -> list[str]:
    """The complex's faces as dicts of their fields, a cardinality run at a time:
    one template per run, filled with each face's label text and members by ``map``."""
    text, texts = _label_texts(complex_, tables), []
    for run, codes in zip(complex_._runs, complex_._lcm):
        form = f'{{\n      "label": %s,\n      "members": {_slot("      ", len(run[0]))}\n    }}'
        texts += map(form.__mod__, map(tuple.__add__, zip(map(text.__getitem__, codes)), run))
    return texts


def _term_texts(complex_, tables: dict) -> list[str]:
    """The terms of ``hilbert_numerator(complex_)[1:]`` as dicts of their fields: a run's
    terms share a cardinality and a sign, so each run is one join of label texts."""
    text, texts = _label_texts(complex_, tables), []
    for size, codes in enumerate(complex_._lcm, 1):
        head = f'{{\n      "cardinality": {size},\n      "exponent": '
        tail = f',\n      "sign": {(-1) ** size}\n    }}'
        texts.append(head + f"{tail},\n    {head}".join(map(text.__getitem__, codes)) + tail)
    return texts


_SHAPES = {"generators": _rows, "facets": _rows, "faces": _face_texts, "terms": _term_texts}


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` with each complex replaced, byte for byte.

    Lists under a ``_SHAPES`` key are filled into templates: int rows (every
    int list a tuple), and under ``faces`` and ``terms`` a complex, rendered
    as the dicts of ``cx.faces`` and of ``hilbert_numerator(cx)[1:]``.  Every
    other value goes through ``json.dumps`` on its own, indented one level.
    """
    items, tables = [], {}  # the label texts of the payload's complexes, by id
    for key in sorted(payload):
        if key in _SHAPES:
            texts = _SHAPES[key](payload[key], tables)
            text = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
        else:
            text = json.dumps(payload[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _checked(check, *args) -> None:
    """Run an argument ``check``; a ValueError it raises means an invalid argument."""
    try:
        check(*args)
    except ValueError as err:
        raise SpecFileError(str(err)) from err


def _route(ideal, v: Optional[int]) -> Optional[int]:
    """The deformation v to use: None when the ideal is generic, else v (default r + 1).

    v is checked against r either way, also when the ideal is generic and v goes unused.
    """
    r = len(ideal.generators)
    v = r + 1 if v is None else v
    _checked(check_deformation_v, v, r)
    return None if is_generic(ideal) else v


def _ideal(spec):
    """A loaded spec's ideal: its points minimalized, or its profit grid's minimal states."""
    if spec.points is not None:
        return minimalize(spec.points)
    return minimal_points_from_profit(spec.profit, spec.system.level_counts())


def _pipeline(path: str, v: Optional[int] = None):
    """(system, ideal, v used) for a spec file; v used is None for a generic ideal.

    ``v`` from the command line wins over the spec's ``deformation_v``.  The
    commands then take one Scarf route on the ideal: the complex
    (:func:`_complex`) for the reports that print faces, or only the faces'
    lcm codes (``complexes._scarf_codes``) for ``bounds`` and ``compare``,
    which sum them and build no complex.
    """
    spec = load_spec(path)
    ideal = _ideal(spec)
    return spec.system, ideal, _route(ideal, spec.deformation_v if v is None else v)


def _complex(ideal, v_used: Optional[int]):
    """The Scarf complex of a generic ideal (v_used None), else of its deformation."""
    return scarf_complex(ideal) if v_used is None else deform_and_scarf(ideal, v_used)


def _cross_check(system, ideal, runs) -> dict[str, float]:
    """Identity from the Scarf walk's code lists, over every subset and by the oracle,
    each where its cap allows."""
    values = {"scarf": _code_bounds(system, ideal, runs)[-1].value}
    if len(ideal.generators) <= TAYLOR_GENERATOR_CAP:
        values["taylor"] = subset_bounds(system, ideal)[-1].value
    if _oracle_affordable(system):
        values["oracle"] = brute_force_reliability(system, ideal)
    return values


def cmd_scarf(args) -> _Report:
    _, ideal, v_used = _pipeline(args.spec, args.v)
    complex_ = _complex(ideal, v_used)
    face_count, facets = len(complex_.member_tuples), [f.members for f in complex_.facets()]
    payload = {
        "generators": ideal.generators,
        "generic": v_used is None,
        "deformation_v": v_used,
        "kind": complex_.kind,
        "face_count": face_count,
        "faces": complex_,
        "facets": facets,
    }

    def text():
        yield f"generators ({len(ideal.generators)}), 1-based, input order:"
        yield from (f"  {i}: {g}" for i, g in enumerate(ideal.generators, start=1))
        yield f"generic: {'yes' if v_used is None else 'no'}"
        yield "deformation: " + ("not applied" if v_used is None else f"applied (v = {v_used})")
        yield f"faces ({face_count}):"
        yield from (f"  {_members(f.members)}  {f.label}" for f in complex_.faces)
        yield f"facets ({len(facets)}):"
        yield from (f"  {_members(members)}" for members in facets)
        yield f"face count: {face_count}"

    return payload, text


def cmd_reliability(args) -> _Report:
    system, ideal, v_used = _pipeline(args.spec, args.v)
    complex_ = _complex(ideal, v_used)
    report = build_report(system, complex_)
    oracle = report.oracle_value
    discrepancy = None if oracle is None else abs(report.identity_value - oracle)
    payload = {
        "identity_value": report.identity_value,
        "term_count": report.term_count,
        "baseline_term_count": report.baseline_term_count,
        "deformation_v": v_used,
        "oracle_value": oracle,
        "discrepancy": discrepancy,
        "terms": complex_,
        "faces": complex_,
        "bounds": [{"depth": b.depth, "kind": b.kind, "value": b.value} for b in report.bounds],
    }

    def text():
        yield f"system: {system.dimension} components"
        yield f"generators: {len(ideal.generators)}"
        yield f"generic: {'yes' if v_used is None else 'no'}"
        if v_used is not None:
            yield f"deformation: applied (v = {v_used})"
        yield f"identity: {_fmt(report.identity_value)}"
        yield f"terms: {report.term_count} (complete formula: {report.baseline_term_count})"
        states = math.prod(system.level_counts())
        if oracle is None:
            yield f"oracle: skipped ({states} states exceeds cap {STATE_CAP})"
        else:
            yield f"oracle: {_fmt(oracle)} ({states} states)"
            yield f"discrepancy: {_fmt(discrepancy)}"

    return payload, text


def _parse_depths(raw: Optional[str]) -> Optional[list[int]]:
    """The ``--depth`` entries as ints, in the order given, or None (every depth) without the flag.

    Each entry is checked in order before the walk, so a bad entry costs no
    face: the first that is not an integer or is below 1 is named.  An
    entry above d is checked against the complex after the walk, which names
    the complex's true maximum.
    """
    if raw is None:
        return None
    depths = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            depth = int(piece)
        except ValueError:
            raise SpecFileError(f"--depth entries must be integers, got {piece!r}")
        if depth < 1:
            raise SpecFileError(f"depth must be at least 1, got {depth}")
        depths.append(depth)
    return depths


def _row(b, bonf: Optional[float]) -> dict:
    """One ``bounds`` row from the Scarf DepthBound ``b`` and the Bonferroni value at its depth."""
    if bonf is None:
        tighter = "n/a"
    elif abs(b.value - bonf) <= 1e-12:
        tighter = "equal"
    else:
        wins = b.value < bonf if b.kind == "upper" else b.value > bonf
        tighter = "scarf" if wins else "bonferroni"
    return dict(depth=b.depth, kind=b.kind, scarf=b.value, bonferroni=bonf, tighter=tighter)


def cmd_bounds(args) -> _Report:
    system, ideal, v_used = _pipeline(args.spec, args.v)
    depths = _parse_depths(args.depth)
    runs = _scarf_codes(ideal, v_used, None if depths is None else max(depths))
    for depth in depths or ():
        _checked(check_depth, depth, len(runs))
    depths = depths or range(1, len(runs) + 1)
    scarf = _code_bounds(system, ideal, runs, max(depths))
    # depths never exceed r; the subset walk stops at max(depths)
    bonferroni = [None] * len(scarf)
    if len(ideal.generators) <= TAYLOR_GENERATOR_CAP:
        bonferroni = [b.value for b in subset_bounds(system, ideal, max(depths))]
    rows = [_row(scarf[depth - 1], bonferroni[depth - 1]) for depth in depths]

    def text():
        yield "depth  kind   scarf            bonferroni       tighter"
        for row in rows:
            bonf = "n/a" if row["bonferroni"] is None else _fmt(row["bonferroni"])
            value = _fmt(row["scarf"])
            yield f"{row['depth']:>5}  {row['kind']:<5}  {value:<16} {bonf:<16} {row['tighter']}"

    return {"deformation_v": v_used, "rows": rows}, text


def cmd_oracle(args) -> _Report:
    spec = load_spec(args.spec)
    states = _check_oracle_cap(spec.system)  # before the ideal, whose extraction can take seconds
    value = brute_force_reliability(spec.system, _ideal(spec))
    payload = {"states": states, "reliability": value}
    return payload, lambda: (f"states: {states}", f"reliability: {_fmt(value)}")


def cmd_compare(args) -> _Report:
    if args.spec is None:
        ignored, needs = {"--v": args.v}, "a FILE"
    else:
        ignored = {"--seed": args.seed, "--count": args.count}
        needs = "the random self-test (no FILE)"
    for flag, value in ignored.items():
        if value is not None:
            raise SpecFileError(f"{flag} applies only to {needs}")
    if args.spec is not None:
        system, ideal, v_used = _pipeline(args.spec, args.v)
        values = _cross_check(system, ideal, _scarf_codes(ideal, v_used))
        worst = max(values.values()) - min(values.values())
        ok = worst <= AGREEMENT_TOL
        payload = {
            "identity_scarf": values["scarf"],
            "identity_taylor": values.get("taylor"),
            "oracle": values.get("oracle"),
            "deformation_v": v_used,
        }

        def text():
            yield from (f"{_ROUTES[route]}: {_fmt(value)}" for route, value in values.items())
            yield f"max discrepancy: {_fmt(worst)}"
            yield f"agreement (<= {AGREEMENT_TOL:g}): {'yes' if ok else 'no'}"

    else:
        seed = 0 if args.seed is None else args.seed
        count = 25 if args.count is None else args.count
        if count < 1:
            raise SpecFileError(f"--count must be at least 1, got {count}")
        import random  # only the random self-test needs it

        rng = random.Random(seed)
        failures = 0
        worst = 0.0
        for _ in range(count):
            system = random_system(rng)
            ideal = minimalize(random_points_for(rng, system))
            values = _cross_check(system, ideal, _scarf_codes(ideal, _route(ideal, None))).values()
            spread = max(values) - min(values)
            worst = max(worst, spread)
            failures += spread > AGREEMENT_TOL
        ok = failures == 0
        payload = {"count": count, "seed": seed, "failures": failures}

        def text():
            yield f"random self-test: {count} systems, seed {seed}"
            yield f"failures: {failures}"
            yield f"max discrepancy: {_fmt(worst)}"

    payload.update(max_discrepancy=worst, ok=ok)
    return payload, text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` returns a fresh namespace on every call, so calls share no state.
    """
    parser = argparse.ArgumentParser(
        prog="scarfrel",
        description="Reliability of coherent multistate systems via Scarf complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, spec_nargs=None, v=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", nargs=spec_nargs, help="JSON system spec file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if v:
            p.add_argument("--v", type=int, help="deformation denominator (must exceed r)")
        p.set_defaults(func=func)
        return p

    add("scarf", cmd_scarf, "faces, labels and facets of the complex")
    add("reliability", cmd_reliability, "identity value and term counts")
    p_bounds = add("bounds", cmd_bounds, "truncation bounds per depth")
    p_bounds.add_argument("--depth", help="comma-separated depths (default: all)")
    add("oracle", cmd_oracle, "state-enumeration reliability", v=False)
    p_cmp = add("compare", cmd_compare, "cross-check all routes (no FILE: random self-test)", "?")
    p_cmp.add_argument("--seed", type=int, help="seed for the random self-test")
    p_cmp.add_argument("--count", type=int, help="number of random systems (default 25)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse takes "-2,1" for an option: join it
        if argv[i] == "--depth" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i:i + 2] = [f"--depth={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
        print(_json_text(payload) if args.json else "\n".join(text()))
        sys.stdout.flush()  # a reader that left early is met here, not at exit
        return 0 if payload.get("ok", True) else 1
    except BrokenPipeError:
        # The reader closed stdout (``scarfrel scarf FILE | head -1``): not an
        # error to report.  As the SIGPIPE note in the ``signal`` docs does,
        # point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        # an empty message (MemoryError has one) is named by its type
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2 if isinstance(err, (SpecFileError, CutoffUnreachableError, ComplexSizeError)) else 1


if __name__ == "__main__":
    sys.exit(main())
