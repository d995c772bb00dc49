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
deterministic byte for byte; ``--json`` prints exactly ``json.dumps(payload,
indent=2, sort_keys=True)``, but fills face, term and int-row lists into
cached ``%`` templates instead of running that pure-Python encoder.  Items
of one shape (a complex's faces and terms come a cardinality run at a time)
share one template, which holds a slot for every int of the item, label
ints included; it is looked up once per run and filled by ``map`` in C, so
no Python statement runs per item.

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
from itertools import groupby, islice
from operator import itemgetter

from .analysis import STATE_CAP, _check_oracle_cap, _code_bounds, _oracle_affordable
from .analysis import brute_force_reliability, build_report, check_depth, subset_bounds
from .complexes import TAYLOR_GENERATOR_CAP, ComplexSizeError, check_deformation_v
from .complexes import _scarf_codes, deform_and_scarf, scarf_complex
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


# The ``%s`` template of an item by kind, from the item's shape: the lengths of
# its int lists and, for a term, its cardinality and sign, which a run of terms
# shares.  Faces and terms render as dicts of their fields, with a slot for each
# int of their label or exponent.
_FORMS = {
    "row": lambda n: _slot("    ", n),
    "face": lambda n_label, n_members: (
        f'{{\n      "label": {_slot("      ", n_label)},'
        f'\n      "members": {_slot("      ", n_members)}\n    }}'
    ),
    "term": lambda n_exponent, cardinality, sign: (
        f'{{\n      "cardinality": {cardinality},\n      "exponent": {_slot("      ", n_exponent)},'
        f'\n      "sign": {sign}\n    }}'
    ),
}


@functools.cache  # a few entries per dimension and face size
def _template(kind: str, *shape: int) -> str:
    """The ``%s`` template of a ``kind`` item of this shape."""
    return _FORMS[kind](*shape)


def _filled(kind: str, shapes, args) -> list[str]:
    """Each item's ``args`` tuple filled into the template of its shape.

    ``groupby`` splits the shapes into runs of equal ones, comparing them in
    C, and each run looks its template up once and fills it by ``map``.  A
    complex's faces and terms come a cardinality run at a time, so runs are
    long; items in any other order still get the template of their shape.
    """
    texts: list[str] = []
    args = iter(args)
    for shape, run in groupby(shapes):
        texts += map(_template(kind, *shape).__mod__, islice(args, len(list(run))))
    return texts


_MEMBERS, _LABEL = itemgetter(0), itemgetter(1)  # Face fields
_SIGN, _EXPONENT, _CARDINALITY = itemgetter(0), itemgetter(1), itemgetter(2)  # SignedTerm fields


def _rows(rows) -> list[str]:
    return _filled("row", zip(map(len, rows)), rows)


def _faces(faces) -> list[str]:
    labels, members = list(map(_LABEL, faces)), list(map(_MEMBERS, faces))
    shapes = zip(map(len, labels), map(len, members))
    return _filled("face", shapes, map(tuple.__add__, labels, members))


def _terms(terms) -> list[str]:
    exponents = list(map(_EXPONENT, terms))
    shapes = zip(map(len, exponents), map(_CARDINALITY, terms), map(_SIGN, terms))
    return _filled("term", shapes, exponents)


_SHAPES = {"generators": _rows, "facets": _rows, "faces": _faces, "terms": _terms}


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    Lists under a ``_SHAPES`` key (int rows, Face and SignedTerm tuples,
    every int list a tuple) are filled into templates; every other value
    goes through ``json.dumps`` on its own, indented one level.
    """
    items = []
    for key in sorted(payload):
        if key in _SHAPES:
            texts = _SHAPES[key](payload[key])
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
    faces, facets = complex_.faces, [f.members for f in complex_.facets()]
    payload = {
        "generators": ideal.generators,
        "generic": v_used is None,
        "deformation_v": v_used,
        "kind": complex_.kind,
        "face_count": len(faces),
        "faces": faces,
        "facets": facets,
    }

    def text():
        yield f"generators ({len(ideal.generators)}), 1-based, input order:"
        yield from (f"  {i}: {g}" for i, g in enumerate(ideal.generators, start=1))
        yield f"generic: {'yes' if v_used is None else 'no'}"
        yield "deformation: " + ("not applied" if v_used is None else f"applied (v = {v_used})")
        yield f"faces ({len(faces)}):"
        yield from (f"  {_members(f.members)}  {f.label}" for f in faces)
        yield f"facets ({len(facets)}):"
        yield from (f"  {_members(members)}" for members in facets)
        yield f"face count: {len(faces)}"

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
        "terms": report.terms,
        "faces": complex_.faces,
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

    Parsed before the walk, so a non-integer entry costs no face; the range
    is checked against the complex after it.
    """
    if raw is None:
        return None
    depths = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            depths.append(int(piece))
        except ValueError:
            raise SpecFileError(f"--depth entries must be integers, got {piece!r}")
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
    # the walk stops at the deepest entry when every entry lies in 1..d, else it
    # walks every size, so an entry out of range is named against the true maximum
    fits = depths is not None and all(1 <= depth <= ideal.dimension for depth in depths)
    runs = _scarf_codes(ideal, v_used, max(depths) if fits else None)
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
