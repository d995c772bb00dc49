"""Output checks for the benchmark's CLI calls.

Written against the JSON reports only and sharing no code with the package
under test: membership, lcm labels, survival tables and the reference
reliability are all recomputed here.  Each check raises ``CheckError`` with
a one-line reason.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

TOL = 1e-9
IE_GENERATOR_CAP = 16
TAYLOR_GENERATOR_CAP = 20  # the CLI builds the full subset complex up to this r
_RANDOM_SAMPLES = 64


class CheckError(AssertionError):
    """A CLI report disagrees with the independently computed reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _vmax(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _survival_tables(spec):
    if "survival" not in spec.cache:
        spec.cache["survival"] = [
            [math.fsum(row[t:]) for t in range(len(row))] + [0.0] for row in spec.probs
        ]
    return spec.cache["survival"]


def _orthant(tables, label) -> float:
    p = 1.0
    for table, level in zip(tables, label):
        p *= table[min(level, len(table) - 1)]
    return p


def reference_identity(spec) -> float:
    """Nonfailure probability by inclusion-exclusion over every generator subset."""
    if "identity" not in spec.cache:
        gens = spec.generators
        r = len(gens)
        _require(r <= IE_GENERATOR_CAP, f"{spec.name}: r = {r} is too big for the reference")
        tables = _survival_tables(spec)
        terms: list[float] = []

        def walk(start, label, sign):
            for j in range(start, r):
                lab = _vmax(label, gens[j])
                terms.append(sign * _orthant(tables, lab))
                walk(j + 1, lab, -sign)

        walk(0, (0,) * spec.dimension, 1)
        spec.cache["identity"] = math.fsum(terms)
    return spec.cache["identity"]


def _masks(vectors):
    """Per coordinate k and level t: bitmask of the vectors with entry <= t."""
    d = len(vectors[0])
    tops = [max(v[k] for v in vectors) for k in range(d)]
    le = []
    for k in range(d):
        level = [0] * (tops[k] + 1)
        for i, v in enumerate(vectors):
            level[v[k]] |= 1 << i
        acc, row = 0, []
        for bits in level:
            acc |= bits
            row.append(acc)
        le.append(row)
    return tops, le


def _dividing(masks, beta) -> int:
    """Bitmask of the vectors that divide ``beta``."""
    tops, le = masks
    m = -1
    for k, b in enumerate(beta):
        m &= le[k][min(b, tops[k])]
        if not m:
            break
    return m


def _sample_points(spec, labels, salt: str):
    gens = spec.generators
    top = tuple(max(col) for col in zip(*gens))
    points = set(labels) | set(gens) | {top}
    points.update(_vmax(a, b) for a, b in combinations(gens, 2))
    rng = random.Random(f"{spec.name}:{salt}")
    box = [t + 1 for t in top]
    points.update(
        tuple(rng.randint(0, b) for b in box) for _ in range(_RANDOM_SAMPLES)
    )
    return points


def check_pointwise(spec, faces, salt: str) -> None:
    """The faces' signed label count at beta must equal [beta in ideal].

    That is the pointwise coefficient identity 1 - sum_F (-1)^{|F|+1} [label F
    divides beta] = 1 - [beta in ideal] of any inclusion-exclusion support.
    Sample points are every face label, every generator, the lcm of every
    generator pair, the lcm of all generators and seeded random points.
    """
    coef: dict[tuple, int] = {}
    for members, label in faces:
        coef[label] = coef.get(label, 0) + (1 if len(members) % 2 else -1)
    labels = list(coef)
    label_masks = _masks(labels)
    groups: dict[int, int] = {}
    for i, label in enumerate(labels):
        if coef[label]:
            groups[coef[label]] = groups.get(coef[label], 0) | (1 << i)
    gen_masks = _masks(list(spec.generators))
    for beta in _sample_points(spec, labels, salt):
        below = _dividing(label_masks, beta)
        count = sum(c * (below & bits).bit_count() for c, bits in groups.items())
        inside = 1 if _dividing(gen_masks, beta) else 0
        _require(
            count == inside,
            f"{spec.name}: signed label count {count} at {beta} but membership is {inside}",
        )


def _faces(payload):
    faces = []
    for f in payload["faces"]:
        faces.append((tuple(f["members"]), tuple(f["label"])))
    return faces


def _faces_identity(spec, faces) -> float:
    tables = _survival_tables(spec)
    return math.fsum(
        (1 if len(m) % 2 else -1) * _orthant(tables, label) for m, label in faces
    )


def check_scarf(spec, payload) -> None:
    gens = [tuple(g) for g in payload["generators"]]
    _require(
        len(gens) == len(spec.generators) and set(gens) == set(spec.generators),
        f"{spec.name}: reported generators differ from the minimal points",
    )
    faces = _faces(payload)
    _require(payload["face_count"] == len(faces), f"{spec.name}: face_count disagrees with faces")
    r = len(gens)
    seen = set()
    for members, label in faces:
        _require(
            list(members) == sorted(set(members)) and 1 <= members[0] and members[-1] <= r,
            f"{spec.name}: malformed face {members}",
        )
        _require(members not in seen, f"{spec.name}: duplicate face {members}")
        seen.add(members)
        lab = gens[members[0] - 1]
        for i in members[1:]:
            lab = _vmax(lab, gens[i - 1])
        _require(lab == label, f"{spec.name}: face {members} labeled {label}, lcm is {lab}")
    for facet in payload["facets"]:
        _require(tuple(facet) in seen, f"{spec.name}: facet {facet} is not a face")
    check_pointwise(spec, faces, "scarf")


def check_reliability(spec, payload) -> None:
    faces = _faces(payload)
    _require(payload["term_count"] == len(faces), f"{spec.name}: term_count disagrees with faces")
    check_pointwise(spec, faces, "reliability")
    identity = payload["identity_value"]
    expected = _faces_identity(spec, faces)
    _require(
        abs(identity - expected) <= TOL,
        f"{spec.name}: identity {identity!r} but the faces sum to {expected!r}",
    )
    bounds = payload["bounds"]
    _require(
        bool(bounds) and abs(bounds[-1]["value"] - identity) <= TOL,
        f"{spec.name}: deepest bound does not equal the identity",
    )
    oracle = payload["oracle_value"]
    _require(
        (oracle is not None) == spec.oracle_expected,
        f"{spec.name}: oracle {'ran' if oracle is not None else 'skipped'} on "
        f"{spec.states} states",
    )
    if oracle is not None:
        _require(
            abs(identity - oracle) <= TOL and payload["discrepancy"] <= TOL,
            f"{spec.name}: identity {identity!r} and oracle {oracle!r} disagree",
        )


def check_bounds(spec, payload) -> None:
    exact = reference_identity(spec)
    rows = payload["rows"]
    _require(bool(rows), f"{spec.name}: no bounds")
    for depth, row in enumerate(rows, start=1):
        _require(row["depth"] == depth, f"{spec.name}: depths are not 1..{len(rows)}")
        upper = depth % 2 == 1
        _require(row["kind"] == ("upper" if upper else "lower"), f"{spec.name}: depth {depth} has kind {row['kind']}")
        side = 1 if upper else -1
        scarf, bonf = row["scarf"], row["bonferroni"]
        _require(
            side * (scarf - exact) >= -TOL,
            f"{spec.name}: depth {depth} scarf bound {scarf!r} on the wrong side of {exact!r}",
        )
        _require(
            bonf is not None or len(spec.generators) > TAYLOR_GENERATOR_CAP,
            f"{spec.name}: depth {depth} has no Bonferroni bound",
        )
        if bonf is not None:
            _require(
                side * (bonf - exact) >= -TOL,
                f"{spec.name}: depth {depth} Bonferroni bound {bonf!r} on the wrong side of {exact!r}",
            )
            _require(
                side * (bonf - scarf) >= -TOL,
                f"{spec.name}: depth {depth} Scarf bound {scarf!r} looser than Bonferroni {bonf!r}",
            )
    _require(
        abs(rows[-1]["scarf"] - exact) <= TOL,
        f"{spec.name}: deepest Scarf bound {rows[-1]['scarf']!r} is not the identity {exact!r}",
    )


def check_compare(spec, payload) -> None:
    exact = reference_identity(spec)
    _require(payload["ok"] is True, f"{spec.name}: compare did not report ok")
    _require(payload["max_discrepancy"] <= TOL, f"{spec.name}: discrepancy {payload['max_discrepancy']!r}")
    routes = {"identity_scarf": payload["identity_scarf"], "identity_taylor": payload["identity_taylor"]}
    if spec.oracle_expected:
        routes["oracle"] = payload["oracle"]
    for name, value in routes.items():
        _require(
            value is not None and abs(value - exact) <= TOL,
            f"{spec.name}: {name} {value!r} differs from the reference {exact!r}",
        )


CHECKS = {
    "scarf": check_scarf,
    "reliability": check_reliability,
    "bounds": check_bounds,
    "compare": check_compare,
}
