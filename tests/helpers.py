"""Shared fixtures: reference systems and seeded random factories.

The reference data below (point lists, deformations, face sets) is used by
both the unit tests and the acceptance suite, so it lives in one place.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from scarfrel import (
    DepthBound,
    Face,
    MonomialIdeal,
    SignedTerm,
    deform,
    is_generic,
    minimalize,
)
import scarfrel.analysis as analysis
# Re-exported: tests draw systems from the factory `scarfrel compare` uses.
from scarfrel.systems import random_points_for, random_system

# Planar ideal with generators x^3, x^2 y^2, y^3: small enough to check
# every construction by hand.
PLANAR_GENS = ((3, 0), (2, 2), (0, 3))

# Eight-component binary system with nine minimal nonfailure points
# (a source-to-terminal network).  Deformation with v=10 gives a Scarf
# complex of 103 faces with six five-element facets.
BINARY_NINE = (
    (1, 0, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0, 1, 0, 0),
    (1, 0, 0, 1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 1, 0),
    (0, 0, 1, 1, 1, 1, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 0, 1),
)

BINARY_NINE_FACETS = (
    (1, 2, 4, 7, 9),
    (1, 2, 5, 7, 9),
    (1, 2, 5, 8, 9),
    (1, 3, 5, 7, 9),
    (1, 3, 5, 8, 9),
    (1, 3, 6, 8, 9),
)

# Four-component multistate system (levels 0..3).  These nine points are
# the solutions of profit = cutoff for the profit function below; the full
# set of minimal points of {profit >= cutoff} adds two more, see
# MULTI_EXTRA.
MULTI_NINE = (
    (3, 2, 3, 1),
    (2, 3, 3, 1),
    (2, 0, 2, 2),
    (1, 1, 2, 2),
    (0, 2, 2, 2),
    (3, 0, 1, 3),
    (2, 1, 1, 3),
    (1, 2, 1, 3),
    (0, 3, 1, 3),
)

# profit = a1 + a2 + 4 a3 + 5 a4 + 2 a3 a4, cutoff 28, grid {0..3}^4
MULTI_PROFIT_LINEAR = (1.0, 1.0, 4.0, 5.0)
MULTI_PROFIT_INTERACTIONS = ((2, 3, 2.0),)
MULTI_PROFIT_CUTOFF = 28.0

# Minimal points of the cutoff region that do not attain the cutoff
# exactly: profit jumps from 26 to 34 resp. 35 across the last decrement.
MULTI_EXTRA = ((0, 0, 3, 2), (0, 0, 2, 3))

# Deformation of MULTI_NINE with v=10 (dense ranks per coordinate).
MULTI_NINE_DEFORMED = (
    (7, 4, 7, 0),
    (4, 7, 8, 1),
    (5, 0, 4, 2),
    (2, 2, 5, 3),
    (0, 5, 6, 4),
    (8, 1, 0, 5),
    (6, 3, 1, 6),
    (3, 6, 2, 7),
    (1, 8, 3, 8),
)

# The 31-face complex of the deformed MULTI_NINE ideal.
MULTI_NINE_FACES = (
    (1, 2, 3), (4, 8, 9), (4, 5, 9), (2, 3, 4), (3, 7, 8), (3, 4, 8), (3, 6, 7),
    (4, 9), (5, 9), (2, 3), (2, 4), (3, 8), (8, 9), (7, 8), (4, 8), (3, 6),
    (6, 7), (4, 5), (3, 4), (1, 3), (3, 7), (1, 2),
    (9,), (8,), (7,), (6,), (5,), (4,), (3,), (2,), (1,),
)

# Five-component binary system that is not a network.
NONNETWORK_FIVE = (
    (1, 1, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (0, 0, 1, 1, 0),
    (1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1),
)

# Deformed Scarf complex of NONNETWORK_FIVE under the (value, index)
# ascending tie-break.  Checked against the subset-scan oracle
# (scarf_brute_oracle) on the deformed generators, and pointwise: its
# numerator coefficients equal ideal membership on {0,1,2}^5.
NONNETWORK_FIVE_FACES = (
    (1, 2, 3), (1, 2, 5), (1, 3, 4),
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4),
    (1,), (2,), (3,), (4,), (5,),
)

# The same system's published face listing, under the descending
# tie-break (exponent ties broken toward the higher generator index).
# Reproduced by deform_and_scarf on the points in reverse order, with
# member j mapped back to generator 6 - j; it passes the same pointwise
# check, so both listings are exact supports.
NONNETWORK_FIVE_FACES_REVERSED_TIEBREAK = (
    (1, 2, 3, 5),
    (1, 2, 3), (1, 3, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5),
    (1, 3), (1, 2), (1, 5), (3, 4), (2, 3), (2, 5), (3, 5), (4, 5),
    (1,), (2,), (3,), (4,), (5,),
)


def assert_ideal_passes_the_public_check(ideal: MonomialIdeal) -> None:
    """An ideal a package routine made unchecked equals its rebuild through the
    checked constructor, divisibility index and lcm packing included, and holds
    plain ints."""
    checked = MonomialIdeal(ideal.dimension, ideal.generators)
    assert checked == ideal and hash(checked) == hash(ideal)
    assert checked.le == ideal.le
    assert checked._packed == ideal._packed
    assert type(ideal.generators) is tuple
    assert all(type(g) is tuple and all(type(c) is int for c in g) for g in ideal.generators)


def random_ideal(
    rng: random.Random, d: int | None = None, max_coord: int = 6, max_points: int = 8
) -> MonomialIdeal:
    if d is None:
        d = rng.randint(2, 5)
    points = [
        tuple(rng.randrange(max_coord + 1) for _ in range(d))
        for _ in range(rng.randint(1, max_points))
    ]
    return minimalize(points)


def random_generic_ideal(
    rng: random.Random, d: int | None = None, max_coord: int = 8, max_points: int = 10
) -> MonomialIdeal:
    ideal = random_ideal(rng, d, max_coord, max_points)
    if is_generic(ideal):
        return ideal
    # The rank vectors of any minimal ideal form a generic minimal ideal,
    # so deforming is a cheap way to manufacture generic test inputs.
    return MonomialIdeal(ideal.dimension, deform(ideal).generators)


def full_scan_reliability(system, ideal) -> float:
    """Reference oracle: the fsum of P(state) over every grid state in the ideal.

    Each state's probability is the left-to-right product of its levels'
    probabilities; membership is a plain tuple comparison per generator.
    """
    tables = [c.probs for c in system.components]
    terms = []
    for state in product(*(range(c.levels) for c in system.components)):
        if any(all(g <= s for g, s in zip(gen, state)) for gen in ideal.generators):
            p = 1.0
            for table, level in zip(tables, state):
                p *= table[level]
            terms.append(p)
    return math.fsum(terms)


def full_scan_profit_points(spec, levels) -> tuple:
    """Reference extraction: every grid state reaching the cutoff whose
    one-step decrements all fall below it, in reversed-tuple order."""
    minimal = []
    for alpha in product(*(range(L) for L in levels)):
        if spec.value(alpha) < spec.cutoff:
            continue
        downs = (
            alpha[:i] + (a - 1,) + alpha[i + 1:] for i, a in enumerate(alpha) if a > 0
        )
        if all(spec.value(down) < spec.cutoff for down in downs):
            minimal.append(alpha)
    return tuple(sorted(minimal, key=lambda a: a[::-1]))


def exact_tails(system) -> list:
    """Per component (tails, den): P(X_i >= j) is exactly Fraction(tails[j], den) for
    j = 0..levels, the suffix sums of its float probabilities over their lcm
    denominator (tails[levels] = 0)."""
    exact = []
    for c in system.components:
        ratios = [p.as_integer_ratio() for p in c.probs]
        den = math.lcm(*(d for _, d in ratios))
        tails = [0]
        for n, d in reversed(ratios):
            tails.append(tails[-1] + n * (den // d))
        exact.append((tails[::-1], den))
    return exact


def exact_orthant(tails, label) -> Fraction:
    """P(X >= label coordinatewise) exactly, from the components' ``exact_tails``;
    a level at or past the top has tail 0."""
    num = math.prod(t[min(a, len(t) - 1)] for (t, _), a in zip(tails, label))
    return Fraction(num, math.prod(den for _, den in tails))


def exact_bounds(system, levels) -> tuple:
    """Per depth k, the signed sum of the exact orthants of the labels of cardinality
    <= k as a Fraction, rounded once; ``levels`` lists the labels of cardinality
    1, 2, ..., a label once per face or subset that carries it."""
    tails = exact_tails(system)
    orthants = {}
    total, bounds = Fraction(0), []
    for k, labels in enumerate(levels, start=1):
        for label, n in Counter(labels).items():
            if label not in orthants:
                orthants[label] = exact_orthant(tails, label)
            total += n * orthants[label] if k % 2 else -n * orthants[label]
        bounds.append(DepthBound(k, float(total)))
    return tuple(bounds)


def exact_face_bounds(system, complex_, depth=None) -> tuple:
    """Reference truncation bounds at depths 1..depth (default every size) over the
    complex's faces, with labels from ``reference_faces``, summed exactly."""
    faces = reference_faces(complex_)
    depth = max(f.cardinality for f in faces) if depth is None else depth
    levels = [[] for _ in range(depth)]
    for f in faces:
        if f.cardinality <= depth:
            levels[f.cardinality - 1].append(f.label)
    return exact_bounds(system, levels)


def tuple_walk_bounds(system, ideal, depth=None) -> tuple:
    """Reference Bonferroni bounds at depths 1..depth (default r) from a tuple walk.

    Level s + 1 extends each size-s subset, kept as (last member, lcm
    tuple), by every later generator with a coordinatewise max.  Every
    subset adds its label's exact orthant with its sign, and the depth-k
    bound is the exact sum of cardinality <= k rounded once
    (:func:`exact_bounds`).
    """
    gens = ideal.generators
    depth = len(gens) if depth is None else depth
    levels = []
    level = list(enumerate(gens))
    for s in range(1, depth + 1):
        levels.append([label for _, label in level])
        if s < depth:
            level = [
                (j, tuple(map(max, label, gens[j])))
                for last, label in level
                for j in range(last + 1, len(gens))
            ]
    return exact_bounds(system, levels)


class MemoSpy:
    """Records, while installed, each exact orthant table built (with its ideal) and
    each head or tail product it forms, as (table half, key)."""

    def __init__(self, monkeypatch):
        self.tables, self.formed = [], []
        init, missing = analysis._Orthants.__init__, analysis._Product.__missing__

        def built(orthants, system, ideal):
            init(orthants, system, ideal)
            self.tables.append((orthants, ideal))

        def formed(half, key):
            self.formed.append((id(half), key))
            return missing(half, key)

        monkeypatch.setattr(analysis._Orthants, "__init__", built)
        monkeypatch.setattr(analysis._Product, "__missing__", formed)

    def assert_one_table_forms_each_half_once(self, ideal, codes):
        """One table was built, for ``ideal``, and it formed the product of each head
        key (a code's fields of the first d // 2 coordinates) and each tail key (the
        rest) of ``codes`` once, and no other."""
        [(orthants, built_for)] = self.tables
        assert built_for == ideal
        shifts = [shift for shift, _, _ in ideal._packed[1]]
        shift = shifts[len(shifts) // 2]
        head, tail = id(orthants.head), id(orthants.tail)
        expected = {(head, code & (1 << shift) - 1) for code in codes}
        expected |= {(tail, code >> shift) for code in codes}
        assert len(self.formed) == len(set(self.formed))
        assert set(self.formed) == expected


def reference_faces(complex_) -> tuple:
    """Reference labels, one face at a time: the max of the prefix face's label and the last generator."""
    gens = complex_.ideal.generators
    labels = {(): (0,) * complex_.ideal.dimension}
    faces = []
    for ms in complex_.member_tuples:
        labels[ms] = label = tuple(map(max, labels[ms[:-1]], gens[ms[-1] - 1]))
        faces.append(Face(ms, label))
    return tuple(faces)


def reference_orthant_prob(system, alpha) -> float:
    """P(X >= alpha) as the product, in coordinate order from 1.0, of one fresh fsum
    per component of its probabilities from its level on."""
    result = 1.0
    for c, level in zip(system.components, alpha):
        result *= math.fsum(c.probs[level:])
    return result


def reference_inclusion_exclusion(complex_, orthant) -> tuple:
    """(value, calls): the alternating sum over ``reference_faces`` of each label's
    ``float(orthant(label))`` as an exact Fraction, rounded once, and the labels
    evaluated, each once, in order of first appearance."""
    values, total = {}, Fraction(0)
    for face in reference_faces(complex_):
        if face.label not in values:
            values[face.label] = float(orthant(face.label))
        term = Fraction(values[face.label])
        total += term if face.cardinality % 2 else -term
    return float(total), list(values)


def reference_facets(complex_) -> tuple:
    """Reference facets: every face not marked as a one-smaller subface of another face."""
    faces = reference_faces(complex_)
    maximal = {face.members: True for face in faces}
    for face in faces:
        ms = face.members
        if len(ms) > 1:
            for k in range(len(ms)):
                maximal[ms[:k] + ms[k + 1:]] = False
    return tuple(face for face in faces if maximal[face.members])


def reference_hilbert_numerator(complex_) -> tuple:
    """Reference numerator: the constant term, then one signed term per face."""
    terms = [SignedTerm(1, (0,) * complex_.ideal.dimension, 0)]
    for face in reference_faces(complex_):
        s = face.cardinality
        terms.append(SignedTerm(-1 if s % 2 else 1, face.label, s))
    return tuple(terms)


def reference_face_codes(complex_, codes) -> list:
    """Reference lcm codes of the faces in canonical order, one face at a time.

    A face's code is its prefix face's code OR its last member's code, from
    the generators' ``codes``; closure and canonical order put the prefix
    face first.
    """
    code_of = {(): 0}
    for ms in complex_.member_tuples:
        code_of[ms] = code_of[ms[:-1]] | codes[ms[-1] - 1]
    return [code_of[ms] for ms in complex_.member_tuples]


def reference_net_counts(levels) -> dict:
    """Each code's net coefficient over per-cardinality code counts, size 1 first:
    + for odd sizes, - for even ones; only nonzero nets are kept."""
    net = Counter()
    for s, level in enumerate(levels, start=1):
        for code, n in level.items():
            net[code] += n if s % 2 else -n
    return {code: n for code, n in net.items() if n}


def reference_member_checks(ideal, members, kind) -> tuple:
    """Reference member checks, one face at a time in canonical order.

    Returns the canonically ordered member tuples, or raises the ValueError
    that ``LabeledComplex`` raises for the first fault.  Labels are not
    checked.
    """
    r, d = len(ideal.generators), ideal.dimension
    max_size = r if kind == "taylor" else d
    ordered = sorted(members, key=lambda ms: (len(ms), ms))
    seen = set()
    for ms in ordered:
        if not ms:
            raise ValueError("faces must be nonempty; the empty face is implicit")
        if any(type(m) is not int for m in ms):
            raise ValueError(f"face members must be ints: {ms}")
        if not all(a < b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"face members must be strictly ascending: {ms}")
        if ms[0] < 1:
            raise ValueError(f"face members are 1-based: {ms}")
        if ms[-1] > r:
            raise ValueError(f"face {ms} exceeds generator count {r}")
        if ms in seen:
            raise ValueError(f"duplicate face {ms}")
        if len(ms) > max_size:
            raise ValueError(
                f"Scarf face {ms} has cardinality above the ambient dimension {d}"
            )
        if len(ms) > 1:
            for sub in combinations(ms, len(ms) - 1):
                if sub not in seen:
                    raise ValueError(
                        f"complex is not closed under subsets: {ms} present but {sub} missing"
                    )
        seen.add(ms)
    for i in range(1, r + 1):
        if (i,) not in seen:
            raise ValueError(f"singleton {{{i}}} is missing")
    return tuple(ordered)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_corpus_specs(directory, seeds=(1, 7)) -> list:
    """The spec files the benchmark's corpus generator writes under ``directory``,
    for every workload and seed: the bench runs exactly these inputs."""
    module_spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = corpus  # its dataclasses look their module up
    module_spec.loader.exec_module(corpus)
    paths = []
    for workload in corpus.WORKLOADS:
        for seed in seeds:
            specs = corpus.build(workload, seed, Path(directory) / f"{workload}-{seed}")
            paths += [spec.path for spec in specs]
    return paths
