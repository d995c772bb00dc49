"""Reliability computations over labeled complexes.

The nonfailure probability of a coherent system is the probability of the
union of the orthants above its minimal nonfailure points.  Any labeled
complex supporting the corresponding monomial ideal turns that union into
an alternating sum of orthant probabilities, one per face; the Scarf route
keeps the term count near-minimal.  Truncating the alternating sum at a
cardinality depth yields two-sided bounds: odd depth from above, even
depth from below.

One fold over (cardinality, label) pairs in canonical order yields every
value, evaluating each distinct label's orthant once (deformed and subset
complexes repeat labels).  The pairs come from a complex's faces or, for
the classical Bonferroni baseline, from a level walk over the generator
subsets of size <= k that builds no complex and costs C(r, <= k) terms.  The
identity is the fsum of all signed terms and the depth-k bound the fsum of
the prefix up to cardinality k, so each equals a fresh fsum over its faces
bit for bit.  Compensated sums keep oracle cross-checks stable at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import le
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .complexes import LabeledComplex, SignedTerm, hilbert_numerator
from .monomial import DimensionMismatchError, Exponent, MonomialIdeal
from .systems import CoherentSystem, orthant_prob

STATE_CAP = 10_000_000
_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class DepthBound:
    """A one-sided truncation bound: faces of cardinality <= depth."""

    depth: int
    value: float
    kind: str  # "upper" when depth is odd, "lower" when even

    def __post_init__(self) -> None:
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"bound kind must be 'upper' or 'lower', got {self.kind!r}")


@dataclass(frozen=True)
class ReliabilityReport:
    """Everything the identity route produces for one system."""

    identity_value: float
    term_count: int
    terms: tuple[SignedTerm, ...]
    bounds: tuple[DepthBound, ...]
    baseline_term_count: int
    oracle_value: Optional[float]


def _check_dimensions(system: CoherentSystem, ideal: MonomialIdeal) -> None:
    if system.dimension != ideal.dimension:
        raise DimensionMismatchError(
            f"system has {system.dimension} components but the complex is over "
            f"{ideal.dimension} coordinates"
        )


def check_depth(depth: int, max_card: int) -> None:
    """Raise ValueError unless ``depth`` lies in 1..max face cardinality."""
    if not 1 <= depth <= max_card:
        raise ValueError(
            f"depth must lie in 1..{max_card} for this complex, got {depth}"
        )


def _face_labels(complex_: LabeledComplex) -> Iterator[tuple[int, Exponent]]:
    return ((len(members), label) for members, label in complex_.faces)


def _subset_labels(gens: Sequence[Exponent], depth: int) -> Iterator[tuple[int, Exponent]]:
    """(cardinality, lcm label) of every subset of size <= depth, in canonical order.

    A size-s subset, kept as (last member, label), grows by each later generator.
    """
    level = list(enumerate(gens))
    for s in range(1, depth + 1):
        yield from ((s, label) for _, label in level)
        if s < depth:
            level = [
                (j, tuple(map(max, label, gens[j])))
                for last, label in level
                for j in range(last + 1, len(gens))
            ]


def _signed_terms(
    faces: Iterable[tuple[int, Exponent]], orthant: Callable[[Exponent], float], depth: int
) -> tuple[list[float], list[int]]:
    """Signed terms of canonical (cardinality, label) pairs; ends[k - 1] counts those <= k."""
    values: dict[Exponent, float] = {}
    terms: list[float] = []
    ends = [0] * depth
    for s, label in faces:
        if s > depth:
            break  # canonical order sorts by cardinality
        p = values.get(label)
        if p is None:
            p = values[label] = orthant(label)
        terms.append(p if s % 2 else -p)
        ends[s - 1] = len(terms)
    return terms, ends


def _fold_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, faces: Iterable[tuple[int, Exponent]],
    depth: int, max_card: int,
) -> tuple[DepthBound, ...]:
    _check_dimensions(system, ideal)
    check_depth(depth, max_card)
    terms, ends = _signed_terms(faces, lambda label: orthant_prob(system, label), depth)
    return tuple(
        DepthBound(k, math.fsum(terms[:end]), "upper" if k % 2 else "lower")
        for k, end in enumerate(ends, start=1)
    )


def inclusion_exclusion(
    complex_: LabeledComplex, orthant: Callable[[Exponent], float]
) -> float:
    """Alternating sum of orthant values over the faces of a complex.

    Faces of odd cardinality enter with +, even with -.  ``orthant`` maps a
    face label to the probability of the orthant above it and is called
    once per distinct label; passing a continuous evaluator makes the same
    identity work off-grid.
    """
    terms, _ = _signed_terms(_face_labels(complex_), orthant, complex_.max_cardinality())
    return math.fsum(terms)


def reliability_identity(system: CoherentSystem, complex_: LabeledComplex) -> float:
    """Exact nonfailure probability via the complex's alternating sum."""
    _check_dimensions(system, complex_.ideal)
    return inclusion_exclusion(complex_, lambda label: orthant_prob(system, label))


def depth_bounds(
    system: CoherentSystem, complex_: LabeledComplex, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from one walk."""
    max_card = complex_.max_cardinality()
    depth = max_card if depth is None else depth
    return _fold_bounds(system, complex_.ideal, _face_labels(complex_), depth, max_card)


def subset_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Bonferroni bounds at depths 1..depth (default r; the last is then the identity).

    Bit for bit ``depth_bounds(system, taylor_complex(ideal), depth)``, from
    a walk over the C(r, <= depth) subsets it sums, with no complex built.
    """
    r = len(ideal.generators)
    depth = r if depth is None else depth
    return _fold_bounds(system, ideal, _subset_labels(ideal.generators, depth), depth, r)


def tube_bounds(system: CoherentSystem, complex_: LabeledComplex, depth: int) -> DepthBound:
    """Truncation bound from a Scarf-type complex.

    At depth equal to the maximum face cardinality the bound coincides with
    the exact identity (and still carries its parity kind).
    """
    return depth_bounds(system, complex_, depth)[-1]


def bonferroni_bounds(
    system: CoherentSystem, taylor: LabeledComplex, depth: int
) -> DepthBound:
    """Classical truncation bound over the full subset complex."""
    if taylor.kind != "taylor":
        raise ValueError(
            f"Bonferroni bounds need the full subset complex, got kind {taylor.kind!r}"
        )
    return depth_bounds(system, taylor, depth)[-1]


def brute_force_reliability(
    system: CoherentSystem, ideal: MonomialIdeal, max_states: int = STATE_CAP
) -> float:
    """Nonfailure probability by enumerating the states of the ideal.

    The ideal's states above a prefix (a_1..a_{d-1}) are those whose last
    level reaches the least last coordinate of the generators whose first
    d-1 coordinates lie below the prefix.  So each prefix contributes
    P(prefix) * P(X_d = a_d) for every a_d from that threshold on, and one
    correctly rounded fsum of exactly the products a full state scan forms
    gives its value bit for bit.  Cost: O(prod_{i<d} L_i * r * d) plain
    tuple comparisons plus one term per state of the ideal.  Completely
    independent of the complex machinery, so it serves as the correctness
    oracle.  Refuses grids larger than ``max_states``.
    """
    if system.dimension != ideal.dimension:
        raise DimensionMismatchError(
            f"system has {system.dimension} components but the ideal is over "
            f"{ideal.dimension} coordinates"
        )
    total_states = math.prod(system.level_counts())
    if total_states > max_states:
        raise ValueError(
            f"state space has {total_states} states, above the cap {max_states}"
        )
    *tables, last = [c.probs for c in system.components]
    gens = ideal.generators
    top = len(last)

    def terms():
        for prefix in product(*map(range, map(len, tables))):
            # zip stops at the prefix, so only the first d - 1 coordinates count
            need = min(
                (g[-1] for g in gens if all(map(le, g, prefix))), default=top
            )
            if need < top:
                p = 1.0
                for table, level in zip(tables, prefix):
                    p *= table[level]
                for q in last[need:]:
                    yield p * q

    return math.fsum(terms())


def build_report(
    system: CoherentSystem,
    complex_: LabeledComplex,
    oracle_cap: int = STATE_CAP,
) -> ReliabilityReport:
    """Identity value, signed terms, all depth bounds, and the oracle when affordable."""
    bounds = depth_bounds(system, complex_)
    identity = bounds[-1].value
    if not -_IDENTITY_TOL <= identity <= 1.0 + _IDENTITY_TOL:
        raise RuntimeError(
            f"identity value {identity!r} is outside [0, 1]; "
            f"complex or system data is inconsistent"
        )
    oracle: Optional[float] = None
    if math.prod(system.level_counts()) <= oracle_cap:
        oracle = brute_force_reliability(system, complex_.ideal, oracle_cap)
    return ReliabilityReport(
        identity_value=identity,
        term_count=len(complex_.faces),
        terms=hilbert_numerator(complex_)[1:],
        bounds=bounds,
        baseline_term_count=2 ** len(complex_.ideal.generators) - 1,
        oracle_value=oracle,
    )
