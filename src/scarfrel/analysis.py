"""Reliability computations over labeled complexes.

The nonfailure probability of a coherent system is the probability of the
union of the orthants above its minimal nonfailure points.  Any labeled
complex supporting the corresponding monomial ideal turns that union into
an alternating sum of orthant probabilities, one per face; the Scarf route
keeps the term count near-minimal.  Truncating the alternating sum at a
cardinality depth yields two-sided bounds: odd depth from above, even
depth from below.

One walk over the faces in canonical order yields every value, evaluating
each distinct label's orthant once (deformed complexes repeat labels).  The
identity is the fsum of all signed terms and the depth-k bound the fsum of
the prefix up to cardinality k, so each equals a fresh fsum over its faces
bit for bit.  Compensated sums keep oracle cross-checks stable at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import le
from typing import Callable, Optional

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


def _check_dimensions(system: CoherentSystem, complex_: LabeledComplex) -> None:
    if system.dimension != complex_.ideal.dimension:
        raise DimensionMismatchError(
            f"system has {system.dimension} components but the complex is over "
            f"{complex_.ideal.dimension} coordinates"
        )


def check_depth(complex_: LabeledComplex, depth: int) -> None:
    """Raise ValueError unless ``depth`` lies in 1..max face cardinality."""
    max_card = complex_.max_cardinality()
    if not 1 <= depth <= max_card:
        raise ValueError(
            f"depth must lie in 1..{max_card} for this complex, got {depth}"
        )


def _signed_terms(
    complex_: LabeledComplex, orthant: Callable[[Exponent], float], depth: int
) -> tuple[list[float], list[int]]:
    """Signed terms of faces with cardinality <= depth; ends[k - 1] counts those <= k."""
    values: dict[Exponent, float] = {}
    terms: list[float] = []
    ends = [0] * depth
    for face in complex_.faces:
        s = face.cardinality
        if s > depth:
            break  # canonical order sorts by cardinality
        p = values.get(face.label)
        if p is None:
            p = values[face.label] = orthant(face.label)
        terms.append(p if s % 2 else -p)
        ends[s - 1] = len(terms)
    return terms, ends


def _depth_terms(
    system: CoherentSystem, complex_: LabeledComplex, depth: int
) -> tuple[list[float], list[int]]:
    _check_dimensions(system, complex_)
    check_depth(complex_, depth)
    return _signed_terms(complex_, lambda label: orthant_prob(system, label), depth)


def _bound(depth: int, terms: list[float]) -> DepthBound:
    return DepthBound(depth, math.fsum(terms), "upper" if depth % 2 else "lower")


def inclusion_exclusion(
    complex_: LabeledComplex, orthant: Callable[[Exponent], float]
) -> float:
    """Alternating sum of orthant values over the faces of a complex.

    Faces of odd cardinality enter with +, even with -.  ``orthant`` maps a
    face label to the probability of the orthant above it and is called
    once per distinct label; passing a continuous evaluator makes the same
    identity work off-grid.
    """
    terms, _ = _signed_terms(complex_, orthant, complex_.max_cardinality())
    return math.fsum(terms)


def reliability_identity(system: CoherentSystem, complex_: LabeledComplex) -> float:
    """Exact nonfailure probability via the complex's alternating sum."""
    _check_dimensions(system, complex_)
    return inclusion_exclusion(complex_, lambda label: orthant_prob(system, label))


def depth_bounds(
    system: CoherentSystem, complex_: LabeledComplex, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from one walk."""
    depth = complex_.max_cardinality() if depth is None else depth
    terms, ends = _depth_terms(system, complex_, depth)
    return tuple(_bound(k, terms[:end]) for k, end in enumerate(ends, start=1))


def tube_bounds(system: CoherentSystem, complex_: LabeledComplex, depth: int) -> DepthBound:
    """Truncation bound from a Scarf-type complex.

    At depth equal to the maximum face cardinality the bound coincides with
    the exact identity (and still carries its parity kind).
    """
    return _bound(depth, _depth_terms(system, complex_, depth)[0])


def bonferroni_bounds(
    system: CoherentSystem, taylor: LabeledComplex, depth: int
) -> DepthBound:
    """Classical truncation bound over the full subset complex."""
    if taylor.kind != "taylor":
        raise ValueError(
            f"Bonferroni bounds need the full subset complex, got kind {taylor.kind!r}"
        )
    return _bound(depth, _depth_terms(system, taylor, depth)[0])


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
