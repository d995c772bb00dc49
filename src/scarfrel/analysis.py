"""Reliability computations over labeled complexes.

The nonfailure probability of a coherent system is the probability of the
union of the orthants above its minimal nonfailure points.  Any labeled
complex supporting the corresponding monomial ideal turns that union into
an alternating sum of orthant probabilities, one per face; the Scarf route
keeps the term count near-minimal.  Truncating the alternating sum at a
cardinality depth yields two-sided bounds: odd depth from above, even
depth from below.

Every value is the correctly rounded value of the spec's own rationals
(exact summation, as in Shewchuk, DCG 1997).  The system holds each
component's survival tails as exact ints over its largest power-of-two
denominator (``CoherentSystem._tails``), so an orthant is an exact int
over the product of those denominators, level sums and running totals
are exact, and each depth rounds once, by int / int, which is correctly
rounded.  Both routes pack each generator into one int (per coordinate,
the rank of its value as a run of one-bits, at most d * (r - 1) bits in
all), so an lcm is one integer OR.  Exact products are associative, so
a code's orthant is the product over its first d // 2 coordinates,
memoized by the code's low bits, times the product over the rest,
memoized by its high bits: one multiply of two cached ints, and each
level's sum is one pass in C over the level's codes.  The codes are the
ideal's own packing (``MonomialIdeal._packed``), derived once per ideal,
and the two memos are held in one slot on the system, keyed by the
ideal, so the Scarf route and the subset walk of one call share them.
A complex keeps one code per face, a list per cardinality run, as the
Scarf walk hands them over (other complexes derive them a run at a
time); no exponent label is derived.  The fold also takes the per-size
code lists straight from the Scarf walk (``complexes._scarf_walk``), so
``bounds`` and ``compare`` sum codes with no complex and no per-code
table.  The classical Bonferroni baseline is a level walk over the
generator subsets of size <= k that builds no complex, holds only one
level of ints at a time and sums each distinct code times its count.
The identity is the deepest bound.  Its alternating sum, collected label
by label, is the numerator of the ideal's multigraded Hilbert series
(its K-polynomial), and that polynomial is the same for every labeled
complex that supports a free resolution of the ideal: Taylor, Scarf or
deformed Scarf (Bayer, Peeva and Sturmfels, Math. Res. Lett. 1998;
Miller and Sturmfels, *Combinatorial Commutative Algebra*, ch. 6).  So
the exact identity of every route is one rational, and ``compare``'s
Scarf and Taylor values are one float.
Only ``inclusion_exclusion``, which takes a caller's label evaluator,
reads the labels, and it counts them a cardinality run at a time too.
Its values are floats, each kept as an exact integer count of 2**-1074
(every float is one), so its sum is bit for bit a fresh fsum of the
signed terms.  The oracle and the float survival tables use compensated
fsums, which keeps oracle cross-checks stable at 1e-12.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, islice, product
from operator import mul

from .complexes import TAYLOR_GENERATOR_CAP, ComplexSizeError, LabeledComplex, SignedTerm
from .complexes import hilbert_numerator
from .monomial import DimensionMismatchError, Exponent, MonomialIdeal, _Value
from .systems import CoherentSystem, _axis_minima

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Callable, Iterable, Optional, Sequence

    LabelCounts = Iterable[tuple[Any, int]]  # (label, how many faces or subsets carry it)

STATE_CAP = 10_000_000
_IDENTITY_TOL = 1e-9
_UNIT = 1 << 1074  # 2**-1074, the least subnormal, divides every float


class DepthBound(_Value):
    """A one-sided truncation bound: faces of cardinality <= depth."""

    _fields = ("depth", "value")

    def __init__(self, depth: int, value: float) -> None:
        vars(self).update(depth=depth, value=value)

    @property
    def kind(self) -> str:
        """The side, fixed by the depth's parity: odd depths bound from above."""
        return "upper" if self.depth % 2 else "lower"


class ReliabilityReport(_Value):
    """Everything the identity route produces for one system."""

    _fields = (
        "identity_value", "term_count", "terms", "bounds", "baseline_term_count", "oracle_value"
    )

    def __init__(
        self, identity_value: float, term_count: int, terms: tuple[SignedTerm, ...],
        bounds: tuple[DepthBound, ...], baseline_term_count: int, oracle_value: Optional[float],
    ) -> None:
        vars(self).update(
            identity_value=identity_value, term_count=term_count, terms=terms, bounds=bounds,
            baseline_term_count=baseline_term_count, oracle_value=oracle_value,
        )


def check_depth(depth: int, max_card: int) -> None:
    """Raise ValueError unless ``depth`` lies in 1..max face cardinality."""
    if not 1 <= depth <= max_card:
        raise ValueError(
            f"depth must lie in 1..{max_card} for this complex, got {depth}"
        )


def _subset_label_counts(codes: Sequence[int], depth: int) -> list[Counter]:
    """Per cardinality 1..depth, how many generator subsets have each lcm code.

    A level is one flat list of codes ordered by last member; ``ends[j]``
    counts those whose last member is at most j, and level s + 1 for
    generator j ORs its code into each of the first ``ends[j - 1]``.
    """
    level, ends = list(codes), range(1, len(codes) + 1)
    counts = [Counter(level)]
    for _ in range(1, depth):
        grown: list[int] = []
        grown_ends = []
        for code, below in zip(codes, (0, *ends)):
            grown += map(code.__or__, level[:below])
            grown_ends.append(len(grown))
        level, ends = grown, grown_ends
        counts.append(Counter(level))
    return counts


def _resolved_depth(
    system: CoherentSystem, ideal: MonomialIdeal, depth: Optional[int], max_card: int
) -> int:
    """``depth`` (default ``max_card``) once the system and depth fit the complex."""
    if system.dimension != ideal.dimension:
        raise DimensionMismatchError(
            f"system has {system.dimension} components but the complex is over "
            f"{ideal.dimension} coordinates"
        )
    depth = max_card if depth is None else depth
    check_depth(depth, max_card)
    return depth


class _Units(dict):
    """label -> ``float(orthant(label))``, as fsum reads it, in exact units of 2**-1074,
    evaluated once."""

    def __init__(self, orthant: Callable[[Any], Any]):
        super().__init__()
        self.orthant = orthant

    def __missing__(self, label: Any) -> int:
        p = float(self.orthant(label))
        if not math.isfinite(p):
            raise ValueError(f"orthant of label {label!r} is {p!r}, not a finite number")
        num, den = p.as_integer_ratio()  # den = 2**e with e <= 1074
        return self.setdefault(label, num << 1075 - den.bit_length())


class _Product(dict):
    """key -> the exact product of some coordinates' tails, formed once per key.

    ``fields`` holds (shift, mask, {run: tail}) per coordinate; the key's
    field ``key >> shift & mask`` is the run of the coordinate's rank.
    """

    def __init__(self, fields: list):
        super().__init__()
        self.fields = fields

    def __missing__(self, key: int) -> int:
        p = 1
        for shift, mask, table in self.fields:
            p *= table[key >> shift & mask]
        self[key] = p
        return p


class _Orthants:
    """Exact orthants of codes in ``ideal``'s packing (``MonomialIdeal._packed``),
    as ints over ``unit``, the product of the components' tail denominators.

    The product over the first d // 2 coordinates is memoized by the code's
    low bits (``code & low``), the product over the rest by its high bits
    (``code >> shift``), so an orthant is one multiply of two cached ints.
    """

    def __init__(self, system: CoherentSystem, ideal: MonomialIdeal):
        fields, bits = [], 0  # (shift, mask, {run: exact tail}) per coordinate
        for (shift, mask, values), (e, tails) in zip(ideal._packed[1], system._tails):
            top = len(tails) - 1  # a held value at or past the top level has tail 0
            table = {(1 << i) - 1: tails[min(v, top)] for i, v in enumerate(values)}
            fields.append((shift, mask, table))
            bits += e
        half = len(fields) // 2
        self.shift = shift = fields[half][0]
        self.low = (1 << shift) - 1
        self.head = _Product(fields[:half])
        self.tail = _Product([(s - shift, mask, table) for s, mask, table in fields[half:]])
        self.unit = 1 << bits

    def level_sum(self, level: Sequence[int] | Counter) -> int:
        """The exact sum of the orthants of ``level``: a list of codes, one per face,
        or a Counter of code counts."""
        codes = level.keys() if isinstance(level, dict) else level
        heads = map(self.head.__getitem__, map(self.low.__and__, codes))
        terms = map(mul, heads, map(self.tail.__getitem__, map(self.shift.__rrshift__, codes)))
        return sum(map(mul, terms, level.values()) if isinstance(level, dict) else terms)


def _packed_units(system: CoherentSystem, ideal: MonomialIdeal) -> _Orthants:
    """The exact orthants of ``ideal``'s packed lcm codes.

    Like ``survival_table`` they live on the system, in one slot that a
    different ideal replaces and that equality, hash and repr skip, so the
    Scarf and subset routes of one call share one pair of memos, and
    nothing outlives the system.
    """
    slot = vars(system).get("_packed_units")
    if slot is None or slot[0] != ideal:
        slot = vars(system)["_packed_units"] = (ideal, _Orthants(system, ideal))
    return slot[1]


def _fold_bounds(sums: Iterable[int], unit: int) -> tuple[DepthBound, ...]:
    """Per depth k, the signed total of the exact level sums (ints of 1 / ``unit``)
    of cardinality <= k, rounded once by int / int, which is correctly rounded."""
    total = 0
    bounds = []
    for k, level_sum in enumerate(sums, start=1):
        total += level_sum if k % 2 else -level_sum
        bounds.append(DepthBound(k, total / unit))
    return tuple(bounds)


def inclusion_exclusion(
    complex_: LabeledComplex, orthant: Callable[[Exponent], float]
) -> float:
    """Alternating sum of orthant values over the faces of a complex.

    Faces of odd cardinality enter with +, even with -.  ``orthant`` maps a
    face label to the probability of the orthant above it and is called
    once per distinct label; passing a continuous evaluator makes the same
    identity work off-grid.  Its values are read through ``float()``, as
    fsum reads them, and a non-finite one raises ValueError naming its label.
    Each value is kept as an exact count of 2**-1074 (every float is one),
    so the sum is bit for bit a fresh fsum of the signed terms.
    """
    labels = (face.label for face in complex_.faces)
    units = _Units(orthant)
    counts = (Counter(islice(labels, len(run))) for run in complex_._runs)
    sums = (sum(map(mul, map(units.__getitem__, level), level.values())) for level in counts)
    return _fold_bounds(sums, _UNIT)[-1].value


def reliability_identity(system: CoherentSystem, complex_: LabeledComplex) -> float:
    """Exact nonfailure probability via the complex's alternating sum, rounded once:
    the deepest bound."""
    return depth_bounds(system, complex_)[-1].value


def _code_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, runs: list, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from per-cardinality
    codes in ``ideal``'s packing: a list of face codes, or a Counter of code counts,
    per size."""
    depth = _resolved_depth(system, ideal, depth, len(runs))
    orthants = _packed_units(system, ideal)
    return _fold_bounds(map(orthants.level_sum, runs[:depth]), orthants.unit)


def depth_bounds(
    system: CoherentSystem, complex_: LabeledComplex, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from the
    complex's face codes, summed a cardinality run at a time; no face label
    is derived."""
    return _code_bounds(system, complex_.ideal, complex_._lcm, depth)


def subset_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Bonferroni bounds at depths 1..depth (default r; the last is then the identity).

    Bit for bit ``depth_bounds(system, taylor_complex(ideal), depth)``, from
    a walk over the C(r, <= depth) subsets it sums, with no complex built:
    one integer OR per subset on rank-packed generators, one exact orthant
    (a multiply of two memoized halves) and one count * orthant per distinct
    lcm of a level, and one level of ints in memory.  Every subset is still
    visited, so the cost doubles with each generator:
    :class:`ComplexSizeError` is raised, before any level is built, when the
    subsets exceed the 2^20 - 1 faces of the largest Taylor complex
    ``TAYLOR_GENERATOR_CAP`` allows.
    """
    r = len(ideal.generators)
    depth = _resolved_depth(system, ideal, depth, r)
    subsets = sum(math.comb(r, k) for k in range(1, depth + 1))
    if subsets > (cap := (1 << TAYLOR_GENERATOR_CAP) - 1):  # the Taylor complex of r = 20
        raise ComplexSizeError(
            f"Bonferroni bounds on {r} generators to depth {depth} sum {subsets} subsets; cap is {cap}"
        )
    return _code_bounds(system, ideal, _subset_label_counts(ideal._packed[0], depth))


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


def _oracle_affordable(system: CoherentSystem) -> bool:
    """Whether the system's state grid is small enough for the oracle (at most ``STATE_CAP``)."""
    return math.prod(system.level_counts()) <= STATE_CAP


def _check_oracle_cap(system: CoherentSystem) -> int:
    """The system's state count; ValueError naming it unless the oracle affords the system."""
    states = math.prod(system.level_counts())
    if not _oracle_affordable(system):
        raise ValueError(f"state space has {states} states, above the cap {STATE_CAP}")
    return states


def brute_force_reliability(system: CoherentSystem, ideal: MonomialIdeal) -> float:
    """Nonfailure probability by enumerating the states of the ideal.

    The ideal's states above a prefix (a_1..a_{d-1}) are those whose last
    level reaches the prefix's threshold: the least last coordinate of the
    generators whose first d-1 coordinates lie below the prefix.  That is a
    minimum over the prefix's lower orthant, taken one axis at a time: each
    generator's last coordinate is seeded at its own prefix in one flat
    list of thresholds in product order, and ``_axis_minima`` (shared with
    profit extraction) runs over that list as its own source, one
    running-minimum pass of slice assignments per axis.  Each prefix then
    contributes P(prefix) * P(X_d = a_d) for every a_d from its threshold
    on, the prefix product formed in coordinate order from 1.0, and one
    correctly rounded fsum of exactly the products a full state scan forms
    gives its value bit for bit.  The products stream into the fsum; no
    term list is built.  Cost: O(prod_{i<d} L_i * d) for the passes plus
    one product per state of the ideal; memory: one int per prefix.
    Completely independent of the complex machinery, so it serves as the
    correctness oracle.  Refuses grids larger than ``STATE_CAP``.
    """
    if system.dimension != ideal.dimension:
        raise DimensionMismatchError(
            f"system has {system.dimension} components but the ideal is over "
            f"{ideal.dimension} coordinates"
        )
    _check_oracle_cap(system)
    # d = 1 has one prefix; a coordinate of one level with probability 1.0 stands for it
    *tables, last = [c.probs for c in system.components]
    tables = tables or [(1.0,)]
    sizes = [len(table) for table in tables]
    top = len(last)
    need = [top] * math.prod(sizes)  # per prefix, the least last level in the ideal, or top
    for g in ideal.generators:  # an antichain holds at most one generator per prefix
        i = 0
        for size, level in zip(sizes, g[:-1]):
            i = i * size + level
        need[i] = g[-1]
    _axis_minima(need, need, sizes)
    *outer, inner = tables
    width = len(inner)

    def rows():
        for r, probs in enumerate(product(*outer)):
            row = need[r * width:(r + 1) * width]
            if row[-1] < top:  # thresholds fall along the row, so its last is its least
                p = math.prod(probs, start=1.0)  # in coordinate order from 1.0
                for t, level in zip(inner, row):
                    yield map((p * t).__mul__, last[level:])

    return math.fsum(chain.from_iterable(rows()))


def build_report(system: CoherentSystem, complex_: LabeledComplex) -> ReliabilityReport:
    """Identity value, signed terms, all depth bounds, and the oracle when affordable."""
    bounds = depth_bounds(system, complex_)
    identity = bounds[-1].value
    if not -_IDENTITY_TOL <= identity <= 1.0 + _IDENTITY_TOL:
        raise RuntimeError(
            f"identity value {identity!r} is outside [0, 1]; "
            f"complex or system data is inconsistent"
        )
    oracle: Optional[float] = None
    if _oracle_affordable(system):
        oracle = brute_force_reliability(system, complex_.ideal)
    return ReliabilityReport(
        identity_value=identity,
        term_count=len(complex_.member_tuples),
        terms=hilbert_numerator(complex_)[1:],
        bounds=bounds,
        baseline_term_count=2 ** len(complex_.ideal.generators) - 1,
        oracle_value=oracle,
    )
