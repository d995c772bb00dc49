"""Reliability computations over labeled complexes.

The nonfailure probability of a coherent system is the probability of the
union of the orthants above its minimal nonfailure points.  Any labeled
complex supporting the corresponding monomial ideal turns that union into
an alternating sum of orthant probabilities, one per face; the Scarf route
keeps the term count near-minimal.  Truncating the alternating sum at a
cardinality depth yields two-sided bounds: odd depth from above, even
depth from below.

One fold over per-cardinality label counts yields every value, evaluating
each distinct label's orthant once (deformed and subset complexes repeat
labels).  Both routes pack each generator into one int (per coordinate,
the rank of its value as a run of one-bits, at most d * (r - 1) bits in
all), so an lcm is one integer OR and each distinct code becomes an
orthant through d table lookups.  The product over the first d // 2
coordinates is memoized by those coordinates' fields of the code, and the
rest multiply onto it in order, so an orthant is bit for bit the product
in coordinate order from 1.0 while codes that share their leading fields
share that work.  The codes are the ideal's own packing
(``MonomialIdeal._packed``), derived once per ideal, and each evaluated
orthant is held in one slot on the system, keyed by the ideal, so the
Scarf route and the subset walk of one call pack once and evaluate each
code once between them.  A complex keeps one code per face, which the
Scarf walk hands it (other complexes derive them a cardinality run at a
time), and the fold counts each run's codes; no exponent label is
derived.  The fold also takes the per-size code lists straight from the
Scarf walk (``complexes._scarf_walk``), so ``bounds`` sums codes with no
complex.  The classical Bonferroni baseline is a level walk over the
generator subsets of size <= k that builds no complex and holds only one
level of ints at a time.
The identity alone needs less than every depth.  Its alternating sum,
collected label by label, is the numerator of the ideal's multigraded
Hilbert series (its K-polynomial), and that polynomial is the same for
every labeled complex that supports a free resolution of the ideal:
Taylor, Scarf or deformed Scarf (Bayer, Peeva and Sturmfels, Math. Res.
Lett. 1998; Miller and Sturmfels, *Combinatorial Commutative Algebra*,
ch. 6).  So a code's net coefficient, the signed count of its faces of
odd size less those of even size, belongs to the ideal, not to the
complex: the identity routes (``reliability_identity`` and ``compare``'s
Scarf and Taylor values) fold those net counts first and evaluate an
orthant only where one is nonzero, the same codes for every route.  The
exact integer sum is the deepest bound's own, so the value is bit for bit
that bound.
Only ``inclusion_exclusion``, which takes a caller's label evaluator,
reads the labels, and it counts them a cardinality run at a time too.
The fold keeps each orthant as an exact integer count of 2**-1074
(every float is one), so level sums and running totals are exact and each
depth rounds once, by int / int, which is correctly rounded: the depth-k
bound is bit for bit a fresh fsum of the signed terms of cardinality <= k,
and the identity is the deepest bound.  The oracle and the survival tables
use compensated fsums, which keeps oracle cross-checks stable at 1e-12.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, product

from .complexes import LabeledComplex, SignedTerm, hilbert_numerator
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


def _packed_generators(system: CoherentSystem, ideal: MonomialIdeal) -> Callable[[int], float]:
    """The orthant of a code in ``ideal``'s packing (``MonomialIdeal._packed``).

    One table lookup per coordinate, multiplied in coordinate order from
    1.0, so it equals ``orthant_prob`` of the decoded label bit for bit.
    The product over the first d // 2 coordinates is kept per value of their
    fields and the others multiply onto it.
    """
    fields = [  # (shift, mask, {run: P(X_k >= held value)}) per coordinate
        (shift, mask, {(1 << i) - 1: tails[v] for i, v in enumerate(values)})
        for (shift, mask, values), tails in zip(ideal._packed[1], system.survival_table)
    ]

    half = len(fields) // 2
    head, tail = fields[:half], fields[half:]
    low = (1 << tail[0][0]) - 1  # the bits of the head's fields
    leading: dict[int, float] = {}  # the head's product, by the head's fields

    def orthant(code: int) -> float:
        try:
            p = leading[code & low]
        except KeyError:
            p = 1.0
            for shift, mask, table in head:
                p *= table[code >> shift & mask]
            leading[code & low] = p
        for shift, mask, table in tail:
            p *= table[code >> shift & mask]
        return p

    return orthant


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


def _units(label: Any, value: Any) -> int:
    """``float(value)``, as fsum reads it, in exact units of 2**-1074."""
    p = float(value)
    if not math.isfinite(p):
        raise ValueError(f"orthant of label {label!r} is {p!r}, not a finite number")
    num, den = p.as_integer_ratio()  # den = 2**e with e <= 1074
    return num << 1075 - den.bit_length()


class _Units(dict):
    """label -> ``float(orthant(label))`` in exact units of 2**-1074, evaluated once."""

    def __init__(self, orthant: Callable[[Any], Any]):
        super().__init__()
        self.orthant = orthant

    def __missing__(self, label: Any) -> int:
        u = self[label] = _units(label, self.orthant(label))
        return u


def _packed_units(system: CoherentSystem, ideal: MonomialIdeal) -> _Units:
    """The exact units of the orthants of ``ideal``'s packed lcm codes.

    Like ``survival_table`` they live on the system, in one slot that a
    different ideal replaces and that equality, hash and repr skip, so the
    Scarf and subset routes of one call share one orthant table, and
    nothing outlives the system.
    """
    slot = vars(system).get("_packed_units")
    if slot is None or slot[0] != ideal:
        slot = vars(system)["_packed_units"] = (ideal, _Units(_packed_generators(system, ideal)))
    return slot[1]


def _fold_bounds(counts: Iterable[LabelCounts], units: _Units) -> tuple[DepthBound, ...]:
    """Per depth k, the exact signed sum over every (label, count) of cardinality
    <= k, rounded once; ``units`` evaluates each distinct label's orthant once."""
    total = 0
    bounds = []
    for k, level in enumerate(counts, start=1):
        level_sum = 0
        for label, n in level:
            level_sum += n * units[label]
        total += level_sum if k % 2 else -level_sum
        bounds.append(DepthBound(k, total / _UNIT))
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
    """
    labels, bounds = [face.label for face in complex_.faces], complex_._bounds
    counts = [Counter(labels[lo:hi]).items() for lo, hi in zip(bounds, bounds[1:])]
    return _fold_bounds(counts, _Units(orthant))[-1].value


def _identity(system: CoherentSystem, ideal: MonomialIdeal, levels: list) -> float:
    """The identity from ``levels``, per cardinality 1, 2, ... the lcm codes
    (a list, or a Counter of code counts) of a support's faces in ``ideal``'s
    packing, such as a complex's runs or the subset walk's levels.

    Bit for bit the deepest bound of the same levels: each code's signed
    net count is folded first, and only a code whose net count is nonzero
    has its orthant evaluated.
    """
    _resolved_depth(system, ideal, None, len(levels))
    net: Counter = Counter()
    for k, level in enumerate(levels):
        (net.subtract if k % 2 else net.update)(level)
    units = _packed_units(system, ideal)
    return sum(n * units[code] for code, n in net.items() if n) / _UNIT


def _code_runs(complex_: LabeledComplex) -> list[list[int]]:
    """The complex's face codes, one list per cardinality 1, 2, ..."""
    codes, bounds = complex_._lcm, complex_._bounds
    return [codes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def reliability_identity(system: CoherentSystem, complex_: LabeledComplex) -> float:
    """Exact nonfailure probability via the complex's alternating sum: bit for bit the
    deepest bound, from the net count of each distinct face code."""
    return _identity(system, complex_.ideal, _code_runs(complex_))


def _code_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, runs: list[list[int]], depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from per-cardinality
    lists of face codes in ``ideal``'s packing, each list counted once."""
    depth = _resolved_depth(system, ideal, depth, len(runs))
    counts = [Counter(run).items() for run in runs[:depth]]
    return _fold_bounds(counts, _packed_units(system, ideal))


def depth_bounds(
    system: CoherentSystem, complex_: LabeledComplex, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Truncation bounds at depths 1..depth (default: every depth) from the
    complex's face codes, counted a cardinality run at a time; no face label
    is derived."""
    return _code_bounds(system, complex_.ideal, _code_runs(complex_), depth)


def subset_bounds(
    system: CoherentSystem, ideal: MonomialIdeal, depth: Optional[int] = None
) -> tuple[DepthBound, ...]:
    """Bonferroni bounds at depths 1..depth (default r; the last is then the identity).

    Bit for bit ``depth_bounds(system, taylor_complex(ideal), depth)``, from
    a walk over the C(r, <= depth) subsets it sums, with no complex built:
    one integer OR per subset on rank-packed generators, one d-lookup
    orthant and one exact count * value per distinct lcm of a level, and
    one level of ints in memory.  Every subset is still visited, so the
    cost doubles with each generator.
    """
    depth = _resolved_depth(system, ideal, depth, len(ideal.generators))
    counts = _subset_label_counts(ideal._packed[0], depth)
    return _fold_bounds([level.items() for level in counts], _packed_units(system, ideal))


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
        term_count=len(complex_.faces),
        terms=hilbert_numerator(complex_)[1:],
        bounds=bounds,
        baseline_term_count=2 ** len(complex_.ideal.generators) - 1,
        oracle_value=oracle,
    )
