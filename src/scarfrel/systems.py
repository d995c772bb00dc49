"""Coherent multistate systems with independent components.

Component i takes levels 0..L_i-1 with given probabilities.  A system is
described by the minimal points of its nonfailure region: the region is an
upper set in the state lattice, so those minimal points are exactly the
minimal generators of a monomial ideal and the nonfailure probability can
be computed from any inclusion-exclusion support of that ideal.

Component indices in this module are 0-based, like any Python sequence;
the 1-based indices appear only in faces and rendered diagnostics.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, product
from operator import itemgetter, lt

from .monomial import DimensionMismatchError, Exponent, MonomialIdeal, _Value, minimalize

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from typing import Callable, Sequence

PROB_TOL = 1e-9
_DYADIC_DENOM = 64


class Component(_Value):
    """One component: ``probs[j]`` is the probability of sitting at level j."""

    _fields = ("name", "levels", "probs")

    def __init__(self, name: str, levels: int, probs: tuple[float, ...]) -> None:
        vars(self).update(
            name=str(name).strip(), levels=levels, probs=tuple(float(p) for p in probs)
        )
        if not self.name:
            raise ValueError("component name must be nonempty")
        if self.levels < 2:
            raise ValueError(
                f"component {self.name!r} needs at least 2 levels, got {self.levels}"
            )
        if len(self.probs) != self.levels:
            raise ValueError(
                f"component {self.name!r} has {self.levels} levels but "
                f"{len(self.probs)} probabilities"
            )
        for j, p in enumerate(self.probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"component {self.name!r}: probability {p} at level {j} "
                    f"is outside [0, 1]"
                )
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(
                f"component {self.name!r}: probabilities sum to {total!r}, "
                f"not 1 within {PROB_TOL}"
            )


class _SuffixSums(dict):
    """Maps level j to P(X >= j) = fsum(probs[j:]), summed once on first use."""

    def __init__(self, probs: tuple[float, ...]):
        self.probs = probs

    def __missing__(self, level: int) -> float:
        value = self[level] = math.fsum(self.probs[level:])  # 0.0 at or past the top
        return value


class CoherentSystem(_Value):
    _fields = ("components",)

    def __init__(self, components: tuple[Component, ...]) -> None:
        vars(self).update(components=tuple(components))
        if not self.components:
            raise ValueError("a system needs at least one component")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def level_counts(self) -> tuple[int, ...]:
        return tuple(c.levels for c in self.components)

    @cached_property
    def survival_table(self) -> tuple[_SuffixSums, ...]:
        """[i][j] = P(X_i >= j) = fsum(probs_i[j:]) for j >= 0; derived, not a field."""
        return tuple(_SuffixSums(c.probs) for c in self.components)


def _dyadic_probs(rng: random.Random, levels: int) -> tuple[float, ...]:
    """A random probability row with exact binary representations.

    All entries are multiples of 1/_DYADIC_DENOM, so the row sums to exactly
    1.0 and downstream comparisons see no input rounding noise.
    """
    cuts = sorted(rng.sample(range(1, _DYADIC_DENOM), levels - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [_DYADIC_DENOM])]
    return tuple(p / _DYADIC_DENOM for p in parts)


def random_system(rng: random.Random, max_d: int = 5, max_levels: int = 4) -> CoherentSystem:
    """A seeded random system: 2..max_d components, 2..max_levels levels each."""
    d = rng.randint(2, max_d)
    components = tuple(
        Component(f"c{i + 1}", levels, _dyadic_probs(rng, levels))
        for i, levels in ((i, rng.randint(2, max_levels)) for i in range(d))
    )
    return CoherentSystem(components=components)


def random_points_for(
    rng: random.Random, system: CoherentSystem, max_points: int = 8
) -> list[Exponent]:
    """1..max_points random grid states of ``system`` (not minimalized)."""
    count = rng.randint(1, max_points)
    return [
        tuple(rng.randrange(c.levels) for c in system.components)
        for _ in range(count)
    ]


def orthant_prob(system: CoherentSystem, alpha: Sequence[int]) -> float:
    """P(X >= alpha coordinatewise) under component independence."""
    a = tuple(alpha)
    if len(a) != system.dimension:
        raise DimensionMismatchError(
            f"corner {a} has length {len(a)}, expected {system.dimension}"
        )
    result = 1.0
    for tails, level in zip(system.survival_table, a):
        if level < 0:  # no early return at a zero tail, so every level is checked
            raise ValueError(f"level must be nonnegative, got {level}")
        result *= tails[level]
    return result


class CutoffUnreachableError(ValueError):
    """No state of the grid reaches the profit cutoff."""


def _exact(x):
    """``x`` as an exact number: an int, or the Fraction of the decimal written.

    Ints and integral floats become ints; any other number becomes the
    Fraction of its float's shortest repr, the decimal the user wrote.
    ``fractions`` is imported only when such a number appears.
    """
    if isinstance(x, int):
        return int(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"profit coefficients and cutoff must be finite, got {x}")
    if x.is_integer():
        return int(x)
    from fractions import Fraction

    return Fraction(repr(x))


class ProfitSpec(_Value):
    """A monotone profit function: sum of linear terms plus pairwise products.

    ``linear[i]`` multiplies level alpha_i; ``interactions`` holds
    ``(i, j, coeff)`` triples (0-based, i != j) contributing
    coeff * alpha_i * alpha_j.  All coefficients must be nonnegative, which
    makes the profit nondecreasing in every coordinate and the cutoff
    region an upper set.  Coefficients and the cutoff are kept exact (see
    :func:`_exact`), so a state whose profit equals the cutoff in decimal
    arithmetic reaches it.
    """

    _fields = ("linear", "interactions", "cutoff")

    def __init__(
        self, linear: tuple[float, ...], interactions: tuple[tuple[int, int, float], ...], cutoff: float
    ) -> None:
        vars(self).update(
            linear=tuple(map(_exact, linear)),
            interactions=tuple((int(i), int(j), _exact(c)) for i, j, c in interactions),
            cutoff=_exact(cutoff),
        )
        if not self.linear:
            raise ValueError("profit needs at least one linear coefficient")
        d = len(self.linear)
        for c in self.linear:
            if c < 0:
                raise ValueError(f"linear coefficients must be nonnegative, got {c}")
        for i, j, c in self.interactions:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"interaction ({i}, {j}) out of range for {d} components")
            if i == j:
                raise ValueError(f"interaction pairs must be distinct, got ({i}, {j})")
            if c < 0:
                raise ValueError(f"interaction coefficients must be nonnegative, got {c}")

    def value(self, alpha: Sequence[int]):
        """The exact profit of state ``alpha``."""
        if len(alpha) != len(self.linear):
            raise DimensionMismatchError(
                f"state {tuple(alpha)} has length {len(alpha)}, "
                f"expected {len(self.linear)}"
            )
        total = sum(c * a for c, a in zip(self.linear, alpha))
        return total + sum(c * alpha[i] * alpha[j] for i, j, c in self.interactions)


def _axis_minima(dst: list, src: list, sizes: Sequence[int]) -> None:
    """Along each axis in turn, ``dst[i] = min(dst[i], src[i - stride])`` for
    every cell i off the axis's level 0, over a grid of ``sizes`` held flat
    in product order (the axis of ``sizes[k]`` steps by the later sizes'
    product).

    With ``src is dst`` each pass reads what it wrote, a running minimum,
    and ``dst`` ends as the minimum over each cell's lower orthant.  With a
    separate ``src`` it ends as the least ``src`` one step down on any axis
    (or as it was, at the origin).  A pass is one slice assignment per step
    along the axis, in contiguous runs or stepped, whichever is fewer.
    """
    n = stride = len(dst)
    for size in sizes:
        block, stride = stride, stride // size
        if n // block <= stride:
            for lo in range(stride, n, stride):
                if lo % block:
                    dst[lo:lo + stride] = map(min, dst[lo:lo + stride], src[lo - stride:lo])
        else:
            for c in range(stride, block):
                dst[c::block] = map(min, dst[c::block], src[c - stride::block])


def minimal_points_from_profit(spec: ProfitSpec, levels: Sequence[int]) -> MonomialIdeal:
    """Minimal states reaching the cutoff, as a monomial ideal.

    The profit is monotone, so above each prefix (a_1..a_{d-1}) the states
    reaching the cutoff are those with a_d >= t(prefix), where t = L_d
    means none.  No interaction pairs a coordinate with itself, so above a
    prefix the profit less the cutoff is base + slope * a_d.  Flat lists
    over every prefix of the first d - 2 coordinates, in product order, hold
    ``base`` and each later coordinate's coefficient, built one coordinate
    at a time from the spec's exact numbers over their common denominator,
    so every entry is an int; the last coefficient is the slope.  One
    closed form per prefix (a_1..a_{d-1}), which adds a_{d-1}'s terms as
    it goes, gives t, the least a_d reaching the cutoff, clamped at L_d.  The
    profit never falls as a coordinate rises, so neither does t, and the
    state (prefix, t) is minimal iff t lies below the ceiling, the least t
    one step down on any prefix axis (L_d at the origin), which
    :func:`_axis_minima` takes.  Cost: O(prod_{i<d} L_i * d) int operations
    and slice passes; memory: two lists of one int per prefix, the closed
    forms and the ceiling.  Points are
    emitted sorted by reversed-tuple lexicographic order (last coordinate
    most significant).  They are minimal by construction, so the ideal takes
    them unchecked.
    """
    d = len(levels)
    if d != len(spec.linear):
        raise DimensionMismatchError(
            f"grid has {d} coordinates but profit has {len(spec.linear)}"
        )
    for L in levels:
        if L < 1:
            raise ValueError(f"level counts must be >= 1, got {L}")
    *sizes, top = levels
    # over one common denominator every number is an int: as exact as a Fraction, and lighter
    numbers = (*spec.linear, *(c for _, _, c in spec.interactions), spec.cutoff)
    scale = math.lcm(*(x.denominator for x in numbers))
    pair = [[0] * d for _ in range(d)]  # [i][j], i < j: the coefficient of a_i * a_j
    for i, j, c in spec.interactions:
        pair[min(i, j)][max(i, j)] += int(c * scale)
    base = [-int(spec.cutoff * scale)]  # per prefix so far: its coordinates' profit - cutoff
    coef = [[int(c * scale)] for c in spec.linear]  # per later coordinate, per prefix so far
    for k, size in enumerate(sizes[:-1]):
        steps = range(size)
        base = [b + c * a for b, c in zip(base, coef[k]) for a in steps]
        for j in range(k + 1, d):
            coef[j] = [c + pair[k][j] * a for c in coef[j] for a in steps]
    # The last prefix axis a folds into the closed forms, so no list over every
    # prefix holds base or slope.  For d = 1 the one prefix is empty: a = 0 alone.
    steps = range(sizes[-1] if sizes else 1)
    lift, bend = (coef[-2], pair[-2][-1]) if sizes else ([0], 0)
    # the least a_d with b + s * a_d >= 0 is 0 or ceil(-b / s), which is -(b // s)
    closed = [
        0 if (b := b0 + c * a) >= 0 else min(top, -(b // s)) if (s := s0 + bend * a) else top
        for b0, c, s0 in zip(base, lift, coef[-1]) for a in steps
    ]
    del base, coef
    ceiling = [top] * len(closed)
    _axis_minima(ceiling, closed, sizes)
    prefixes = zip(product(*map(range, sizes)), closed)
    minimal: list[Exponent] = [(*p, t) for p, t in compress(prefixes, map(lt, closed, ceiling))]
    del closed, ceiling
    if not minimal:
        raise CutoffUnreachableError(
            f"no state of the grid reaches profit cutoff {float(spec.cutoff)}"
        )
    minimal.sort(key=itemgetter(*range(d - 1, -1, -1)))  # last coordinate most significant
    return MonomialIdeal._built(d, tuple(minimal))


class GeneralPositionError(ValueError):
    """Two critical points share a coordinate value, so ranks are ambiguous."""


class ContinuousSpec(_Value):
    """Continuous-state system data for quantization.

    ``critical_points`` are the minimal nonfailure points in real
    coordinates.  ``survival`` must evaluate the joint survival function
    P(Z > z) at an arbitrary corner z; for independent coordinates that is
    the product of marginal survivals.
    """

    _fields = ("critical_points", "survival")

    def __init__(
        self, critical_points: tuple[tuple[float, ...], ...], survival: Callable[[tuple[float, ...]], float]
    ) -> None:
        pts = tuple(tuple(float(x) for x in p) for p in critical_points)
        vars(self).update(critical_points=pts, survival=survival)
        if not pts:
            raise ValueError("at least one critical point is required")
        d = len(pts[0])
        for p in pts:
            if len(p) != d:
                raise DimensionMismatchError(
                    f"critical point {p} has length {len(p)}, expected {d}"
                )
            for x in p:
                if not math.isfinite(x):
                    raise ValueError(f"critical point coordinates must be finite: {p}")


def quantize(
    spec: ContinuousSpec,
) -> tuple[MonomialIdeal, Callable[[Exponent], float]]:
    """Map continuous critical points to a discrete ideal plus an evaluator.

    Each point's coordinates are replaced by their 0-based rank among the m
    values seen in that coordinate; the ranked points generate the returned
    ideal (dominated points are pruned, survivors keep input order).  The
    evaluator takes a face label in rank coordinates back to the real
    corner it names and applies the continuous survival function, so
    inclusion-exclusion over a complex of the returned ideal reproduces the
    continuous nonfailure probability exactly.

    Requires general position: a repeated value within one coordinate
    raises :class:`GeneralPositionError` naming the coordinate and the
    tied pair of points (1-based).
    """
    points = spec.critical_points
    m = len(points)
    d = len(points[0])
    sorted_values: list[list[float]] = []
    rank_vectors = [[0] * d for _ in range(m)]
    for k in range(d):
        order = sorted(range(m), key=lambda i: points[i][k])
        for a, b in zip(order, order[1:]):
            if points[a][k] == points[b][k]:
                raise GeneralPositionError(
                    f"critical points {a + 1} and {b + 1} share value "
                    f"{points[a][k]} in coordinate {k + 1}"
                )
        sorted_values.append([points[i][k] for i in order])
        for pos, i in enumerate(order):
            rank_vectors[i][k] = pos
    ideal = minimalize(tuple(row) for row in rank_vectors)

    def evaluate(label: Exponent) -> float:
        if len(label) != d:
            raise DimensionMismatchError(
                f"label {tuple(label)} has length {len(label)}, expected {d}"
            )
        corner = tuple(sorted_values[k][label[k]] for k in range(d))
        return spec.survival(corner)

    return ideal, evaluate
