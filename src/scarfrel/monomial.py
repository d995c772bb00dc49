"""Exact arithmetic on exponent vectors and monomial ideals.

An exponent vector is a plain tuple of nonnegative ints, read either as a
monomial x1^a1 * ... * xd^ad or as the joint state of a d-component system.
A monomial ideal is held by its minimal generating antichain.

Generator order is significant and is preserved exactly as given: 1-based
face members, report lines and the deformation tie-break all refer to
positions in ``MonomialIdeal.generators``, so callers control the labeling
by controlling the input order.

An ideal owns two views derived from its generators, each on first use, so
one that nothing reads is never built:

- The divisibility index ``le`` serves :func:`minimalize`, the antichain
  check and the Scarf builder: ``le[k][t]`` is the bit set (bit i - 1 for
  vector i) of the vectors with exponent <= t in coordinate k, keyed by held
  exponents only, so the divisors of beta, a vector or an lcm of vectors,
  are AND_k le[k][beta[k]].
- The lcm packing ``_packed`` (:func:`_lcm_codes`) serves the complexes'
  face codes and labels and the reliability evaluators: each generator is
  one int, and the OR of a set of them codes the set's lcm.

The public :class:`MonomialIdeal` constructor checks the generators a caller
passes.  Three package routines make their generators a minimal antichain by
construction and hand them over unchecked: :func:`minimalize` (the survivors
of its own antichain test), ``systems.minimal_points_from_profit`` (minimal
staircase states) and ``complexes.deform`` (dense ranks, which keep every
strict coordinate order and so every antichain).
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import repeat
from operator import and_, getitem, is_, or_

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Optional, Sequence

Exponent = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Exponent vectors of different lengths were combined."""


def _vector(v: Sequence[int]) -> Exponent:
    out = tuple(v)
    if all(map(is_, map(type, out), repeat(int))) and min(out, default=0) >= 0:
        return out  # plain nonnegative ints pass in C, building no message
    for c in out:
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError(f"exponent coordinates must be integers, got {c!r}")
        if c < 0:
            raise ValueError(f"exponent coordinates must be nonnegative, got {c}")
    return out


def divides(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when x^a divides x^b, i.e. a <= b coordinatewise."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"cannot compare vectors of length {len(a)} and {len(b)}"
        )
    return all(x <= y for x, y in zip(a, b))


def lcm(vectors: Iterable[Sequence[int]]) -> Exponent:
    """Coordinatewise maximum of one or more exponent vectors."""
    vs = [_vector(v) for v in vectors]
    if not vs:
        raise ValueError("lcm of an empty collection is undefined")
    d = len(vs[0])
    for v in vs[1:]:
        if len(v) != d:
            raise DimensionMismatchError(
                f"cannot combine vectors of length {d} and {len(v)}"
            )
    return vs[0] if len(vs) == 1 else tuple(map(max, *vs))


def _prefix_masks(vectors: Sequence[Exponent]) -> tuple[dict[int, int], ...]:
    """The divisibility index: ``le[k][t]``, keyed by the exponents held in k."""
    le = []
    for k in range(len(vectors[0])):
        below: dict[int, int] = {}
        for i, g in enumerate(vectors):
            below[g[k]] = below.get(g[k], 0) | 1 << i
        mask = 0
        for t in sorted(below):
            mask = below[t] = mask | below[t]
        le.append(below)
    return tuple(le)


def _lcm_codes(vectors: Sequence[Exponent]) -> tuple[list[int], list[tuple[int, int, list]]]:
    """Each vector as one int whose OR over a set of vectors codes their lcm.

    Per coordinate, the held values are ranked (rank 0 the smallest) and
    rank i is a run of i one-bits in that coordinate's field, so the OR of
    runs is the run of the largest rank; the fields take at most d * (r - 1)
    bits in all.  Also returns each coordinate's (shift, mask, values): a
    code's field is ``code >> shift & mask``, and it holds the run of
    ``values[field.bit_length()]``.
    """
    codes = [0] * len(vectors)
    fields = []
    shift = 0
    for column in zip(*vectors):
        values = sorted(set(column))
        runs = {v: (1 << i) - 1 << shift for i, v in enumerate(values)}
        codes = list(map(or_, codes, map(runs.__getitem__, column)))
        width = len(values) - 1
        fields.append((shift, (1 << width) - 1, values))
        shift += width
    return codes, fields


class _Value:
    """Equality, hash, repr and immutability from the fields named in ``_fields``.

    A value equals only an instance of its own class with equal fields,
    hashes as the tuple of its fields and prints as ``Name(field=value,
    ...)``, in ``_fields`` order, as a frozen dataclass does.  Anything else
    in its ``__dict__``, such as a view derived on first use, stays out of
    all three.  Every attribute assignment or deletion raises
    AttributeError, so a constructor stores its fields with
    ``vars(self).update``.  The package's value classes are plain classes on
    this base because the ``dataclasses`` import and decorator calls used to
    take about a third of ``import scarfrel.cli``.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self._fields, self._key())
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MonomialIdeal(_Value):
    """A monomial ideal in d variables, given by its minimal generators.

    ``generators`` must already form an antichain under divisibility (no
    duplicates, no generator dividing another); the constructor checks that
    and every coordinate.  Use :func:`minimalize` to build an ideal from an
    arbitrary generating set; it prunes redundant generators while keeping
    the survivors in input order.  The package routines that make minimal
    generators by construction (see the module docstring) go through
    :meth:`_built`, which checks nothing.
    """

    _fields = ("dimension", "generators")

    def __init__(self, dimension: int, generators: tuple[Exponent, ...]) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        gens = tuple(_vector(g) for g in generators)
        vars(self).update(dimension=dimension, generators=gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != dimension:
                raise DimensionMismatchError(f"generator {g} has length {len(g)}, expected {dimension}")
        for i, g in enumerate(gens):
            others = reduce(and_, map(getitem, self.le, g)) & ~(1 << i)
            if others:
                h = gens[(others & -others).bit_length() - 1]
                if h == g:
                    raise ValueError(f"duplicate generator {g}")
                raise ValueError(f"generator {g} is redundant: divisible by {h}")

    @classmethod
    def _built(cls, dimension: int, generators: tuple[Exponent, ...]) -> MonomialIdeal:
        """An ideal from a package routine whose generators are a minimal antichain
        of ``dimension``-tuples of plain nonnegative ints, unchecked."""
        self = object.__new__(cls)
        vars(self).update(dimension=dimension, generators=generators)
        return self

    @cached_property
    def le(self) -> tuple[dict[int, int], ...]:
        """The generators' divisibility index (see the module docstring), derived
        on first use: look up only generators and their lcms.  Equality, hash
        and repr skip it."""
        return _prefix_masks(self.generators)

    @cached_property
    def _packed(self) -> tuple[list[int], list[tuple[int, int, list]]]:
        """The generators' lcm codes and the fields that decode them
        (:func:`_lcm_codes`), derived on first use and shared by every complex
        and evaluator over this ideal."""
        return _lcm_codes(self.generators)


def minimalize(generators: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Build an ideal from any generating set, pruning redundant vectors.

    A vector is dropped when another generator strictly divides it, or when
    it repeats an earlier vector.  Survivors keep their input order; they are
    an antichain by construction, so the ideal takes them unchecked.
    """
    vs = list(dict.fromkeys(_vector(g) for g in generators))
    if not vs:
        raise ValueError("at least one generator is required")
    d = len(vs[0])
    for v in vs:
        if len(v) != d:
            raise DimensionMismatchError(f"cannot compare vectors of length {len(v)} and {d}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    le = _prefix_masks(vs)
    keep = (g for i, g in enumerate(vs) if reduce(and_, map(getitem, le, g)) == 1 << i)
    return MonomialIdeal._built(d, tuple(keep))


def contains(ideal: MonomialIdeal, beta: Sequence[int]) -> bool:
    """Membership test: x^beta lies in the ideal iff some generator divides beta."""
    b = _vector(beta)
    if len(b) != ideal.dimension:
        raise DimensionMismatchError(
            f"point {b} has length {len(b)}, expected {ideal.dimension}"
        )
    return any(divides(g, b) for g in ideal.generators)


def nongeneric_witness(ideal: MonomialIdeal) -> Optional[tuple[int, int, int]]:
    """Locate a genericity violation, or return None.

    Returns ``(k, i, j)`` (all 1-based) when generators i and j share the
    same nonzero exponent in coordinate k.  An ideal with no such triple is
    generic: its Scarf complex supports a minimal free resolution.
    """
    for k in range(ideal.dimension):
        seen: dict[int, int] = {}
        for i, g in enumerate(ideal.generators):
            e = g[k]
            if e == 0:
                continue
            if e in seen:
                return (k + 1, seen[e] + 1, i + 1)
            seen[e] = i
    return None


def is_generic(ideal: MonomialIdeal) -> bool:
    """True when no variable has the same nonzero exponent in two generators."""
    return nongeneric_witness(ideal) is None
