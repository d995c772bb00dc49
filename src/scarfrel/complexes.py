"""Labeled simplicial complexes on the generators of a monomial ideal.

Two constructions are provided.  The Taylor complex takes every nonempty
subset of generator indices and gives the full 2^r - 1 term
inclusion-exclusion formula.  The Scarf complex keeps only subsets whose
lcm label is unique among all subsets; for generic ideals it supports the
minimal free resolution, so its alternating sum has no cancellation and is
usually far smaller.

Non-generic ideals are handled by deformation: :func:`deform` breaks
exponent ties by replacing, in each coordinate, the exponents with their
dense ranks under (value, generator index) order, and returns the deformed
ideal.  It is generic by construction and its Scarf complex is computed;
the member tuples are then used as a complex over the original ideal.
The resulting face set does not depend on the tie-break magnitude, only on
the ordering, so any deformation parameter v > r yields the same complex.

Builders hand :class:`LabeledComplex` member tuples only.  The complex
derives every face label, on first access to its ``faces``, as the lcm of
the member generators of its own ideal, so a label can never disagree with
its face and evaluators that need no exponent tuple never build one.

Canonical order (ascending cardinality, then lexicographic) puts the faces
in runs of one cardinality.  The package's builders are trusted: they make
their faces run by run in that order and hand the complex the runs, which
it takes unchecked.  A member list from a caller is sorted and checked
face by face at construction.  The per-face passes, lcm codes, labels,
facets and the Hilbert numerator's terms, each take one run at a time
through ``map``, ``zip``, set and ``itertools`` calls in C, so none runs a
Python statement per face: a run's lcm codes come from the run before, its
facets from the ``combinations`` of the run after, and its terms share one
sign.  The generator codes and the fields that decode them are the ideal's
own packing (``MonomialIdeal._packed``), derived once per ideal, so a
complex and the evaluators over its ideal share them.  The complex keeps
one list of face codes, which its labels decode and the evaluators count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, count, cycle, repeat
from operator import and_, itemgetter, lt, not_, or_, rshift, sub
from typing import NamedTuple, Optional, Sequence

from .monomial import Exponent, MonomialIdeal, divides, lcm, nongeneric_witness

TAYLOR_GENERATOR_CAP = 20
SCARF_PAIR_CAP = 1 << 21  # the Scarf builder's size-2 pair tests, r(r - 1)/2: r <= 2,048
ORACLE_GENERATOR_CAP = 16

_KINDS = ("taylor", "scarf", "scarf_deformed")


class NotGenericError(ValueError):
    """The ideal has an exponent tie, so the direct Scarf route is invalid."""

    def __init__(self, coordinate: int, pair: tuple[int, int], exponent: int):
        super().__init__(
            f"ideal is not generic: generators {pair[0]} and {pair[1]} share "
            f"exponent {exponent} in coordinate {coordinate}; deform first"
        )


class ComplexSizeError(ValueError):
    """Too many generators for an exponential-size construction."""


class Face(NamedTuple):
    """A face of a labeled complex.

    ``members`` are 1-based generator indices in ascending order; ``label``
    is the coordinatewise maximum of the corresponding exponent vectors.
    Faces are made by :class:`LabeledComplex`, which derives both.
    """

    members: tuple[int, ...]
    label: Exponent

    @property
    def cardinality(self) -> int:
        return len(self.members)


class SignedTerm(NamedTuple):
    """One inclusion-exclusion term: sign * x^exponent from a face of given size."""

    sign: int
    exponent: Exponent
    cardinality: int


_PREFIX = itemgetter(slice(None, -1))
_LAST = itemgetter(-1)
_LABEL = itemgetter(1)


def _run_bounds(tuples: Sequence[tuple[int, ...]]) -> list[int]:
    """Where each cardinality's run of canonically ordered tuples starts, then their end.

    Run s is ``tuples[bounds[s - 1]:bounds[s]]``; closure leaves no size out.
    """
    return [0, *(bisect_right(tuples, s, key=len) for s in range(1, len(tuples[-1]) + 1))]


def _check_faces(faces: Sequence[tuple[int, ...]], r: int, d: int, max_size: int) -> None:
    """The member rules past each entry's type, one face at a time in canonical order;
    raises at the first fault."""
    seen: set[tuple[int, ...]] = set()
    for ms in faces:
        if not ms:
            raise ValueError("faces must be nonempty; the empty face is implicit")
        if not all(map(lt, ms, ms[1:])):
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
        if len(ms) > 1 and not seen.issuperset(combinations(ms, len(ms) - 1)):
            sub = next(c for c in combinations(ms, len(ms) - 1) if c not in seen)
            raise ValueError(
                f"complex is not closed under subsets: {ms} present but {sub} missing"
            )
        seen.add(ms)


@dataclass(frozen=True)
class LabeledComplex:
    """A simplicial complex on generator indices with lcm labels.

    Built from ``members``, a sequence of 1-based member tuples.  Each must
    be a tuple of ints, nonempty, strictly ascending and at most the
    generator count r; no tuple may repeat, every singleton must be present
    and the set must be closed under subsets.  Scarf kinds also need every
    cardinality at most the dimension, and kind="scarf" needs pairwise
    distinct labels.  The constructor checks that each entry is a tuple of
    ints in input order, since only those sort, then sorts the members and
    checks the rest face by face in canonical order, so the fault named is
    the first in that order.  The package's builders make complexes that meet
    every rule by construction and go through :meth:`_built`, which checks
    nothing.

    ``member_tuples`` holds the tuples in canonical order (ascending
    cardinality, then lexicographic), and equality and hashing compare it.
    Each face's lcm code, the OR of its generators' codes in the ideal's
    packing (``MonomialIdeal._packed``), is derived once, a run at a time,
    on first need: by the constructor's kind="scarf" label check, where
    distinct codes are distinct labels, and otherwise by ``faces`` or the
    evaluators.
    ``faces`` is one :class:`Face` per member tuple in that order, labeled
    with the lcm of its generators, decoded from those codes; it is derived
    on first access and kept, so evaluators that need no exponent tuple
    never build one.
    """

    ideal: MonomialIdeal
    members: InitVar[Sequence[tuple[int, ...]]]
    kind: str
    member_tuples: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self, members: Sequence[tuple[int, ...]]) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown complex kind {self.kind!r}")
        r = len(self.ideal.generators)
        d = self.ideal.dimension
        max_size = r if self.kind == "taylor" else d  # r never binds: members are distinct
        ordered = list(members)
        for ms in ordered:  # only tuples of ints sort, so this comes first, in input order
            if type(ms) is not tuple:
                raise ValueError(f"faces must be tuples of member ints, got {ms!r}")
            if any(type(m) is not int for m in ms):
                raise ValueError(f"face members must be ints: {ms}")
        ordered.sort()
        ordered.sort(key=len)  # stable: ascending cardinality, then lexicographic
        _check_faces(ordered, r, d, max_size)
        singletons = set(ordered[:r])  # singletons sort first, so all r lie here if present
        for i in range(1, r + 1):
            if (i,) not in singletons:
                raise ValueError(f"singleton {{{i}}} is missing")
        object.__setattr__(self, "member_tuples", tuple(ordered))
        object.__setattr__(self, "_bounds", _run_bounds(ordered))
        if self.kind == "scarf":
            codes = self._lcm
            if len(set(codes)) != len(codes):  # codes and labels are in bijection
                labels: dict[Exponent, tuple[int, ...]] = {}
                for face in self.faces:
                    if face.label in labels:
                        raise ValueError(
                            f"Scarf labels must be distinct: {labels[face.label]} "
                            f"and {face.members} share {face.label}"
                        )
                    labels[face.label] = face.members

    @classmethod
    def _built(
        cls, ideal: MonomialIdeal, runs: Sequence[Sequence[tuple[int, ...]]], kind: str
    ) -> LabeledComplex:
        """A complex from a package builder, unchecked.

        ``runs`` are its nonempty cardinality runs, sizes 1, 2, ... in
        order, each lexicographic, so their chain is the canonical order.
        """
        self = object.__new__(cls)
        vars(self).update(
            ideal=ideal,
            kind=kind,
            member_tuples=tuple(chain.from_iterable(runs)),
            _bounds=[0, *accumulate(map(len, runs))],
        )
        return self

    @cached_property
    def _lcm(self) -> list[int]:
        """Each face's lcm code in canonical order.

        The generator codes are the ideal's packing.  Canonical order puts
        the faces in runs of one cardinality, and the singletons are the
        generators in order.  Each later run takes its codes from the run before: a face's
        code is its prefix face ``ms[:-1]``'s code OR its last generator's,
        one pass of ``map`` calls in C per run.
        """
        tuples = self.member_tuples
        gen_codes = self.ideal._packed[0]
        by_index = (None, *gen_codes)  # 1-based
        bounds = self._bounds
        codes = list(gen_codes)
        prefix_code = dict(zip(tuples, gen_codes))  # the singleton run
        for lo, hi in zip(bounds[1:], bounds[2:]):
            run = tuples[lo:hi]
            prefixes = map(prefix_code.__getitem__, map(_PREFIX, run))
            grown = list(map(or_, prefixes, map(by_index.__getitem__, map(_LAST, run))))
            codes += grown
            prefix_code = dict(zip(run, grown))
        return codes

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """One :class:`Face` per member tuple, labeled with its lcm, in canonical order.

        Each distinct lcm code is decoded into its label once, a coordinate
        column at a time through the ideal's packing fields, and the faces
        share that tuple, so no Python statement runs per face.
        """
        distinct = dict.fromkeys(self._lcm)
        columns = []  # per coordinate, each distinct code's label entry
        for shift, mask, values in self.ideal._packed[1]:
            runs = map(and_, map(rshift, distinct, repeat(shift)), repeat(mask))
            columns.append(map(values.__getitem__, map(int.bit_length, runs)))
        label_of = dict(zip(distinct, zip(*columns)))
        labels = map(label_of.__getitem__, self._lcm)
        return tuple(map(tuple.__new__, repeat(Face), zip(self.member_tuples, labels)))

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, in canonical order.

        The complex is closed under subsets, so a face is maximal exactly
        when it is not one of the one-smaller subfaces of another face.
        Those subfaces are gathered into one set, a run of one cardinality
        at a time, by ``combinations`` in C; closure makes each of them a
        face, so the set holds at most one entry per face.
        """
        tuples = self.member_tuples
        bounds = self._bounds
        covered: set[tuple[int, ...]] = set()
        for size, lo, hi in zip(count(1), bounds[1:], bounds[2:]):  # the run of size + 1
            covered.update(chain.from_iterable(map(combinations, tuples[lo:hi], repeat(size))))
        return tuple(compress(self.faces, map(not_, map(covered.__contains__, tuples))))

    def max_cardinality(self) -> int:
        return len(self.member_tuples[-1])  # canonical order sorts by cardinality


def taylor_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Every nonempty subset of generators, labeled by its lcm.

    Raises :class:`ComplexSizeError` when the ideal has more than
    ``TAYLOR_GENERATOR_CAP`` generators, since the face count is 2^r - 1.
    """
    r = len(ideal.generators)
    if r > TAYLOR_GENERATOR_CAP:
        raise ComplexSizeError(
            f"Taylor complex on {r} generators would have 2^{r}-1 faces; "
            f"cap is {TAYLOR_GENERATOR_CAP}"
        )
    runs = [tuple(combinations(range(1, r + 1), s)) for s in range(1, r + 1)]
    return LabeledComplex._built(ideal, runs, "taylor")


def _scarf_member_tuples(ideal: MonomialIdeal) -> list[list[tuple[int, ...]]]:
    """Subsets of {1..r} whose lcm label is unique among all subsets, one run per size.

    ``ideal`` must be generic: no two generators share a nonzero exponent in
    any coordinate (rank-deformed vectors always qualify).

    A subset I of size >= 2 qualifies iff (a) dropping any member strictly
    shrinks lcm(I) and (b) no generator outside I divides lcm(I).  The two
    local conditions are equivalent to global label uniqueness: any other
    subset J with the same label either adds an index j whose generator
    divides lcm(I), breaking (b), or sits inside I, forcing some one-element
    deletion to preserve the label and breaking (a).  Singletons are always
    faces.

    A face is held as its member mask (bit i - 1 for generator i) and two
    ints of n = 2**ceil(log2 d) fields of r + 1 bits, field k at bit
    k * (r + 1).  In ``down``, field k is ``ideal.le[k][label[k]]``, the
    generators at or below the label in coordinate k, and padding fields
    are all ones.  These sets are nested in k's exponent order, so the
    union of two faces has ``down`` the OR of theirs, and field k of one
    face strictly contains the other's exactly when its label entry is
    larger.  In ``owner``, field k is the generator holding the label entry,
    which genericity makes unique when the entry is nonzero; a zero entry is
    owned by nobody.

    (b) The AND of the ``down`` fields is the set of generators dividing
    the label; it must equal I.  (a) A member is essential iff it owns some
    coordinate, so the OR of the ``owner`` fields must equal I.  The union
    takes face a's owner on the fields of ``down_a & ~down_b`` that are
    nonzero, found for all fields at once by carrying each into its spare
    top bit, and face b's owner elsewhere (equal entries have equal owners).

    Uniqueness passes down to subsets, so a face of size s + 1 is the union
    of two faces of size s that share their first s - 1 members, and every
    union that passes (a) and (b) has all its other subsets in the complex
    already.  A face's children are its accepted unions with its later
    siblings; the walk goes depth first with an explicit stack, so only the
    sibling groups along one path are held.  A group is one list of
    ``(face, mask, down, owner)`` records.  It meets each size's faces in
    lexicographic order, so the nonempty runs it returns, sizes 1, 2, ...,
    chain into :class:`LabeledComplex`'s canonical order.  That is the
    precondition of :meth:`LabeledComplex._built`, which takes them as they
    are.
    """
    gens, le = ideal.generators, ideal.le
    r, d = len(gens), ideal.dimension
    width = r + 1
    n = 1 << (d - 1).bit_length()
    full = (1 << r) - 1
    lows = sum(1 << (k * width) for k in range(n))
    highs = lows << r
    down = [full * (lows >> (d * width) << (d * width))] * r  # padding fields d..n-1 all ones
    owner = [0] * r
    for k in range(d):
        shift = k * width
        for i, g in enumerate(gens):
            down[i] |= le[k][g[k]] << shift
            if g[k]:
                owner[i] |= 1 << (i + shift)
    shifts = [width * (n >> s) for s in range(1, n.bit_length())]
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(d)]  # (a) bounds sizes by d
    # Each group is one list of (face, mask, down, owner) records in descending
    # order, so pop() takes its first face and the records left in the list are
    # that face's later siblings.
    stack = [[((i + 1,), 1 << i, down[i], owner[i]) for i in reversed(range(r))]]
    while stack:
        group = stack[-1]
        if not group:
            stack.pop()
            continue
        face, mask, down_a, owner_a = group.pop()
        by_size[len(face) - 1].append(face)
        grown = []
        for other, mask_b, down_b, owner_b in group:
            union = mask | mask_b
            joined = down_a | down_b
            fold = joined
            for s in shifts:
                fold &= fold >> s  # each AND keeps the shorter width: field 0 is left
            if fold != union:
                continue
            larger = ((down_a & ~down_b | highs) - lows) & highs
            owned = owner_b ^ (owner_a ^ owner_b) & (larger - (larger >> r))
            fold = owned
            for s in shifts:
                fold |= fold >> s
            if fold & full != union:
                continue
            grown.append((face + other[-1:], union, joined, owned))
        if grown:
            stack.append(grown)
    return [level for level in by_size if level]  # closure: the nonempty runs come first


def _check_scarf_pairs(ideal: MonomialIdeal) -> None:
    """Raise :class:`ComplexSizeError` when the builder's r(r - 1)/2 pair tests
    exceed ``SCARF_PAIR_CAP``; the face count, O(r^(d // 2)), is not bounded."""
    r = len(ideal.generators)
    if (pairs := r * (r - 1) // 2) > SCARF_PAIR_CAP:
        raise ComplexSizeError(f"Scarf complex on {r} generators needs {pairs} pair tests; cap is {SCARF_PAIR_CAP}")


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """The Scarf complex of a generic ideal.

    Raises :class:`ComplexSizeError` above ``SCARF_PAIR_CAP`` pair tests,
    before anything else, and :class:`NotGenericError` (naming the
    offending coordinate and generator pair) when the ideal has an exponent
    tie; use :func:`deform_and_scarf` for those.
    """
    _check_scarf_pairs(ideal)
    witness = nongeneric_witness(ideal)
    if witness is not None:
        k, i, j = witness
        raise NotGenericError(k, (i, j), ideal.generators[i - 1][k - 1])
    return LabeledComplex._built(ideal, _scarf_member_tuples(ideal), "scarf")


def scarf_brute_oracle(ideal: MonomialIdeal) -> LabeledComplex:
    """Scarf complex by exhaustive label counting over all 2^r - 1 subsets.

    Independent of the incremental construction; intended for
    cross-validation.  Singletons are kept unconditionally (they only fail
    the uniqueness scan for the degenerate ideal generated by the zero
    vector, and a simplicial complex needs its vertices).  Refuses more
    than ``ORACLE_GENERATOR_CAP`` generators.
    """
    gens = ideal.generators
    r = len(gens)
    if r > ORACLE_GENERATOR_CAP:
        raise ComplexSizeError(
            f"brute-force Scarf scan on {r} generators needs 2^{r} lcms; "
            f"cap is {ORACLE_GENERATOR_CAP}"
        )
    labels: dict[tuple[int, ...], Exponent] = {}
    counts: dict[Exponent, int] = {}
    for s in range(1, r + 1):
        for combo in combinations(range(1, r + 1), s):
            label = lcm(gens[i - 1] for i in combo)
            labels[combo] = label
            counts[label] = counts.get(label, 0) + 1
    members = [
        combo for combo, label in labels.items() if counts[label] == 1 or len(combo) == 1
    ]
    return LabeledComplex(ideal=ideal, members=members, kind="scarf")


def check_deformation_v(v: int, r: int) -> None:
    """Reject a deformation denominator v that does not exceed the generator count r."""
    if v <= r:
        raise ValueError(f"deformation parameter v must exceed the generator count {r}, got {v}")


def deform(ideal: MonomialIdeal, v: Optional[int] = None) -> MonomialIdeal:
    """The generic ideal of per-coordinate dense ranks, generator i for generator i.

    In each coordinate, the exponents are replaced by their 0-based rank
    under (value, generator index) order, so each coordinate of the result
    is a permutation of 0..r - 1.  Ties between equal exponents are broken
    toward the lower generator index, matching a perturbation that adds i/v
    to generator i's exponents with v > r; the face set is the same for
    every such v.  Defaults to v = r + 1; smaller v is rejected.  Dense ranks
    keep every strict coordinate order, so the ranks stay a minimal antichain
    and the ideal takes them unchecked.  The descending tie-break is obtained
    by reversing the input order and mapping member j back to r + 1 - j, as
    acceptance criterion 5 does.
    """
    gens = ideal.generators
    r = len(gens)
    if v is not None:
        check_deformation_v(v, r)
    ranks = []
    for column in zip(*gens):
        order = sorted(range(r), key=column.__getitem__)  # stable: (value, index) order
        ranks.append(sorted(range(r), key=order.__getitem__))  # a permutation's inverse
    return MonomialIdeal._built(ideal.dimension, tuple(zip(*ranks)))


def deform_and_scarf(ideal: MonomialIdeal, v: Optional[int] = None) -> LabeledComplex:
    """Scarf complex of the deformed ideal, as a complex over the original.

    The ideal :func:`deform` returns is generic by construction, so the
    Scarf route always applies to it.  Its member tuples form a complex over
    ``ideal``, and like every :class:`LabeledComplex` it takes its labels as
    lcms over its own ideal, here the original generators.  That is a
    (possibly non-minimal, but still exact) inclusion-exclusion support for
    the original ideal; repeated labels are allowed here, unlike for
    kind="scarf".  Raises :class:`ComplexSizeError` above ``SCARF_PAIR_CAP``
    pair tests, before deforming.
    """
    _check_scarf_pairs(ideal)
    runs = _scarf_member_tuples(deform(ideal, v))
    return LabeledComplex._built(ideal, runs, "scarf_deformed")


def hilbert_numerator(complex_: LabeledComplex) -> tuple[SignedTerm, ...]:
    """Signed terms of the rational Hilbert series numerator.

    The implicit empty face contributes the constant +1; each face of
    cardinality s contributes (-1)^s x^label.  Terms follow the canonical
    face order.  For kind="scarf" no two terms share an exponent (the
    alternating sum is cancellation-free): the Scarf builder makes labels
    unique, the constructor rejects repeated ones, and no label is the constant term's zero exponent unless the
    zero vector is a generator.  That whole-ring ideal is the one exception;
    its numerator is legitimately 1 - x^0, and both terms are kept so the
    pointwise identity still holds.

    The faces of one cardinality form one run and share their sign, so the
    signs and cardinalities are runs of ``repeat`` and the terms are made
    from them and the faces' labels in C, with no Python step per face.
    """
    bounds = complex_._bounds
    counts = list(map(sub, bounds[1:], bounds))  # faces per cardinality 1, 2, ...
    signs = chain.from_iterable(map(repeat, cycle((-1, 1)), counts))
    sizes = chain.from_iterable(map(repeat, count(1), counts))
    labels = map(_LABEL, complex_.faces)
    terms = map(tuple.__new__, repeat(SignedTerm), zip(signs, labels, sizes))
    return (SignedTerm(1, (0,) * complex_.ideal.dimension, 0), *terms)


def pointwise_coefficient(terms: Sequence[SignedTerm], beta: Sequence[int]) -> int:
    """Coefficient of x^beta in the series expansion of numerator / prod(1 - xi).

    Equals the signed count of terms whose exponent divides beta.  For a
    numerator built from any inclusion-exclusion support of an ideal M this
    is 1 when x^beta is a standard monomial (outside M) and 0 when inside.
    """
    b = tuple(beta)
    total = 0
    for t in terms:
        if divides(t.exponent, b):
            total += t.sign
    return total
