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
the faces are then used as a complex over the original ideal.
The resulting face set does not depend on the tie-break magnitude, only on
the ordering, so any deformation parameter v > r yields the same complex.

One depth-first walker (``_scarf_walk``) makes every Scarf face.  It runs
the Scarf tests on the generic ideal it walks, plain or deformed.  It
settles the edges first, testing every pair or, in three variables, only
the at most 3r pairs a staircase sweep proposes, and then drops every
deeper union whose two newest members are not an edge.  It carries each
face's lcm code in the original ideal's packing
(``MonomialIdeal._packed``), the OR of its two parents' codes, so a
deformed walk yields the original labels.  It can stop at a given size
and can leave the member tuples out.  :func:`scarf_complex` and
:func:`deform_and_scarf` take its member runs and code runs and hand both
to :class:`LabeledComplex`; the reports that only sum (``bounds`` and
``compare``) take its code runs alone, so they hold no member tuple and
build no complex.

Canonical order (ascending cardinality, then lexicographic) puts the faces
in runs of one cardinality, and the complex keeps its faces as those runs;
``member_tuples``, their chain, is the flat key that equality compares.
The package's builders are trusted: they make their faces run by run in
that order and hand the complex the runs, which it keeps unchecked, with
the Scarf builders' code runs.  A member list from a caller is sorted and
checked face by face at construction and then split into runs once, and
the complex derives its codes itself, as it does for the Taylor builder's
runs: a run's lcm codes come from the run before.  The per-face passes,
lcm codes, labels, facets and the Hilbert numerator's terms, each take
one run at a time through ``map``, ``zip``, set and ``itertools`` calls
in C, so none runs a Python statement per face: a run's facets come from
the ``combinations`` of the run after, and its terms share one sign.
Labels are decoded from the codes by one helper (``_labels``), each
distinct code once: ``faces`` decodes every code on first access,
``facets()`` only the facets' codes, and the command line's JSON reports
render faces and terms from the runs and codes with no ``faces`` at all.
So a label can never disagree with its face, and routes that need no
exponent tuple never build one.  The generator codes and the fields that
decode them are the ideal's own packing, derived once per ideal, so a
complex and the evaluators over its ideal share them.  The complex keeps
one list of face codes per run, which its labels decode and the evaluators
count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import chain, combinations, compress, count, cycle, groupby, repeat
from operator import and_, itemgetter, lt, not_, or_, rshift

from .monomial import Exponent, MonomialIdeal, _Value, divides, lcm, nongeneric_witness

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence

TAYLOR_GENERATOR_CAP = 20
SCARF_PAIR_CAP = 1 << 21  # size-2 pairs, r(r - 1)/2, so r <= 2,048; d = 3 tests at most 3r of them
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


class Face(namedtuple("Face", ("members", "label"))):
    """A face of a labeled complex.

    ``members`` are 1-based generator indices in ascending order; ``label``
    is the coordinatewise maximum of the corresponding exponent vectors.
    Faces are made by :class:`LabeledComplex`, which derives both.
    """

    __slots__ = ()

    @property
    def cardinality(self) -> int:
        return len(self.members)


class SignedTerm(namedtuple("SignedTerm", ("sign", "exponent", "cardinality"))):
    """One inclusion-exclusion term: sign * x^exponent from a face of given size."""

    __slots__ = ()


_PREFIX = itemgetter(slice(None, -1))
_LAST = itemgetter(-1)
_LABEL = itemgetter(1)


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


def _labels(ideal: MonomialIdeal, codes) -> dict[int, Exponent]:
    """Each distinct code of ``codes``, in the ideal's packing, mapped to its label.

    The codes are decoded a coordinate column at a time through the
    packing's fields, each in one pass of ``map`` calls in C.
    """
    distinct = dict.fromkeys(codes)
    columns = []  # per coordinate, each distinct code's label entry
    for shift, mask, values in ideal._packed[1]:
        runs = map(and_, map(rshift, distinct, repeat(shift)), repeat(mask))
        columns.append(map(values.__getitem__, map(int.bit_length, runs)))
    return dict(zip(distinct, zip(*columns)))


def _faces(ideal: MonomialIdeal, members, codes) -> tuple[Face, ...]:
    """One :class:`Face` per member tuple and lcm code, the faces of one code sharing its label."""
    codes = list(codes)
    labels = map(_labels(ideal, codes).__getitem__, codes)
    return tuple(map(tuple.__new__, repeat(Face), zip(members, labels)))


class LabeledComplex(_Value):
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

    The complex keeps the tuples as one run per cardinality 1, 2, ..., each
    lexicographic, and its per-run passes read those runs.
    ``member_tuples``, their chain in canonical order (ascending
    cardinality, then lexicographic), is the flat key that equality and
    hashing compare.  Each face's lcm code is the OR of its generators'
    codes in the ideal's packing (``MonomialIdeal._packed``), kept as one
    list per run.  The Scarf builders hand the code runs over with the
    member runs, from the walk that made the faces.  Otherwise they are
    derived once, a run at a time, on first need: by the constructor's
    kind="scarf" label check, where distinct codes are distinct labels, or
    by ``faces`` or the evaluators.
    ``faces`` is one :class:`Face` per member tuple in that order, labeled
    with the lcm of its generators, decoded from those codes; it is derived
    on first access and kept, so evaluators and renderers that need no
    exponent tuple never build one, and ``facets()`` decodes only the
    facets' codes.
    """

    _fields = ("ideal", "kind", "member_tuples")

    def __init__(self, ideal: MonomialIdeal, members: Sequence[tuple[int, ...]], kind: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown complex kind {kind!r}")
        r = len(ideal.generators)
        d = ideal.dimension
        max_size = r if kind == "taylor" else d  # r never binds: members are distinct
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
        vars(self).update(
            ideal=ideal, kind=kind, member_tuples=tuple(ordered),
            _runs=[list(run) for _, run in groupby(ordered, len)],
        )
        if kind == "scarf":  # codes and labels are in bijection
            if len(set(chain.from_iterable(self._lcm))) != len(ordered):
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
        cls, ideal: MonomialIdeal, kind: str, runs: Sequence[Sequence[tuple[int, ...]]],
        codes: Optional[Sequence[Sequence[int]]] = None,
    ) -> LabeledComplex:
        """A complex from a package builder, unchecked.

        ``runs`` are its nonempty cardinality runs, sizes 1, 2, ... in
        order, each lexicographic, so their chain is the canonical order.
        The complex keeps them as they are, and ``member_tuples``, the flat
        equality key, is their chain.  ``codes``, when given, are the same
        runs' lcm codes, run for run and face for face, which the complex
        then keeps as they are instead of deriving them.
        """
        self = object.__new__(cls)
        vars(self).update(
            ideal=ideal,
            kind=kind,
            member_tuples=tuple(chain.from_iterable(runs)),
            _runs=runs,
        )
        if codes is not None:
            vars(self)["_lcm"] = codes
        return self

    @cached_property
    def _lcm(self) -> list[list[int]]:
        """Each face's lcm code, one list per cardinality run, for a complex built without codes.

        The generator codes are the ideal's packing.  Each run takes its
        codes from the run before: a face's code is its prefix face
        ``ms[:-1]``'s code (the empty face's is 0) OR its last generator's,
        one pass of ``map`` calls in C per run.
        """
        by_index = (None, *self.ideal._packed[0])  # 1-based
        codes: list[list[int]] = []
        prefix_code = {(): 0}
        for run in self._runs:
            prefixes = map(prefix_code.__getitem__, map(_PREFIX, run))
            codes.append(list(map(or_, prefixes, map(by_index.__getitem__, map(_LAST, run)))))
            prefix_code = dict(zip(run, codes[-1]))
        return codes

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """One :class:`Face` per member tuple, labeled with its lcm, in canonical order.

        Each distinct lcm code is decoded into its label once
        (:func:`_labels`), and the faces share that tuple, so no Python
        statement runs per face.
        """
        return _faces(self.ideal, self.member_tuples, chain.from_iterable(self._lcm))

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, in canonical order.

        The complex is closed under subsets, so a face is maximal exactly
        when it is not one of the one-smaller subfaces of another face.
        Those subfaces are gathered into one set, a run of one cardinality
        at a time, by ``combinations`` in C; closure makes each of them a
        face, so the set holds at most one entry per face.  Only the facets'
        codes are decoded, so ``faces`` is not derived.
        """
        covered: set[tuple[int, ...]] = set()
        for size, run in enumerate(self._runs[1:], 1):  # the run of size + 1
            covered.update(chain.from_iterable(map(combinations, run, repeat(size))))
        kept = list(map(not_, map(covered.__contains__, self.member_tuples)))
        codes = compress(chain.from_iterable(self._lcm), kept)
        return _faces(self.ideal, compress(self.member_tuples, kept), codes)

    def max_cardinality(self) -> int:
        return len(self._runs)  # closure leaves no size out


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
    return LabeledComplex._built(ideal, "taylor", runs)


def _planar_pairs(gens: Sequence[Exponent]) -> list[tuple[int, int]]:
    """Candidate edges ``(i, j)``, 0-based with i < j, of a three-variable antichain:
    at most 3r pairs, among them every pair whose lcm no third generator divides.

    Each coordinate is read as the key value * r + index, so keys order by
    (value, index) and are distinct.  A generator whose keys lie at or below
    a pair's largest keys lies at or below the pair's lcm too, so the pairs
    that no third generator divides under keys include every edge.  The
    sweep takes the generators in ascending x key and keeps the (y, z)
    staircase of those passed: the ones no other passed generator lies
    below in y and z, in ascending y and so descending z.  For an edge
    {i, j} with i passed before j, i is on the staircase, else the passed
    generator below it would divide the pair's lcm.  Either j lies below i
    in y and z, and i leaves the staircase for j, which happens at most r
    times; or i lies left of j in y and then above it in z (j would divide
    i otherwise), and any staircase point between them in y lies below
    (y_j, z_i), so i is j's left neighbour; or, symmetrically, i is the
    first staircase point right of j that j does not lie below.
    """
    r = len(gens)
    pairs: list[tuple[int, int]] = []
    ys: list[int] = []  # the staircase's y keys, ascending
    zs: list[int] = []  # its negated z keys, also ascending
    for x in sorted([g[0] * r + i for i, g in enumerate(gens)]):
        j = x % r
        _, y, z = gens[j]
        y, z = y * r + j, -z * r - j
        p = bisect_left(ys, y)
        q = bisect_left(zs, z, p)  # ys[p:q] lie above j in y and z
        for key in ys[p - 1 if p else 0:q + 1]:
            i = key % r
            pairs.append((i, j) if i < j else (j, i))
        ys[p:q] = (y,)
        zs[p:q] = (z,)
    return pairs


def _scarf_walk(
    ideal: MonomialIdeal, walked: MonomialIdeal, depth: Optional[int] = None, members: bool = False
) -> tuple[list[list[tuple[int, ...]]], list[list[int]]]:
    """The Scarf complex of ``walked``, which is ``ideal`` or its deformation, size by size.

    Returns the faces' member tuples, kept only with ``members``, and their
    lcm codes in ``ideal``'s packing (``MonomialIdeal._packed``): the
    nonempty runs of sizes 1, 2, ..., each lexicographic.  The walk stops
    descending at size ``depth`` (default: every size).  A deformed walk
    thus carries the original ideal's labels, and a walk without
    ``members`` builds no member tuple past the singletons, only the codes
    that the evaluators count.

    ``walked`` must be generic: no two generators share a nonzero exponent in
    any coordinate (rank-deformed vectors always qualify).  A subset of
    {1..r} is a face when its lcm label is unique among all subsets.

    A subset I of size >= 2 qualifies iff (a) dropping any member strictly
    shrinks lcm(I) and (b) no generator outside I divides lcm(I).  The two
    local conditions are equivalent to global label uniqueness: any other
    subset J with the same label either adds an index j whose generator
    divides lcm(I), breaking (b), or sits inside I, forcing some one-element
    deletion to preserve the label and breaking (a).  Singletons are always
    faces.

    A face is held as its member mask (bit i - 1 for generator i) and two
    ints of n = 2**ceil(log2 d) fields of r + 1 bits, field k at bit
    k * (r + 1).  In ``down``, field k is ``walked.le[k][label[k]]``, the
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
    Its code is the OR of the two faces' codes.

    Uniqueness passes down to subsets, so a face of size s + 1 is the union
    of two faces of size s that share their first s - 1 members, and every
    union that passes (a) and (b) has all its other subsets in the complex
    already.  The size-2 layer is settled first, as one adjacency mask per
    generator.  Two antichain members each own a coordinate, so (b) alone
    decides a pair.  Every pair is tested, except for d = 3, where only
    :func:`_planar_pairs`' at most 3r candidates are.  A deeper union's two
    newest members form one of its subsets, so a union whose two newest
    members are not adjacent is dropped before its tests.  A face's
    children are its accepted unions with its later siblings, or for a
    singleton its unions with its later neighbours, which the pair pass
    accepted, so their records are made without (a) or (b).  The walk goes
    depth first with an explicit stack, so only the sibling groups along
    one path are held, and the stack's height is the size of the faces in
    its top group.  A group is one list of ``(code, mask, down, owner, face)``
    records, ``face`` the member tuple only with ``members``.  It meets
    each size's faces in lexicographic order, so the member runs chain into
    :class:`LabeledComplex`'s canonical order, and the code runs follow them
    face for face.  That is the precondition of :meth:`LabeledComplex._built`,
    which takes both as they are.
    """
    gens, le = walked.generators, walked.le
    r, d = len(gens), walked.dimension
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
    far = [0] * r  # bit j of far[i], i < j, when generators i + 1 and j + 1 form a face
    bit = [1 << i for i in range(r)]
    for i, j in _planar_pairs(gens) if d == 3 else combinations(range(r), 2):
        fold = down[i] | down[j]
        for s in shifts:
            fold &= fold >> s
        if fold == bit[i] | bit[j]:
            far[i] |= bit[j]
    faces, codes = [[] for _ in range(d)], [[] for _ in range(d)]  # per size: (a) bounds it by d
    # Each group is one list of records in descending order, so pop() takes
    # its first face and the records left in the list are that face's later siblings.
    gen = zip(ideal._packed[0], down, owner)
    single = [(c, 1 << i, dn, ow, (i + 1,)) for i, (c, dn, ow) in enumerate(gen)]
    stack = [single[::-1]]
    while stack:
        group = stack[-1]
        if not group:
            stack.pop()
            continue
        code, mask, down_a, owner_a, face = group.pop()
        size = len(stack)
        codes[size - 1].append(code)
        if members:
            faces[size - 1].append(face)
        if not group or size == depth:  # no later sibling, or no deeper size wanted
            continue
        near = far[mask.bit_length() - 1]  # the last member's later neighbours
        if size == 1:  # the pair pass accepted these unions: (b) decided them and (a) holds
            group, rest = [], near
            while rest:  # highest first, as a group runs
                group.append(single[rest.bit_length() - 1])
                rest &= ~group[-1][1]
        grown = []
        for code_b, mask_b, down_b, owner_b, other in group:
            if not mask_b & near:
                continue
            union = mask | mask_b
            joined = down_a | down_b
            larger = ((down_a & ~down_b | highs) - lows) & highs
            owned = owner_b ^ (owner_a ^ owner_b) & (larger - (larger >> r))
            if size > 1:  # (b), then (a)
                fold = joined
                for s in shifts:
                    fold &= fold >> s  # each AND keeps the shorter width: field 0 is left
                if fold != union:
                    continue
                fold = owned
                for s in shifts:
                    fold |= fold >> s
                if fold & full != union:
                    continue
            grown.append((code | code_b, union, joined, owned, members and face + other[-1:]))
        if grown:
            stack.append(grown)
    # closure: the nonempty runs come first
    return [run for run in faces if run], [run for run in codes if run]


def _check_scarf_pairs(ideal: MonomialIdeal) -> None:
    """Raise :class:`ComplexSizeError` when the r(r - 1)/2 size-2 pairs exceed
    ``SCARF_PAIR_CAP``.  The walker tests them all unless d = 3, where it tests
    at most 3r, so there the count is an overcount; the face count,
    O(r^(d // 2)), is not bounded."""
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
    return LabeledComplex._built(ideal, "scarf", *_scarf_walk(ideal, ideal, members=True))


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
    Scarf route always applies to it.  Its faces form a complex over
    ``ideal``, and like every :class:`LabeledComplex` it takes its labels as
    lcms over its own ideal, here the original generators, whose codes the
    walk carries.  That is a
    (possibly non-minimal, but still exact) inclusion-exclusion support for
    the original ideal; repeated labels are allowed here, unlike for
    kind="scarf".  Raises :class:`ComplexSizeError` above ``SCARF_PAIR_CAP``
    pair tests, before deforming.
    """
    _check_scarf_pairs(ideal)
    walk = _scarf_walk(ideal, deform(ideal, v), members=True)
    return LabeledComplex._built(ideal, "scarf_deformed", *walk)


def _scarf_codes(ideal: MonomialIdeal, v: Optional[int], depth: Optional[int] = None) -> list:
    """The face codes of ``scarf_complex(ideal)``, or of ``deform_and_scarf(ideal, v)``
    when ``v`` is given, one list per size up to ``depth`` (default every size).

    The same walk as theirs, after the same pair cap, but it keeps no member
    tuple and makes no complex.  The caller has chosen the route: the ideal's
    genericity is not checked again.
    """
    _check_scarf_pairs(ideal)
    return _scarf_walk(ideal, ideal if v is None else deform(ideal, v), depth)[1]


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
    counts = list(map(len, complex_._runs))  # faces per cardinality 1, 2, ...
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
