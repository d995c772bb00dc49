import itertools
import random
import re
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scarfrel.complexes as complexes

from scarfrel import (
    ComplexSizeError,
    Face,
    LabeledComplex,
    MonomialIdeal,
    NotGenericError,
    SignedTerm,
    contains,
    deform,
    deform_and_scarf,
    hilbert_numerator,
    is_generic,
    minimalize,
    pointwise_coefficient,
    scarf_brute_oracle,
    scarf_complex,
    taylor_complex,
)

from helpers import (
    BINARY_NINE,
    BINARY_NINE_FACETS,
    MULTI_NINE,
    MULTI_NINE_DEFORMED,
    MULTI_NINE_FACES,
    NONNETWORK_FIVE,
    NONNETWORK_FIVE_FACES,
    PLANAR_GENS,
    assert_ideal_passes_the_public_check,
    bench_corpus_specs,
    random_generic_ideal,
    random_ideal,
    reference_faces,
    reference_facets,
    reference_hilbert_numerator,
    reference_member_checks,
)

PLANAR = MonomialIdeal(2, PLANAR_GENS)
AXES = MonomialIdeal(2, ((1, 0), (0, 1)))
AXES_FACES = [(1,), (2,), (1, 2)]


def member_sets(cx):
    return set(f.members for f in cx.faces)


class TestTaylor:
    def test_planar(self):
        cx = taylor_complex(PLANAR)
        assert len(cx.faces) == 7
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(1, 2)] == (3, 2)
        assert labels[(1, 3)] == (3, 3)
        assert labels[(1, 2, 3)] == (3, 3)

    def test_single_generator(self):
        cx = taylor_complex(MonomialIdeal(2, ((4, 1),)))
        assert [f.members for f in cx.faces] == [(1,)]

    def test_binary_nine_count(self):
        cx = taylor_complex(minimalize(BINARY_NINE))
        assert len(cx.faces) == 2**9 - 1

    def test_cap(self, monkeypatch):
        axes = tuple(
            tuple(1 if j == i else 0 for j in range(5)) for i in range(5)
        )
        monkeypatch.setattr(complexes, "TAYLOR_GENERATOR_CAP", 4)
        message = r"^Taylor complex on 5 generators would have 2\^5-1 faces; cap is 4$"
        with pytest.raises(ComplexSizeError, match=message):
            taylor_complex(MonomialIdeal(5, axes))

    def test_canonical_order(self):
        cx = taylor_complex(PLANAR)
        keys = [(len(f.members), f.members) for f in cx.faces]
        assert keys == sorted(keys)


class TestScarf:
    def test_planar_faces(self):
        cx = scarf_complex(PLANAR)
        assert [f.members for f in cx.faces] == [(1,), (2,), (3,), (1, 2), (2, 3)]
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(1, 2)] == (3, 2)
        assert labels[(2, 3)] == (2, 3)

    def test_planar_excludes_shared_label_faces(self):
        # {1,3} and {1,2,3} both carry (3,3); neither may appear
        faces = member_sets(scarf_complex(PLANAR))
        assert (1, 3) not in faces
        assert (1, 2, 3) not in faces

    def test_single_generator(self):
        cx = scarf_complex(MonomialIdeal(3, ((1, 2, 3),)))
        assert [f.members for f in cx.faces] == [(1,)]

    def test_whole_ring_ideal(self):
        cx = scarf_complex(MonomialIdeal(2, ((0, 0),)))
        assert [f.members for f in cx.faces] == [(1,)]
        assert cx.faces[0].label == (0, 0)

    def test_rejects_nongeneric_with_diagnostic(self):
        gens = ((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))
        with pytest.raises(NotGenericError) as err:
            scarf_complex(MonomialIdeal(4, gens))
        assert str(err.value) == (
            "ideal is not generic: generators 1 and 2 share exponent 1 "
            "in coordinate 1; deform first"
        )

    def test_facets_planar(self):
        cx = scarf_complex(PLANAR)
        assert [f.members for f in cx.facets()] == [(1, 2), (2, 3)]

    def test_matches_brute_oracle_random(self):
        rng = random.Random(41)
        for _ in range(60):
            ideal = random_generic_ideal(rng, max_points=8)
            fast = scarf_complex(ideal)
            slow = scarf_brute_oracle(ideal)
            assert member_sets(fast) == member_sets(slow)
            assert {f.members: f.label for f in fast.faces} == {
                f.members: f.label for f in slow.faces
            }

    def test_labels_distinct_random(self):
        rng = random.Random(42)
        for _ in range(40):
            cx = scarf_complex(random_generic_ideal(rng))
            labels = [f.label for f in cx.faces]
            assert len(set(labels)) == len(labels)

    def test_max_cardinality_at_most_dimension(self):
        rng = random.Random(43)
        for _ in range(40):
            ideal = random_generic_ideal(rng)
            assert scarf_complex(ideal).max_cardinality() <= ideal.dimension


@st.composite
def ideals_with_zeros(draw, min_d=1, max_d=6, max_points=12, max_coord=4):
    """Small ideals rich in repeated zeros, some with all-zero coordinates."""
    d = draw(st.integers(min_d, max_d))
    silent = draw(st.sets(st.integers(0, d - 1)))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_coord), min_size=d, max_size=d),
            min_size=1,
            max_size=max_points,
        )
    )
    return minimalize(
        tuple(0 if k in silent else x for k, x in enumerate(row)) for row in rows
    )


@st.composite
def generic_ideals_with_zeros(draw, min_d=1, max_d=6, max_points=12):
    """Generic ideals: nonzero exponents distinct per coordinate, zeros free."""
    d = draw(st.integers(min_d, max_d))
    r = draw(st.integers(1, max_points))
    columns = []
    for _ in range(d):
        exponents = draw(st.permutations(range(1, r + 1)))
        zeros = draw(st.lists(st.booleans(), min_size=r, max_size=r))
        columns.append([0 if z else e for z, e in zip(zeros, exponents)])
    return minimalize(zip(*columns))


def assert_walk_matches_the_complex(ideal):
    """The walker's code runs are the complex's lcm codes, size for size, and a
    shallow or member-free walk is a prefix of the full one."""
    generic = is_generic(ideal)
    walked = ideal if generic else deform(ideal)
    cx = scarf_complex(ideal) if generic else deform_and_scarf(ideal)
    faces, codes = complexes._scarf_walk(ideal, walked, members=True)
    assert list(itertools.chain(*faces)) == list(cx.member_tuples)
    checked = LabeledComplex(ideal, cx.member_tuples, "scarf_deformed")  # derives its own codes
    assert checked._lcm == cx._lcm == codes  # run for run
    v = None if generic else len(ideal.generators) + 1
    for depth in range(1, ideal.dimension + 1):
        assert complexes._scarf_walk(ideal, walked, depth) == ([], codes[:depth])
        assert complexes._scarf_codes(ideal, v, depth) == codes[:depth]


class TestWalker:
    """One depth-first walker makes every Scarf face, with its code in the
    original ideal's packing."""

    @settings(max_examples=200, deadline=None)
    @given(ideals_with_zeros(max_points=10))
    def test_code_runs_are_the_complex_runs(self, ideal):
        assert_walk_matches_the_complex(ideal)

    @settings(max_examples=100, deadline=None)
    @given(generic_ideals_with_zeros(max_points=10))
    def test_generic_code_runs_are_the_complex_runs(self, ideal):
        assert_walk_matches_the_complex(ideal)

    def test_bench_corpora(self, tmp_path):
        from scarfrel.cli import _ideal
        from scarfrel.specfile import load_spec

        paths = bench_corpus_specs(tmp_path)
        assert len(paths) == 90
        for path in paths:
            assert_walk_matches_the_complex(_ideal(load_spec(str(path))))


def _local_scarf_conditions(gens, members):
    """(a) every member is essential and (b) no outside generator divides the label.

    A member is essential when it alone attains the label in some
    coordinate, so dropping it would shrink the lcm.
    """
    vectors = [gens[i - 1] for i in members]
    label = tuple(map(max, *vectors))
    owners = set()  # per coordinate, the one member attaining the label entry, if only one does
    for column, top in zip(zip(*vectors), label):
        if column.count(top) == 1:
            owners.add(column.index(top))
    if len(owners) != len(vectors):
        return False
    outside = (g for i, g in enumerate(gens, 1) if i not in members)
    return not any(all(map(le, g, label)) for g in outside)


def _shuffled_layer(d, total, cap, seed):
    points = [p for p in itertools.product(range(cap + 1), repeat=d) if sum(p) == total]
    random.Random(seed).shuffle(points)
    return minimalize(points)


def _generic_keeping_zeros(ideal):
    """Rank the nonzero exponents of each coordinate from 1 under (value, index); zeros stay.

    Strict orders survive and ties break, so the result is a generic ideal
    whose zero entries repeat as often as the input's.
    """
    rows = [list(g) for g in ideal.generators]
    for k in range(ideal.dimension):
        held = sorted((g[k], i) for i, g in enumerate(ideal.generators) if g[k])
        for rank, (_, i) in enumerate(held, 1):
            rows[i][k] = rank
    return MonomialIdeal(ideal.dimension, [tuple(row) for row in rows])


def assert_passes_the_public_check(cx):
    """A builder's complex equals its rebuild from reversed members through the checked constructor."""
    checked = LabeledComplex(ideal=cx.ideal, members=cx.member_tuples[::-1], kind=cx.kind)
    assert checked == cx and hash(checked) == hash(cx)
    assert checked.faces == cx.faces
    runs = [list(run) for _, run in itertools.groupby(cx.member_tuples, len)]
    assert list(map(list, cx._runs)) == list(map(list, checked._runs)) == runs


def _assert_local_conditions_complete(gens, faces):
    """Every face meets both local conditions, and so does no one-element extension outside."""
    for members in faces:
        assert len(members) == 1 or _local_scarf_conditions(gens, members), members
    # Every Scarf set extends a smaller one, so this finds any that is missing.
    for members in faces:
        for j in range(1, len(gens) + 1):
            if j not in members:
                grown = tuple(sorted(members + (j,)))
                if _local_scarf_conditions(gens, grown):
                    assert grown in faces, grown


class TestBuilder:
    """The incremental builder against independent checks, also above the oracle cap."""

    @settings(max_examples=80, deadline=None)
    @given(ideals_with_zeros())
    def test_deformed_generators_match_oracle(self, ideal):
        deformed = deform(ideal)  # the ideal deform_and_scarf builds on
        assert_ideal_passes_the_public_check(deformed)
        oracle = scarf_brute_oracle(deformed)
        direct, relabeled = scarf_complex(deformed), deform_and_scarf(ideal)
        assert direct.faces == oracle.faces
        assert [f.members for f in relabeled.faces] == [f.members for f in oracle.faces]
        assert_passes_the_public_check(direct)
        assert_passes_the_public_check(relabeled)

    @settings(max_examples=80, deadline=None)
    @given(generic_ideals_with_zeros())
    def test_generic_matches_oracle(self, ideal):
        cx = scarf_complex(ideal)
        assert cx.faces == scarf_brute_oracle(ideal).faces
        assert_passes_the_public_check(cx)

    @pytest.mark.parametrize(
        "d, total, cap, r", [(3, 17, 17, 171), (8, 2, 1, 28)], ids=["d3-r171", "d8-r28"]
    )
    def test_ladder_layer_local_conditions(self, d, total, cap, r):
        ideal = _shuffled_layer(d, total, cap, seed=d)
        assert len(ideal.generators) == r
        cx = deform_and_scarf(ideal)
        _assert_local_conditions_complete(deform(ideal).generators, member_sets(cx))
        assert_passes_the_public_check(cx)

    @pytest.mark.parametrize(
        "d, total, r", [(3, 10, 66), (3, 23, 300), (4, 5, 56)], ids=["d3-r66", "d3-r300", "d4-r56"]
    )
    def test_generic_layer_with_zeros_local_conditions(self, d, total, r):
        # Undeformed, so many generators share a zero entry, which no face member owns.
        ideal = _generic_keeping_zeros(_shuffled_layer(d, total, total, seed=d))
        assert len(ideal.generators) == r and is_generic(ideal)
        assert all(column.count(0) > 1 for column in zip(*ideal.generators))
        cx = scarf_complex(ideal)
        _assert_local_conditions_complete(ideal.generators, member_sets(cx))
        assert_passes_the_public_check(cx)

    # 1, 2, 4, 8, 8 and 16 packed fields: unpadded, padded and above eight.
    @pytest.mark.parametrize("d", [1, 2, 4, 5, 8, 9])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_field_count_edges_match_oracle(self, d, data):
        ideal = data.draw(ideals_with_zeros(min_d=d, max_d=d))
        deformed = deform(ideal)  # the ideal deform_and_scarf builds on
        assert_ideal_passes_the_public_check(deformed)
        oracle = scarf_brute_oracle(deformed)
        generic = data.draw(generic_ideals_with_zeros(min_d=d, max_d=d))
        direct, relabeled = scarf_complex(deformed), deform_and_scarf(ideal)
        cx = scarf_complex(generic)
        assert direct.faces == oracle.faces
        assert member_sets(relabeled) == member_sets(oracle)
        assert cx.faces == scarf_brute_oracle(generic).faces
        for built in (direct, relabeled, cx):
            assert_passes_the_public_check(built)

    def test_builders_skip_the_constructor_checks(self, monkeypatch):
        def checked(self, ideal, members, kind):
            raise AssertionError("builder output re-checked")

        monkeypatch.setattr(LabeledComplex, "__init__", checked)
        assert len(taylor_complex(PLANAR).faces) == 7
        assert scarf_complex(PLANAR).member_tuples == ((1,), (2,), (3,), (1, 2), (2, 3))
        assert member_sets(deform_and_scarf(MonomialIdeal(4, MULTI_NINE))) == set(MULTI_NINE_FACES)


def assert_sweep_proposes_every_edge(gens):
    """The planar sweep proposes at most 3r pairs, and among them every pair that
    passes both local conditions, found by brute force over all pairs."""
    r = len(gens)
    pairs = complexes._planar_pairs(gens)
    assert len(pairs) <= 3 * r
    assert all(i < j for i, j in pairs)
    proposed = {(i + 1, j + 1) for i, j in pairs}
    for pair in itertools.combinations(range(1, r + 1), 2):
        assert pair in proposed or not _local_scarf_conditions(gens, pair), pair


class TestPlanarSweep:
    """In three variables the walker tests only the pairs a staircase sweep proposes."""

    @settings(max_examples=100, deadline=None)
    @given(ideals_with_zeros(min_d=3, max_d=3, max_coord=6))
    def test_deformed_matches_oracle(self, ideal):
        deformed = deform(ideal)
        oracle = scarf_brute_oracle(deformed)
        assert scarf_complex(deformed).faces == oracle.faces
        assert deform_and_scarf(ideal).member_tuples == oracle.member_tuples
        for gens in (ideal.generators, deformed.generators):  # ties too: any antichain
            assert_sweep_proposes_every_edge(gens)

    @settings(max_examples=100, deadline=None)
    @given(generic_ideals_with_zeros(min_d=3, max_d=3))
    def test_generic_with_repeated_zeros_matches_oracle(self, ideal):
        assert scarf_complex(ideal).faces == scarf_brute_oracle(ideal).faces
        assert_sweep_proposes_every_edge(ideal.generators)

    @pytest.mark.parametrize("total", [17, 23], ids=["r171", "r300"])
    def test_layers_propose_every_edge(self, total):
        layer = _shuffled_layer(3, total, total, seed=3)
        assert_sweep_proposes_every_edge(deform(layer).generators)
        assert_sweep_proposes_every_edge(_generic_keeping_zeros(layer).generators)

    def test_two_thousand_generators_give_a_planar_edge_count(self):
        from scarfrel.cli import _ideal
        from scarfrel.specfile import load_spec

        path = Path(__file__).resolve().parent / "specs" / "planar_d3_r2000.json"
        ideal = _ideal(load_spec(str(path)))
        r = len(ideal.generators)
        assert r == 2000 and not is_generic(ideal)
        assert len(complexes._planar_pairs(deform(ideal).generators)) <= 3 * r
        singles, edges = complexes._scarf_codes(ideal, r + 1, 2)
        assert len(singles) == r and len(edges) <= 3 * r - 6  # a planar graph's bound


class TestScarfPairCap:
    """Both Scarf routes refuse more than SCARF_PAIR_CAP size-2 pair tests before any work."""

    @staticmethod
    def staircase(r):
        """A generic d=2 antichain of r generators."""
        return minimalize([(i, r - 1 - i) for i in range(r)])

    def test_refused_before_anything_is_built(self, monkeypatch):
        ideal = self.staircase(2049)

        def built(*args):
            raise AssertionError("work done past the cap")

        for name in ("nongeneric_witness", "deform", "_scarf_walk"):
            monkeypatch.setattr(complexes, name, built)
        message = r"^Scarf complex on 2049 generators needs 2098176 pair tests; cap is 2097152$"
        for route in (scarf_complex, deform_and_scarf):
            with pytest.raises(ComplexSizeError, match=message):
                route(ideal)
        assert "le" not in vars(ideal)  # the index was never derived

    def test_admits_2048_generators(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(complexes, "_scarf_walk", reached)
        ideal = self.staircase(2048)
        for route in (scarf_complex, deform_and_scarf):
            with pytest.raises(Reached):
                route(ideal)


class TestFacets:
    def test_matches_brute_force_maximality(self):
        rng = random.Random(50)
        for _ in range(40):
            ideal = random_ideal(rng, max_points=9)
            complexes = [deform_and_scarf(ideal), taylor_complex(ideal)]
            if is_generic(ideal):
                complexes.append(scarf_complex(ideal))
            for cx in complexes:
                maximal = tuple(
                    f
                    for f in cx.faces
                    if not any(set(f.members) < set(g.members) for g in cx.faces)
                )
                assert cx.facets() == maximal


def assert_run_passes_match_the_per_face_loops(cx):
    """faces, facets() and hilbert_numerator equal their per-face references
    tuple for tuple, and every item is still a working Face or SignedTerm."""
    faces, facets, terms = cx.faces, cx.facets(), hilbert_numerator(cx)
    assert faces == reference_faces(cx)
    assert facets == reference_facets(cx)
    assert terms == reference_hilbert_numerator(cx)
    for face in faces + facets:
        assert type(face) is Face
        assert face._asdict() == {"members": face.members, "label": face.label}
        assert face.cardinality == len(face.members)
        assert type(face.label) is tuple and len(face.label) == cx.ideal.dimension
    for term in terms:
        assert type(term) is SignedTerm
        assert term._asdict() == {
            "sign": term.sign, "exponent": term.exponent, "cardinality": term.cardinality
        }
        assert term.sign == (-1) ** term.cardinality


class TestRunPasses:
    """The cardinality-run passes against the per-face loops they replace."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), route=st.sampled_from(["taylor", "scarf", "deformed"]))
    def test_equal_the_per_face_loops(self, data, route):
        if route == "scarf":
            cx = scarf_complex(data.draw(generic_ideals_with_zeros()))
        else:
            ideal = data.draw(ideals_with_zeros(max_points=9))
            cx = taylor_complex(ideal) if route == "taylor" else deform_and_scarf(ideal)
        assert_run_passes_match_the_per_face_loops(cx)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scarf_complex(PLANAR),
            lambda: taylor_complex(PLANAR),
            lambda: scarf_complex(MonomialIdeal(2, ((0, 0),))),  # the whole ring
            lambda: scarf_complex(MonomialIdeal(3, ((2, 0, 1),))),
            lambda: deform_and_scarf(minimalize(BINARY_NINE)),
            lambda: deform_and_scarf(minimalize(NONNETWORK_FIVE)),
        ],
        ids=["planar-scarf", "planar-taylor", "whole-ring", "principal", "binary-nine", "nonnetwork"],
    )
    def test_named_complexes(self, build):
        assert_run_passes_match_the_per_face_loops(build())

    def test_a_face_without_children_that_is_not_maximal(self):
        # The builder grows (1, 3) by no later sibling, so no face extends it,
        # yet it lies in (1, 2, 3): a face with no children is not a facet.
        cx = deform_and_scarf(minimalize(MULTI_NINE))
        assert (1, 3) in cx.member_tuples and (1, 2, 3) in cx.member_tuples
        assert not any(ms[:2] == (1, 3) for ms in cx.member_tuples if len(ms) > 2)
        assert (1, 3) not in [f.members for f in cx.facets()]
        assert_run_passes_match_the_per_face_loops(cx)


@st.composite
def antichains(draw, max_points):
    """Ideals of 2..max_points points of one coordinate sum, so none is dropped; ties abound."""
    d = draw(st.integers(2, 4))
    total = draw(st.integers(2, 5))
    layer = [p for p in itertools.product(range(total + 1), repeat=d) if sum(p) == total]
    points = st.lists(st.sampled_from(layer), min_size=2, max_size=max_points, unique=True)
    return minimalize(draw(points))


FAULTS = ("empty", "descending", "zero", "above-r", "duplicate", "above-d", "unclosed", "singleton")


def inject(data, members, faults, r, d):
    """``members`` with the named faults; those that make a face all go into one face."""
    faces = [ms for ms in members if ms]
    if "unclosed" in faults:  # drop a face that lies in another face
        inner = sorted(
            {sub for ms in faces if len(ms) > 1 for sub in itertools.combinations(ms, len(ms) - 1)}
        )
        if inner:
            drop = data.draw(st.sampled_from(inner))
            members = [ms for ms in members if ms != drop]
    if "singleton" in faults:
        drop = (data.draw(st.integers(1, r)),)
        members = [ms for ms in members if ms != drop]
    if "empty" in faults:
        members = [*members, ()]
    if faults & {"above-d", "zero", "above-r", "descending", "duplicate"}:
        if "above-d" in faults:  # a (d + 1)-face with every subset, so closure holds
            ids = st.integers(1, r if r > d else d + 1)
            face = tuple(sorted(data.draw(st.sets(ids, min_size=d + 1, max_size=d + 1))))
            subsets = (c for s in range(1, d + 1) for c in itertools.combinations(face, s))
            members = [*members, *(c for c in subsets if c not in members)]
        else:
            face = data.draw(st.sampled_from(faces)) if faces else (1,)
        if "zero" in faults:
            face = (0, *face)
        if "above-r" in faults:
            face = (*face, r + 1)
        if "descending" in faults:  # the ends stay, so a zero or above-r fault stays too
            if len(face) > 3:  # the inner entries reversed
                face = face[:1] + face[-2:0:-1] + face[-1:]
            else:  # the middle entry repeated
                face = face[:len(face) // 2 + 1] + face[len(face) // 2:]
        members = [*members, face, *[face] * ("duplicate" in faults)]
    return members


def assert_checks_match_the_per_face_rule(data, route, groups):
    """Inject each group of faults into a drawn complex; compare with the per-face rule."""
    if route == "scarf":
        ideal = data.draw(generic_ideals_with_zeros(min_d=2, max_d=4, max_points=8))
        kind, members = "scarf", list(scarf_complex(ideal).member_tuples)
    else:
        ideal = data.draw(antichains(max_points=6 if route == "taylor" else 12))
        build = taylor_complex if route == "taylor" else deform_and_scarf
        cx = build(ideal)
        kind, members = cx.kind, list(cx.member_tuples)
    r, d = len(ideal.generators), ideal.dimension
    for group in groups:
        members = inject(data, members, group, r, d)
    members = data.draw(st.permutations(members))
    try:
        expected = reference_member_checks(ideal, members, kind)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            LabeledComplex(ideal=ideal, members=members, kind=kind)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        assert LabeledComplex(ideal=ideal, members=members, kind=kind).member_tuples == expected


class TestRunWiseChecks:
    """The constructor's face-by-face member checks against the reference rule.

    Only member lists from callers are checked; the package's builders
    hand over finished runs, which TestBuilder rebuilds through this check.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        route=st.sampled_from(["taylor", "scarf", "deformed"]),
        faults=st.lists(st.sampled_from(FAULTS), max_size=3),
    )
    def test_same_members_or_same_error_as_the_per_face_rule(self, data, route, faults):
        groups = []  # faults that share a group fall on one face
        for fault in faults:
            if not groups or data.draw(st.booleans()):
                groups.append(set())
            groups[-1].add(fault)
        assert_checks_match_the_per_face_rule(data, route, groups)

    # Every pair of rules that one face can break together, so each pair's order shows.
    @pytest.mark.parametrize(
        "pair",
        list(itertools.combinations(("above-d", "zero", "above-r", "descending", "duplicate"), 2)),
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), route=st.sampled_from(["taylor", "scarf", "deformed"]))
    def test_two_faults_on_one_face(self, pair, data, route):
        assert_checks_match_the_per_face_rule(data, route, [set(pair)])

    @pytest.mark.parametrize(
        "members, message",
        [
            # the zero fault's face comes first in canonical order
            ([(1,), (2,), (3,), (1, 3), (0, 2), (2, 1)],
             "face members are 1-based: (0, 2)"),
            # two faults on one face: the ascending rule is checked first
            ([(1,), (2,), (3,), (0, 2, 1)], "face members must be strictly ascending: (0, 2, 1)"),
            # closure is checked against the run before, in face order
            ([(1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3)],
             "complex is not closed under subsets: (1, 2, 3) present but (2, 3) missing"),
            # a skipped cardinality leaves an empty run
            ([(1,), (2,), (3,), (1, 2, 3)],
             "complex is not closed under subsets: (1, 2, 3) present but (1, 2) missing"),
            # singletons are counted last, so a later run's fault is named first
            ([(1,), (3,), (1, 3), (1, 3)], "duplicate face (1, 3)"),
            ([(1,), (3,)], "singleton {2} is missing"),
            ([], "singleton {1} is missing"),
            # the int rule comes right after the nonempty rule
            ([(1,), (2,), (3,), (2.5, 1)], "face members must be ints: (2.5, 1)"),
            ([(1,), (2,), (3,), (1, 3), (1, 2.0)], "face members must be ints: (1, 2.0)"),
        ],
    )
    def test_first_fault_in_canonical_order(self, members, message):
        with pytest.raises(ValueError) as err:
            LabeledComplex(ideal=PLANAR, members=members, kind="taylor")
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            reference_member_checks(PLANAR, members, "taylor")
        assert str(err.value) == message


class TestBruteOracle:
    def test_planar(self):
        cx = scarf_brute_oracle(PLANAR)
        assert member_sets(cx) == {(1,), (2,), (3,), (1, 2), (2, 3)}

    def test_cap(self, monkeypatch):
        ideal = minimalize(BINARY_NINE)
        monkeypatch.setattr(complexes, "ORACLE_GENERATOR_CAP", 8)
        message = r"^brute-force Scarf scan on 9 generators needs 2\^9 lcms; cap is 8$"
        with pytest.raises(ComplexSizeError, match=message):
            scarf_brute_oracle(ideal)


class TestDeform:
    def test_multistate_nine_verbatim(self):
        assert deform(MonomialIdeal(4, MULTI_NINE), 10).generators == MULTI_NINE_DEFORMED

    def test_binary_nine_first_coordinate_order(self):
        # zeros rank below ones; ties break toward the lower index
        col = [g[0] for g in deform(minimalize(BINARY_NINE), 10).generators]
        order = sorted(range(1, 10), key=lambda i: col[i - 1])
        assert order == [3, 5, 6, 7, 8, 9, 1, 2, 4]

    def test_default_v(self):
        ideal = MonomialIdeal(2, ((1, 0), (0, 1)))
        assert deform(ideal) == deform(ideal, 3)

    def test_v_too_small(self):
        with pytest.raises(ValueError):
            deform(MonomialIdeal(4, MULTI_NINE), 9)

    def test_preserves_strict_orders_when_generic(self):
        rng = random.Random(44)
        for _ in range(30):
            ideal = random_generic_ideal(rng)
            deformed = deform(ideal)
            for k in range(ideal.dimension):
                orig = [g[k] for g in ideal.generators]
                ranks = [g[k] for g in deformed.generators]
                for a in range(len(orig)):
                    for b in range(len(orig)):
                        if orig[a] < orig[b]:
                            assert ranks[a] < ranks[b]

    def test_deformed_ideal_generic_and_minimal(self):
        rng = random.Random(45)
        for _ in range(30):
            ideal = random_ideal(rng)
            deformed = deform(ideal)
            assert type(deformed) is MonomialIdeal
            assert_ideal_passes_the_public_check(deformed)  # minimal
            assert is_generic(deformed)
            r = len(ideal.generators)
            for column in zip(*deformed.generators):  # dense ranks: a permutation of 0..r - 1
                assert sorted(column) == list(range(r))


class TestDeformAndScarf:
    def test_binary_nine(self):
        cx = deform_and_scarf(minimalize(BINARY_NINE), 10)
        assert len(cx.faces) == 103
        assert tuple(sorted(f.members for f in cx.facets())) == BINARY_NINE_FACETS
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(1, 2, 7)] == (1, 1, 0, 1, 1, 1, 1, 1)

    def test_multistate_nine(self):
        cx = deform_and_scarf(MonomialIdeal(4, MULTI_NINE), 10)
        assert member_sets(cx) == set(MULTI_NINE_FACES)
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(4, 8, 9)] == (1, 3, 2, 3)

    def test_nonnetwork_five(self):
        cx = deform_and_scarf(minimalize(NONNETWORK_FIVE))
        assert member_sets(cx) == set(NONNETWORK_FIVE_FACES)

    def test_agrees_with_oracle_on_deformed_generators(self):
        # second route: brute-scan the deformed ideal, then relabel
        for points in (BINARY_NINE, NONNETWORK_FIVE, MULTI_NINE):
            ideal = minimalize(points)
            deformed = MonomialIdeal(ideal.dimension, deform(ideal).generators)
            oracle_faces = member_sets(scarf_brute_oracle(deformed))
            assert member_sets(deform_and_scarf(ideal)) == oracle_faces

    def test_generic_input_matches_direct_route(self):
        rng = random.Random(46)
        for _ in range(30):
            ideal = random_generic_ideal(rng)
            direct = scarf_complex(ideal)
            deformed = deform_and_scarf(ideal)
            assert member_sets(direct) == member_sets(deformed)
            assert {f.members: f.label for f in direct.faces} == {
                f.members: f.label for f in deformed.faces
            }

    def test_v_independent(self):
        rng = random.Random(47)
        for _ in range(30):
            ideal = random_ideal(rng)
            r = len(ideal.generators)
            low = deform_and_scarf(ideal, r + 1)
            high = deform_and_scarf(ideal, 10 * (r + 1))
            assert member_sets(low) == member_sets(high)

    def test_downward_closed_with_singletons(self):
        rng = random.Random(48)
        for _ in range(25):
            ideal = random_ideal(rng)
            cx = deform_and_scarf(ideal)
            present = member_sets(cx)
            for i in range(1, len(ideal.generators) + 1):
                assert (i,) in present
            for members in present:
                for k in range(len(members)):
                    sub = members[:k] + members[k + 1:]
                    if sub:
                        assert sub in present


class TestComplexValidation:
    def test_missing_singleton_rejected(self):
        ideal = MonomialIdeal(2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="singleton"):
            LabeledComplex(ideal=ideal, members=[(1,)], kind="scarf")

    def test_unclosed_rejected(self):
        ideal = MonomialIdeal(2, ((1, 0), (0, 1)))
        # the pair face is present but the singleton {2} is not
        with pytest.raises(ValueError, match="closed"):
            LabeledComplex(ideal=ideal, members=[(1,), (1, 2)], kind="scarf")

    @pytest.mark.parametrize(
        "ideal, members, message",
        [
            (AXES, [*AXES_FACES, ()], "nonempty"),
            (AXES, [*AXES_FACES, (2, 1)], "strictly ascending"),
            (AXES, [*AXES_FACES, (0,)], "1-based"),
            (AXES, [*AXES_FACES, (3,)], "exceeds generator count 2"),
            (AXES, [*AXES_FACES, (1, 2)], "duplicate face"),
            # a non-int member would mislabel faces or break ``faces``
            (PLANAR, [(1,), (2,), (3,), (1.5,)], "face members must be ints: (1.5,)"),
            (PLANAR, [(1,), (2,), (3,), (1, 2.0)], "face members must be ints: (1, 2.0)"),
            (PLANAR, [(True,), (2,), (3,)], "face members must be ints: (True,)"),
            # a non-tuple entry is named before the sort, which could not compare it
            (PLANAR, [[1], [2], [3]], "faces must be tuples of member ints, got [1]"),
            (PLANAR, [(1,), (2,), (3,), [1, 2]],
             "faces must be tuples of member ints, got [1, 2]"),
            (PLANAR, [1, 2, 3], "faces must be tuples of member ints, got 1"),
        ],
        ids=["empty", "descending", "zero", "above-r", "duplicate", "float", "float-in-pair",
             "bool", "lists", "list-among-tuples", "ints"],
    )
    def test_member_rule(self, ideal, members, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledComplex(ideal=ideal, members=members, kind="taylor")

    @pytest.mark.parametrize("kind", ["scarf", "scarf_deformed"])
    def test_scarf_face_above_the_dimension_rejected(self, kind):
        members = [ms for s in (1, 2, 3) for ms in itertools.combinations((1, 2, 3), s)]
        with pytest.raises(ValueError) as err:
            LabeledComplex(ideal=PLANAR, members=members, kind=kind)
        assert str(err.value) == (
            "Scarf face (1, 2, 3) has cardinality above the ambient dimension 2"
        )

    def test_repeated_scarf_labels_rejected(self):
        # (1, 1, 0) divides lcm((1, 0, 2), (0, 1, 2)), so {1, 2} and {1, 3} share it
        ideal = MonomialIdeal(3, ((1, 0, 2), (0, 1, 2), (1, 1, 0)))
        members = [(1,), (2,), (3,), (1, 2), (1, 3)]
        with pytest.raises(ValueError) as err:
            LabeledComplex(ideal=ideal, members=members, kind="scarf")
        assert str(err.value) == (
            "Scarf labels must be distinct: (1, 2) and (1, 3) share (1, 1, 2)"
        )
        LabeledComplex(ideal=ideal, members=members, kind="scarf_deformed")

    @pytest.mark.parametrize(
        "kind, members, message",
        [
            ("taylor", [(1,), (2,), (3,), (1, 2), ()], "nonempty"),
            ("taylor", [(1,), (2,), (3,), (2, 1)], "strictly ascending"),
            ("taylor", [(1,), (2,), (3,), (0,)], "1-based"),
            ("taylor", [(1,), (2,), (3,), (4,)], "exceeds generator count 3"),
            ("taylor", [(1,), (2,), (3,), (1, 2), (1, 2)], "duplicate face"),
            ("scarf_deformed", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
             "above the ambient dimension 2"),
            ("taylor", [(1,), (2,), (3,), (1, 2, 3)], "not closed under subsets"),
            ("taylor", [(1,), (2,)], "singleton"),
            ("scarf", [(1,), (3,)], "singleton"),
        ],
        ids=["empty", "descending", "zero", "above-r", "duplicate", "size-cap", "unclosed",
             "taylor-singleton", "scarf-singleton"],
    )
    def test_member_checks_run_without_labels(self, monkeypatch, kind, members, message):
        def no_labels(self):
            raise AssertionError("labels derived")

        monkeypatch.setattr(LabeledComplex, "faces", property(no_labels))
        with pytest.raises(ValueError, match=message):
            LabeledComplex(ideal=PLANAR, members=members, kind=kind)

    def test_equality_and_hash_follow_the_canonical_members(self):
        members = [ms for s in (1, 2, 3) for ms in itertools.combinations((1, 2, 3), s)]
        a = LabeledComplex(ideal=PLANAR, members=members, kind="taylor")
        b = LabeledComplex(ideal=PLANAR, members=members[::-1], kind="taylor")
        assert a.member_tuples == tuple(members)
        assert a == b and hash(a) == hash(b)
        assert a != LabeledComplex(ideal=PLANAR, members=members[:-1], kind="taylor")
        assert a.faces == b.faces

    def test_unknown_kind_rejected(self):
        ideal = MonomialIdeal(1, ((1,),))
        with pytest.raises(ValueError, match="kind"):
            LabeledComplex(ideal=ideal, members=[(1,)], kind="koszul")

    @pytest.mark.parametrize("build", [taylor_complex, scarf_complex, deform_and_scarf])
    def test_labels_are_member_lcms_in_canonical_order(self, build):
        rng = random.Random(51)
        for _ in range(40):
            ideal = random_generic_ideal(rng) if build is scarf_complex else random_ideal(rng)
            gens = ideal.generators
            cx = build(ideal)
            assert_passes_the_public_check(cx)
            for f in cx.faces:
                expected = list(gens[f.members[0] - 1])
                for i in f.members[1:]:
                    expected = [max(a, b) for a, b in zip(expected, gens[i - 1])]
                assert f.label == tuple(expected)
            keys = [(len(f.members), f.members) for f in cx.faces]
            assert keys == sorted(keys)


class TestHilbertNumerator:
    def test_planar_scarf(self):
        terms = hilbert_numerator(scarf_complex(PLANAR))
        assert terms == (
            SignedTerm(1, (0, 0), 0),
            SignedTerm(-1, (3, 0), 1),
            SignedTerm(-1, (2, 2), 1),
            SignedTerm(-1, (0, 3), 1),
            SignedTerm(1, (3, 2), 2),
            SignedTerm(1, (2, 3), 2),
        )

    def test_planar_taylor_has_cancelling_pair(self):
        terms = hilbert_numerator(taylor_complex(PLANAR))
        assert len(terms) == 8
        signs_at_33 = sorted(t.sign for t in terms if t.exponent == (3, 3))
        assert signs_at_33 == [-1, 1]

    def test_principal(self):
        terms = hilbert_numerator(scarf_complex(MonomialIdeal(2, ((2, 1),))))
        assert terms == (SignedTerm(1, (0, 0), 0), SignedTerm(-1, (2, 1), 1))

    def test_sign_parity(self):
        for t in hilbert_numerator(taylor_complex(PLANAR)):
            assert t.sign == (-1) ** t.cardinality


class TestPointwise:
    def test_planar_values(self):
        terms = hilbert_numerator(scarf_complex(PLANAR))
        assert pointwise_coefficient(terms, (1, 1)) == 1
        assert pointwise_coefficient(terms, (3, 0)) == 0
        assert pointwise_coefficient(terms, (0, 0)) == 1

    def test_zero_vector_generator(self):
        terms = hilbert_numerator(scarf_complex(MonomialIdeal(2, ((0, 0),))))
        assert pointwise_coefficient(terms, (0, 0)) == 0

    def test_master_identity_all_kinds(self):
        # the alternating sum must be the exact indicator of non-membership
        rng = random.Random(49)
        for _ in range(40):
            ideal = random_ideal(rng, d=rng.randint(2, 4), max_coord=4, max_points=6)
            complexes = [taylor_complex(ideal), deform_and_scarf(ideal)]
            if is_generic(ideal):
                complexes.append(scarf_complex(ideal))
            box = [
                range(max(g[k] for g in ideal.generators) + 2)
                for k in range(ideal.dimension)
            ]
            betas = list(itertools.product(*box))
            for cx in complexes:
                terms = hilbert_numerator(cx)
                for beta in betas:
                    expected = 0 if contains(ideal, beta) else 1
                    assert pointwise_coefficient(terms, beta) == expected
