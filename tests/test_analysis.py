import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import scarfrel.analysis as analysis

from scarfrel import (
    CoherentSystem,
    ComplexSizeError,
    Component,
    DepthBound,
    DimensionMismatchError,
    LabeledComplex,
    MonomialIdeal,
    bonferroni_bounds,
    brute_force_reliability,
    build_report,
    deform_and_scarf,
    depth_bounds,
    inclusion_exclusion,
    is_generic,
    lcm,
    minimalize,
    orthant_prob,
    reliability_identity,
    scarf_complex,
    subset_bounds,
    taylor_complex,
    tube_bounds,
)
from scarfrel.cli import _cross_check, _ideal, _route
from scarfrel.complexes import _scarf_codes
from scarfrel.monomial import _lcm_codes
from scarfrel.specfile import load_spec

from helpers import (
    BINARY_NINE,
    MULTI_EXTRA,
    MULTI_NINE,
    PLANAR_GENS,
    MemoSpy,
    bench_corpus_specs,
    exact_face_bounds,
    exact_orthant,
    exact_tails,
    full_scan_reliability,
    reference_face_codes,
    reference_faces,
    reference_net_counts,
    random_points_for,
    random_system,
    tuple_walk_bounds,
)

PLANAR = MonomialIdeal(2, PLANAR_GENS)
LAYER_R20 = Path(__file__).resolve().parent / "specs" / "layer_r20.json"

MULTI_TABLES = (
    (0.125, 0.25, 0.25, 0.375),
    (0.0625, 0.1875, 0.375, 0.375),
    (0.25, 0.25, 0.25, 0.25),
    (0.1875, 0.25, 0.3125, 0.25),
)


def planar_system():
    return CoherentSystem(
        (
            Component("a", 4, (0.125, 0.125, 0.25, 0.5)),
            Component("b", 4, (0.25, 0.25, 0.25, 0.25)),
        )
    )


def multi_system():
    return CoherentSystem(
        tuple(
            Component(f"c{i + 1}", 4, table) for i, table in enumerate(MULTI_TABLES)
        )
    )


class TestReliabilityIdentity:
    def test_planar_hand_sum(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        s0, s1 = system.survival_table
        expected = (
            s0[3] * s1[0]
            + s0[2] * s1[2]
            + s0[0] * s1[3]
            - s0[3] * s1[2]
            - s0[2] * s1[3]
        )
        assert reliability_identity(system, cx) == expected

    def test_planar_matches_brute_force(self):
        system = planar_system()
        value = reliability_identity(system, scarf_complex(PLANAR))
        assert value == brute_force_reliability(system, PLANAR)

    def test_taylor_route_agrees(self):
        system = planar_system()
        scarf = reliability_identity(system, scarf_complex(PLANAR))
        taylor = reliability_identity(system, taylor_complex(PLANAR))
        assert scarf == pytest.approx(taylor, abs=1e-12)

    def test_whole_ring_ideal_gives_one(self):
        system = planar_system()
        ideal = MonomialIdeal(2, ((0, 0),))
        assert reliability_identity(system, scarf_complex(ideal)) == 1.0
        assert brute_force_reliability(system, ideal) == 1.0

    def test_dimension_mismatch(self):
        system = CoherentSystem((Component("a", 4, (0.25, 0.25, 0.25, 0.25)),))
        with pytest.raises(DimensionMismatchError):
            reliability_identity(system, scarf_complex(PLANAR))

    def test_multistate_reference_value(self):
        # eleven-generator ideal; identity and enumeration agree exactly
        ideal = minimalize(MULTI_NINE + MULTI_EXTRA)
        system = multi_system()
        cx = deform_and_scarf(ideal)
        value = reliability_identity(system, cx)
        assert value == 0.353759765625
        assert value == brute_force_reliability(system, ideal)


class TestDepthBounds:
    def test_prefixes_equal_fresh_fsum(self):
        # Each bound must be the very float a fresh fsum over the signed
        # terms of its faces gives, and the deepest must be the identity.
        rng = random.Random(7)
        kinds = set()
        for _ in range(60):
            system = random_system(rng)
            ideal = minimalize(random_points_for(rng, system))
            scarf = scarf_complex(ideal) if is_generic(ideal) else deform_and_scarf(ideal)
            for cx in (scarf, taylor_complex(ideal)):
                kinds.add(cx.kind)
                bounds = depth_bounds(system, cx)
                assert [b.depth for b in bounds] == list(range(1, cx.max_cardinality() + 1))
                for b in bounds:
                    expected = math.fsum(
                        orthant_prob(system, f.label) * (1 if f.cardinality % 2 else -1)
                        for f in cx.faces
                        if f.cardinality <= b.depth
                    )
                    assert b.value == expected
                    assert b.kind == ("upper" if b.depth % 2 else "lower")
                    assert depth_bounds(system, cx, b.depth) == bounds[: b.depth]
                assert bounds[-1].value == reliability_identity(system, cx)
        assert kinds == {"scarf", "scarf_deformed", "taylor"}

    def test_depth_out_of_range(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        for depth in (0, -1, cx.max_cardinality() + 1):
            with pytest.raises(ValueError, match=f"1..2 for this complex, got {depth}"):
                depth_bounds(system, cx, depth)

    def test_dimension_mismatch(self):
        system = CoherentSystem((Component("a", 4, (0.25, 0.25, 0.25, 0.25)),))
        with pytest.raises(DimensionMismatchError):
            depth_bounds(system, scarf_complex(PLANAR))


class TestLabelCache:
    def test_inclusion_exclusion_evaluates_each_label_once(self):
        cx = taylor_complex(PLANAR)  # {1, 3} and {1, 2, 3} share (3, 3)
        system = planar_system()
        calls = []

        def orthant(label):
            calls.append(label)
            return orthant_prob(system, label)

        value = inclusion_exclusion(cx, orthant)
        assert sorted(calls) == sorted({f.label for f in cx.faces})
        assert len(calls) < len(cx.faces)
        assert value == reliability_identity(system, cx)

    def test_build_report_forms_each_half_once(self, monkeypatch):
        cx = deform_and_scarf(MonomialIdeal(8, BINARY_NINE), 10)
        system = CoherentSystem(
            tuple(Component(f"c{i + 1}", 2, (0.3, 0.7)) for i in range(8))
        )
        spy = MemoSpy(monkeypatch)
        report = build_report(system, cx)
        assert report.bounds == exact_face_bounds(system, cx)
        face_codes = reference_face_codes(cx, cx.ideal._packed[0])
        spy.assert_one_table_forms_each_half_once(cx.ideal, face_codes)
        assert len(spy.formed) < len(set(face_codes)) < len(cx.faces)


class TestSharedOrthantTable:
    """The packed codes and orthant units live in one slot per system, keyed by the ideal."""

    @staticmethod
    def complex_of(ideal):
        return scarf_complex(ideal) if is_generic(ideal) else deform_and_scarf(ideal)

    def test_systems_and_ideals_in_sequence_give_no_stale_values(self):
        rng = random.Random(16)
        levels = (3, 4, 3)

        def system(seed):
            rows = random.Random(seed)
            components = []
            for i, n in enumerate(levels):
                weights = [rows.randint(1, 9) for _ in range(n)]
                components.append(Component(f"c{i}", n, tuple(w / sum(weights) for w in weights)))
            return CoherentSystem(tuple(components))

        systems = [system(seed) for seed in range(3)]
        ideals = [
            minimalize(tuple(rng.randrange(n) for n in levels) for _ in range(6))
            for _ in range(3)
        ]
        # same ideal under other systems, other ideals under one system, equal
        # but distinct ideals, and returns to an earlier pair
        pairs = [(s, i) for s in range(3) for i in range(3)] + [(0, 0), (1, 0), (0, 2), (0, 0)]
        pairs += [(rng.randrange(3), rng.randrange(3)) for _ in range(20)]
        for s, i in pairs:
            used, ideal = systems[s], ideals[i]
            twin = MonomialIdeal(ideal.dimension, ideal.generators)
            cx = self.complex_of(twin if rng.random() < 0.5 else ideal)
            fresh = system(s)
            assert subset_bounds(used, ideal) == tuple_walk_bounds(fresh, ideal)
            assert depth_bounds(used, cx) == depth_bounds(system(s), self.complex_of(twin))
            assert reliability_identity(used, cx) == tuple_walk_bounds(fresh, ideal)[-1].value
            assert (used, hash(used), repr(used)) == (fresh, hash(fresh), repr(fresh))

    def test_bounds_and_subsets_of_one_call_share_one_table(self, monkeypatch):
        system, ideal = multi_system(), minimalize(MULTI_NINE + MULTI_EXTRA)
        cx = deform_and_scarf(ideal)
        spy = MemoSpy(monkeypatch)
        assert depth_bounds(system, cx) == exact_face_bounds(system, cx)
        assert subset_bounds(system, ideal, 3) == tuple_walk_bounds(system, ideal, 3)
        assert reliability_identity(system, cx) == exact_face_bounds(system, cx)[-1].value
        codes = ideal._packed[0]
        subsets = analysis._subset_label_counts(codes, 3)
        spy.assert_one_table_forms_each_half_once(
            ideal, [*reference_face_codes(cx, codes), *itertools.chain.from_iterable(subsets)]
        )
        depth_bounds(multi_system(), cx)  # another system: its own slot
        subset_bounds(system, minimalize(MULTI_NINE))  # another ideal: the slot is replaced
        depth_bounds(system, cx)
        assert len(spy.tables) == 4


def fresh_fsums(levels, values):
    """Per depth k, math.fsum of the expanded signed terms of levels 1..k."""
    terms, sums = [], []
    for s, level in enumerate(levels, start=1):
        for label, n in level:
            terms += [values[label] if s % 2 else -values[label]] * n
        sums.append(math.fsum(terms))
    return sums


@st.composite
def fold_cases(draw):
    """Up to five levels of (label, count) over labels with any finite value."""
    values = draw(
        st.lists(
            st.one_of(
                st.floats(-1e300, 1e300, allow_nan=False),
                st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 0.1]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    labels = st.integers(0, len(values) - 1)
    levels = draw(
        st.lists(
            st.lists(st.tuples(labels, st.integers(1, 4)), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    return levels, values


def unit_sums(levels, evaluate):
    """Per level, the exact sum of count * value over its (label, count) pairs in
    units of 2**-1074, each label's value read once through ``analysis._Units``."""
    units = analysis._Units(evaluate)
    return [sum(n * units[label] for label, n in level) for level in levels]


class TestExactFold:
    @settings(max_examples=300, deadline=None)
    @given(fold_cases())
    @example(([[(0, 1), (1, 3)], [(2, 2)], [(0, 1)]], [0.0, 5e-324, 1e-310]))
    @example(([[(0, 3)], [(1, 1), (0, 2)]], [0.1, 0.7]))
    @example(([[(0, 1)], [(0, 1)]], [0.0]))
    def test_each_depth_equals_a_fresh_fsum(self, case):
        levels, values = case
        bounds = analysis._fold_bounds(unit_sums(levels, values.__getitem__), analysis._UNIT)
        assert [b.value for b in bounds] == fresh_fsums(levels, values)
        assert [b.kind for b in bounds] == [
            "upper" if k % 2 else "lower" for k in range(1, len(levels) + 1)
        ]

    @pytest.mark.parametrize(
        "evaluate",
        [lambda label: Fraction(1, 3), lambda label: 3 ** (sum(label) + 33)],
        ids=["fraction", "int"],
    )
    def test_evaluator_values_are_read_as_floats(self, evaluate):
        # 1/3 and 3**36.. are not floats; fsum and the fold both round them once first
        cx = taylor_complex(PLANAR)
        expected = math.fsum(
            evaluate(f.label) * (1 if f.cardinality % 2 else -1) for f in cx.faces
        )
        assert inclusion_exclusion(cx, evaluate) == expected

    @pytest.mark.parametrize("p", [0.1, 1 / 3, 5e-324])
    def test_huge_count_folds_without_a_list(self, p):
        # [p] * 2**62 cannot be built; fsum would round the exact 2**62 * p
        for n in (2**62, 2**62 + 1):
            [bound] = analysis._fold_bounds(unit_sums([[("x", n)]], lambda label: p), analysis._UNIT)
            assert bound.value == float(Fraction(p) * n)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_value_names_its_label(self, bad):
        cx = taylor_complex(PLANAR)
        with pytest.raises(ValueError) as err:
            inclusion_exclusion(cx, lambda label: bad if label == (3, 3) else 0.5)
        assert str(err.value) == f"orthant of label (3, 3) is {bad!r}, not a finite number"


class TestTubeBounds:
    def test_depth_max_equals_identity(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        bound = tube_bounds(system, cx, cx.max_cardinality())
        assert bound.value == reliability_identity(system, cx)

    def test_parity_kinds(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        assert tube_bounds(system, cx, 1).kind == "upper"
        assert tube_bounds(system, cx, 2).kind == "lower"

    def test_depth_out_of_range(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        with pytest.raises(ValueError):
            tube_bounds(system, cx, 0)
        with pytest.raises(ValueError):
            tube_bounds(system, cx, cx.max_cardinality() + 1)

    def test_depth_one_is_union_bound(self):
        system = planar_system()
        cx = scarf_complex(PLANAR)
        s0, s1 = system.survival_table
        singles = [s0[g[0]] * s1[g[1]] for g in PLANAR.generators]
        assert tube_bounds(system, cx, 1).value == pytest.approx(
            sum(singles), abs=1e-12
        )


class TestBonferroniBounds:
    def test_requires_full_subset_complex(self):
        system = planar_system()
        with pytest.raises(ValueError, match="full subset"):
            bonferroni_bounds(system, scarf_complex(PLANAR), 1)

    def test_full_depth_equals_identity(self):
        system = planar_system()
        ty = taylor_complex(PLANAR)
        bound = bonferroni_bounds(system, ty, len(PLANAR.generators))
        assert bound.value == pytest.approx(
            brute_force_reliability(system, PLANAR), abs=1e-12
        )


@st.composite
def subset_walk_cases(draw):
    """A system with dyadic or non-dyadic rows and an ideal of at most 10 generators.

    Generic draws permute distinct exponents in every coordinate; the
    others draw from a narrow range, so exponent ties are common.  Taylor
    labels repeat in both (a label shared by a face and its superset).
    """
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, 10))
    if draw(st.booleans()):
        levels = [r + 1] * d
        columns = [draw(st.permutations(range(1, r + 1))) for _ in range(d)]
        points = list(zip(*columns))
    else:
        levels = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
        point = st.tuples(*(st.integers(0, n - 1) for n in levels))
        points = draw(st.lists(point, min_size=1, max_size=r))
    dyadic = draw(st.booleans())
    rows = []
    for n in levels:
        if dyadic:  # cuts of 0..64 into n parts: every entry exact in binary
            inner = draw(st.sets(st.integers(1, 63), min_size=n - 1, max_size=n - 1))
            cuts = [0, *sorted(inner), 64]
            rows.append(tuple((b - a) / 64 for a, b in zip(cuts, cuts[1:])))
        else:
            weights = draw(st.lists(st.integers(1, 97), min_size=n, max_size=n))
            rows.append(tuple(w / sum(weights) for w in weights))
    system = CoherentSystem(
        tuple(Component(f"c{i}", len(row), row) for i, row in enumerate(rows))
    )
    return system, minimalize(points)


def packed_label(gens, label) -> int:
    """The walk's integer code of an lcm label: rank i of coordinate k is a
    run of i one-bits, placed after the fields of the coordinates before k."""
    code, shift = 0, 0
    for column, value in zip(zip(*gens), label):
        held = sorted(set(column))
        code |= ((1 << held.index(value)) - 1) << shift
        shift += len(held) - 1
    return code


class TestFaceCodeRoute:
    """``depth_bounds`` folds packed lcm codes; the labels are derived apart."""

    @settings(max_examples=150, deadline=None)
    @given(subset_walk_cases())
    @example((multi_system(), minimalize(MULTI_NINE + MULTI_EXTRA)))
    @example((planar_system(), PLANAR))
    def test_every_depth_equals_the_exact_sum_rounded_once(self, case):
        system, ideal = case
        system = CoherentSystem(system.components)  # an example's system may hold a table
        builds = [taylor_complex, deform_and_scarf]
        if is_generic(ideal):
            builds.append(scarf_complex)
        gens = ideal.generators
        face_codes = []
        with pytest.MonkeyPatch.context() as mp:
            spy = MemoSpy(mp)
            for build in builds:
                cx = build(ideal)
                assert [f.members for f in cx.faces] == list(cx.member_tuples)
                for f in cx.faces:
                    assert f.label == lcm(gens[i - 1] for i in f.members)
                expected = [b.value.hex() for b in exact_face_bounds(system, cx)]
                for k in range(1, cx.max_cardinality() + 1):
                    assert [b.value.hex() for b in depth_bounds(system, cx, k)] == expected[:k]
                face_codes += reference_face_codes(cx, ideal._packed[0])
        spy.assert_one_table_forms_each_half_once(ideal, face_codes)


@st.composite
def dimension_cases(draw, d):
    """A system of d components with non-dyadic rows and an ideal of at most 9 generators."""
    levels = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    point = st.tuples(*(st.integers(0, n - 1) for n in levels))
    points = draw(st.lists(point, min_size=1, max_size=9))
    rows = []
    for n in levels:
        weights = draw(st.lists(st.integers(1, 97), min_size=n, max_size=n))
        rows.append(tuple(w / sum(weights) for w in weights))
    system = CoherentSystem(tuple(Component(f"c{i}", len(row), row) for i, row in enumerate(rows)))
    return system, minimalize(points)


def assert_codes_and_orthants_bit_for_bit(system, cx, order):
    """The complex's face codes equal their per-face reference, each orthant met in
    ``order`` is its label's exact orthant, and every depth bound is the exact sum
    rounded once; the one table of a fresh system forms each half once."""
    system = CoherentSystem(system.components)
    codes = _lcm_codes(cx.ideal.generators)[0]
    face_codes = reference_face_codes(cx, codes)
    assert list(itertools.chain.from_iterable(cx._lcm)) == face_codes
    label_of = dict(zip(face_codes, (f.label for f in reference_faces(cx))))
    tails = exact_tails(system)
    expected = [b.value.hex() for b in exact_face_bounds(system, cx)]
    with pytest.MonkeyPatch.context() as mp:
        spy = MemoSpy(mp)
        orthants = analysis._packed_units(system, cx.ideal)
        for code in order(list(label_of)):
            value = Fraction(orthants.level_sum([code]), orthants.unit)
            assert value == exact_orthant(tails, label_of[code])
        for k in range(1, cx.max_cardinality() + 1):
            assert [b.value.hex() for b in depth_bounds(system, cx, k)] == expected[:k]
    spy.assert_one_table_forms_each_half_once(cx.ideal, face_codes)


class TestSharedCodesAndPrefixMemo:
    """One code list per complex, and exact orthants that memoize the products over
    their first d // 2 coordinates and over the rest, against the per-face loop and
    the exact reference."""

    # d = 1 has an empty head, d = 2 one coordinate per half, d = 3 and 9 split unevenly.
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_depth_and_orthant(self, d, data):
        system, ideal = data.draw(dimension_cases(d))
        builds = [taylor_complex, deform_and_scarf]
        if is_generic(ideal):
            builds.append(scarf_complex)
        for build in builds:
            shuffle = lambda codes: data.draw(st.permutations(codes))  # noqa: E731
            assert_codes_and_orthants_bit_for_bit(system, build(ideal), shuffle)

    def test_deep_complex_reads_shared_prefixes(self):
        spec = load_spec(str(Path(__file__).resolve().parent / "specs" / "deep_d8_r12.json"))
        ideal = minimalize(spec.points)
        cx = deform_and_scarf(ideal)
        codes, fields = _lcm_codes(ideal.generators)
        distinct = set(reference_face_codes(cx, codes))
        low = (1 << fields[4][0]) - 1  # fields 0..3 of 8
        assert len({code & low for code in distinct}) < len(distinct)  # memo entries are shared
        for seed in range(3):
            assert_codes_and_orthants_bit_for_bit(
                spec.system, cx, lambda codes: random.Random(seed).sample(codes, len(codes))
            )


class TestSubsetBounds:
    @settings(max_examples=150, deadline=None)
    @given(subset_walk_cases())
    @example((multi_system(), minimalize(MULTI_NINE + MULTI_EXTRA)))
    @example((planar_system(), PLANAR))
    def test_equals_taylor_route_bit_for_bit(self, case):
        system, ideal = case
        taylor = taylor_complex(ideal)
        r = len(ideal.generators)
        codes = _lcm_codes(ideal.generators)[0]
        for k in range(1, r + 1):
            assert subset_bounds(system, ideal, k) == depth_bounds(system, taylor, k)
            walked = analysis._subset_label_counts(codes, k)
            assert walked == [
                Counter(
                    packed_label(ideal.generators, f.label)
                    for f in taylor.faces
                    if f.cardinality == s
                )
                for s in range(1, k + 1)
            ]
        full = subset_bounds(system, ideal)
        assert len(full) == r
        assert full[-1].value == reliability_identity(system, taylor)

    @settings(max_examples=150, deadline=None)
    @given(subset_walk_cases())
    def test_equals_tuple_walk(self, case):
        system, ideal = case
        for k in range(1, len(ideal.generators) + 1):
            assert subset_bounds(system, ideal, k) == tuple_walk_bounds(system, ideal, k)

    def test_layer_at_the_cap_equals_tuple_walk(self):
        # r = 20, d = 3, 10 levels: every one of the 2^20 - 1 subsets at depth 20
        spec = load_spec(str(LAYER_R20))
        ideal = minimalize(spec.points)
        assert len(ideal.generators) == 20
        assert subset_bounds(spec.system, ideal) == tuple_walk_bounds(spec.system, ideal)

    def test_many_levels_pack_only_the_held_ranks(self):
        # Ranks, not raw levels, are packed, so a million levels cost a few
        # bits per coordinate, and the float survival table is never filled.
        rng = random.Random(11)
        levels = 10**6
        probs = (1 / levels,) * levels
        system = CoherentSystem((Component("a", levels, probs), Component("b", levels, probs)))
        xs = sorted(rng.sample(range(levels), 12))
        ys = sorted(rng.sample(range(levels), 12), reverse=True)
        ideal = minimalize(list(zip(xs, ys)))
        assert len(ideal.generators) == 12
        assert max(ideal._packed[0]).bit_length() <= 2 * 11
        assert subset_bounds(system, ideal) == tuple_walk_bounds(system, ideal)
        assert "survival_table" not in vars(system)


    def test_depth_out_of_range(self):
        system = planar_system()
        for depth in (0, -1, 4):
            with pytest.raises(ValueError, match=f"1..3 for this complex, got {depth}"):
                subset_bounds(system, PLANAR, depth)

    def test_dimension_mismatch(self):
        system = CoherentSystem((Component("a", 4, (0.25, 0.25, 0.25, 0.25)),))
        with pytest.raises(DimensionMismatchError):
            subset_bounds(system, PLANAR)

    @staticmethod
    def staircase(r):
        """Two components of r levels, non-dyadic, and the r-point antichain i + j = r - 1."""
        probs = tuple(w / (r * (r + 1) // 2) for w in range(1, r + 1))
        system = CoherentSystem((Component("a", r, probs), Component("b", r, probs)))
        return system, minimalize([(i, r - 1 - i) for i in range(r)])

    def test_more_subsets_than_the_largest_taylor_complex_are_refused(self, monkeypatch):
        # r = 21 at full depth sums 2^21 - 1 subsets; the cap is the 2^20 - 1
        # faces of the Taylor complex of TAYLOR_GENERATOR_CAP = 20 generators
        system, ideal = self.staircase(21)
        walks = []
        monkeypatch.setattr(analysis, "_subset_label_counts", lambda *args: walks.append(args))
        for depth in (None, 20):
            with pytest.raises(ComplexSizeError, match=r"subsets; cap is 1048575$"):
                subset_bounds(system, ideal, depth)
        assert walks == []

    def test_a_shallow_depth_over_many_generators_equals_tuple_walk(self):
        # r = 40 at depth 2 sums 820 subsets, far inside the cap
        system, ideal = self.staircase(40)
        assert subset_bounds(system, ideal, 2) == tuple_walk_bounds(system, ideal, 2)


class TestDepthBound:
    def test_constructor_takes_no_side(self):
        assert DepthBound._fields == ("depth", "value")
        with pytest.raises(TypeError):
            DepthBound(depth=1, value=0.5, kind="upper")
        assert [DepthBound(k, 0.5).kind for k in (1, 2, 3, 4)] == [
            "upper", "lower", "upper", "lower"
        ]


@st.composite
def oracle_cases(draw):
    """Probability rows (weights over a non-power-of-two total) and raw points.

    Points range over the whole grid, so generators with last coordinate 0,
    the all-zero generator and generators at the top level all occur.
    """
    d = draw(st.integers(1, 8))
    rows = []
    # up to eight coordinates give rows of width 2 and both running-minimum slice forms
    most = 4 if d <= 5 else 3
    for levels in draw(st.lists(st.integers(2, most), min_size=d, max_size=d)):
        weights = draw(st.lists(st.integers(1, 97), min_size=levels, max_size=levels))
        rows.append(tuple(w / sum(weights) for w in weights))
    point = st.tuples(*(st.integers(0, len(row) - 1) for row in rows))
    return tuple(rows), tuple(draw(st.lists(point, min_size=1, max_size=8)))


class TestBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    @example((((0.3, 0.7), (0.2, 0.5, 0.3)), ((0, 0),)))
    @example((((0.1, 0.6, 0.3), (0.3, 0.7), (0.4, 0.35, 0.25)), ((2, 1, 0), (0, 1, 1))))
    @example((((0.1, 0.2, 0.7),), ((2,),)))
    @example((((0.1, 0.9), (0.3, 0.3, 0.4), (0.6, 0.4)), ((1, 2, 1),)))
    # two points sharing their first d - 1 coordinates: only the lower one generates
    @example(
        (((0.2, 0.8), (0.3, 0.3, 0.4), (0.1, 0.5, 0.4)), ((1, 2, 2), (1, 2, 1), (0, 1, 2)))
    )
    # a generator at the origin prefix, so every prefix has a threshold
    @example((((0.3, 0.7), (0.2, 0.5, 0.3), (0.5, 0.25, 0.25)), ((0, 0, 2), (1, 1, 1))))
    # one component: its only prefix is empty
    @example((((0.3, 0.3, 0.4),), ((1,),)))
    # eight binary components: rows of width 2, contiguous and stepped slices
    @example(
        (
            ((0.25, 0.75),) * 8,
            ((1, 0, 0, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0, 0, 1)),
        )
    )
    def test_equals_full_scan_bit_for_bit(self, case):
        rows, points = case
        system = CoherentSystem(
            tuple(Component(f"c{i}", len(row), row) for i, row in enumerate(rows))
        )
        ideal = minimalize(points)
        assert brute_force_reliability(system, ideal) == full_scan_reliability(
            system, ideal
        )

    def test_peak_memory_is_one_int_per_prefix(self):
        # 2**15 prefixes and 2**16 - 1 states in the ideal: a list of the
        # terms or one dict entry per prefix would each take over 2 MB
        d = 16
        system = CoherentSystem(tuple(Component(f"c{i}", 2, (0.375, 0.625)) for i in range(d)))
        ideal = MonomialIdeal(d, tuple(tuple(int(i == k) for i in range(d)) for k in range(d)))
        tracemalloc.start()
        try:
            value = brute_force_reliability(system, ideal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1 - 0.375**d
        assert peak < 2_000_000

    def test_state_cap(self, monkeypatch):
        system = planar_system()
        monkeypatch.setattr(analysis, "STATE_CAP", 10)
        with pytest.raises(ValueError, match="^state space has 16 states, above the cap 10$"):
            brute_force_reliability(system, PLANAR)

    def test_single_component(self):
        system = CoherentSystem((Component("a", 4, (0.125, 0.375, 0.25, 0.25)),))
        ideal = MonomialIdeal(1, ((2,),))
        assert brute_force_reliability(system, ideal) == 0.5

    def test_dimension_mismatch(self):
        system = CoherentSystem((Component("a", 4, (0.25, 0.25, 0.25, 0.25)),))
        with pytest.raises(DimensionMismatchError) as err:
            brute_force_reliability(system, PLANAR)
        assert str(err.value) == "system has 1 components but the ideal is over 2 coordinates"


class TestBuildReport:
    def test_fields_multistate(self):
        system = multi_system()
        cx = deform_and_scarf(MonomialIdeal(4, MULTI_NINE), 10)
        report = build_report(system, cx)
        assert report.term_count == 31
        assert report.baseline_term_count == 2**9 - 1
        assert len(report.bounds) == cx.max_cardinality()
        kinds = [b.kind for b in report.bounds]
        assert kinds == ["upper", "lower"] * (len(kinds) // 2) + (
            ["upper"] if len(kinds) % 2 else []
        )
        assert report.bounds[-1].value == report.identity_value
        assert report.oracle_value == report.identity_value
        assert len(report.terms) == 31

    def test_oracle_skipped_above_cap(self, monkeypatch):
        system = planar_system()
        expected = brute_force_reliability(system, PLANAR)
        monkeypatch.setattr(analysis, "STATE_CAP", 10)
        report = build_report(system, scarf_complex(PLANAR))
        assert report.oracle_value is None
        assert report.identity_value == pytest.approx(expected, abs=1e-12)

    def test_inconsistent_complex_rejected(self):
        # correctly labeled singletons without their pair are not a support:
        # the identity double counts the corner, 0.75 + 0.75 = 1.5
        ideal = MonomialIdeal(2, ((1, 0), (0, 1)))
        cx = LabeledComplex(ideal=ideal, members=[(1,), (2,)], kind="scarf_deformed")
        system = CoherentSystem(
            (Component("a", 2, (0.25, 0.75)), Component("b", 2, (0.25, 0.75)))
        )
        assert reliability_identity(system, cx) == 1.5
        with pytest.raises(RuntimeError, match="outside"):
            build_report(system, cx)


class TestBoundsCorpus:
    def test_bracketing_tightness_monotonicity(self):
        rng = random.Random(99)
        for _ in range(100):
            system = random_system(rng)
            ideal = minimalize(random_points_for(rng, system))
            cx = deform_and_scarf(ideal)
            r = len(ideal.generators)
            exact = brute_force_reliability(system, ideal)
            scarf_bounds = [
                tube_bounds(system, cx, m)
                for m in range(1, cx.max_cardinality() + 1)
            ]
            for b in scarf_bounds:
                if b.kind == "upper":
                    assert b.value >= exact - 1e-12
                else:
                    assert b.value <= exact + 1e-12
            for near, far in zip(scarf_bounds, scarf_bounds[2:]):
                if near.kind == "upper":
                    assert far.value <= near.value + 1e-12
                else:
                    assert far.value >= near.value - 1e-12
            ty = taylor_complex(ideal)
            taylor_bounds = [
                bonferroni_bounds(system, ty, m) for m in range(1, r + 1)
            ]
            for b in taylor_bounds:
                if b.kind == "upper":
                    assert b.value >= exact - 1e-12
                else:
                    assert b.value <= exact + 1e-12
            for m in range(1, min(cx.max_cardinality(), r) + 1):
                tube = scarf_bounds[m - 1]
                bonf = taylor_bounds[m - 1]
                if tube.kind == "upper":
                    assert tube.value <= bonf.value + 1e-12
                else:
                    assert tube.value >= bonf.value - 1e-12


@st.composite
def exact_cases(draw):
    """A system of 1..4 components whose rows are dyadic, non-dyadic (w / sum(weights)),
    hold 5e-324 or 1e-310, or are 0.0/1.0 point masses (denominator 2**0), and an
    ideal of at most 8 generators, in which one coordinate may hold one value (a
    field of width 0)."""
    d = draw(st.integers(1, 4))
    levels = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    rows = []
    for n in levels:
        kind = draw(st.sampled_from(["dyadic", "weights", "subnormal", "mass"]))
        if kind == "dyadic":
            inner = draw(st.sets(st.integers(1, 63), min_size=n - 1, max_size=n - 1))
            cuts = [0, *sorted(inner), 64]
            row = [(b - a) / 64 for a, b in zip(cuts, cuts[1:])]
        elif kind == "weights":
            weights = draw(st.lists(st.integers(1, 97), min_size=n, max_size=n))
            row = [w / sum(weights) for w in weights]
        elif kind == "subnormal":  # 1.0 - tiny rounds to 1.0; the row sums to 1 within tolerance
            tiny = draw(st.sampled_from([5e-324, 1e-310]))
            row = [tiny] * (n - 1) + [1.0 - tiny]
        else:
            row = [0.0] * (n - 1) + [1.0]
        rows.append(tuple(draw(st.permutations(row))))
    system = CoherentSystem(tuple(Component(f"c{i}", n, row) for i, (n, row) in enumerate(zip(levels, rows))))
    points = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in levels)), min_size=1, max_size=8))
    if draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        held = draw(st.integers(0, levels[k] - 1))
        points = [(*p[:k], held, *p[k + 1:]) for p in points]
    return system, minimalize(points)


def assert_exact_values(system, ideal, taylor_cap=14):
    """Every packed route's value is the exact sum of exact tails over its faces or
    subsets, rounded once: ``depth_bounds``, ``_code_bounds``,
    ``reliability_identity``, ``subset_bounds`` and ``compare``'s values."""
    v = _route(ideal, None)
    cx = scarf_complex(ideal) if v is None else deform_and_scarf(ideal, v)
    scarf = [b.value.hex() for b in exact_face_bounds(system, cx)]
    assert [b.value.hex() for b in depth_bounds(system, cx)] == scarf
    runs = _scarf_codes(ideal, v)
    assert [b.value.hex() for b in analysis._code_bounds(system, ideal, runs)] == scarf
    assert reliability_identity(system, cx).hex() == scarf[-1]
    if len(ideal.generators) <= taylor_cap:
        taylor = taylor_complex(ideal)
        bonferroni = [b.value.hex() for b in tuple_walk_bounds(system, ideal)]
        assert [b.value.hex() for b in exact_face_bounds(system, taylor)] == bonferroni
        assert [b.value.hex() for b in depth_bounds(system, taylor)] == bonferroni
        assert [b.value.hex() for b in subset_bounds(system, ideal)] == bonferroni
        values = _cross_check(system, ideal, runs)
        assert values["scarf"].hex() == values["taylor"].hex() == scarf[-1] == bonferroni[-1]


class TestExactValues:
    """Each value is the correctly rounded value of the spec's own rationals."""

    @settings(max_examples=200, deadline=None)
    @given(exact_cases())
    @example((CoherentSystem((Component("a", 2, (5e-324, 1.0)),)), minimalize([(1,)])))
    @example((multi_system(), minimalize(MULTI_NINE + MULTI_EXTRA)))
    def test_hypothesis_systems(self, case):
        assert_exact_values(*case)

    def test_bench_corpora(self, tmp_path):
        for path in bench_corpus_specs(tmp_path):
            spec = load_spec(str(path))
            assert_exact_values(spec.system, _ideal(spec))


def assert_net_identity_bit_for_bit(system, ideal, taylor_cap=14):
    """The identity from the Scarf walk's codes equals the deepest depth bound of the
    complex, the exact sum rounded once and, up to ``taylor_cap`` generators, the
    deepest subset bound, bit for bit; the Scarf walk and the subset levels have one
    net map, so their exact sums are one rational."""
    generic = is_generic(ideal)
    v = None if generic else len(ideal.generators) + 1
    cx = scarf_complex(ideal) if generic else deform_and_scarf(ideal, v)
    runs = _scarf_codes(ideal, v)
    value = analysis._code_bounds(system, ideal, runs)[-1].value.hex()
    assert value == depth_bounds(system, cx)[-1].value.hex()
    assert value == reliability_identity(system, cx).hex()
    assert value == exact_face_bounds(system, cx)[-1].value.hex()
    r = len(ideal.generators)
    if r <= taylor_cap:
        levels = analysis._subset_label_counts(ideal._packed[0], r)
        assert reference_net_counts(levels) == reference_net_counts(map(Counter, runs))
        assert analysis._code_bounds(system, ideal, levels)[-1].value.hex() == value
        assert subset_bounds(system, ideal)[-1].value.hex() == value


class TestNetIdentity:
    """Every supporting complex has the same net count per code (the Hilbert
    numerator, label by label), so the exact identity of each route is one
    rational and its value one float."""

    @settings(max_examples=150, deadline=None)
    @given(subset_walk_cases())
    def test_equals_the_deepest_bounds(self, case):
        assert_net_identity_bit_for_bit(*case)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_the_deepest_bounds_by_dimension(self, d, data):
        assert_net_identity_bit_for_bit(*data.draw(dimension_cases(d)))

    def test_bench_corpora(self, tmp_path):
        for path in bench_corpus_specs(tmp_path):
            spec = load_spec(str(path))
            assert_net_identity_bit_for_bit(spec.system, _ideal(spec))

    def test_taylor_and_scarf_share_one_table(self, monkeypatch):
        # {1, 3} and {1, 2, 3} of PLANAR share the label (3, 3): its net count is 0
        system, taylor, scarf = planar_system(), taylor_complex(PLANAR), scarf_complex(PLANAR)
        spy = MemoSpy(monkeypatch)
        value = reliability_identity(system, taylor)
        assert value == reliability_identity(system, scarf) == exact_face_bounds(system, taylor)[-1].value
        codes = PLANAR._packed[0]
        subsets = [c | d for c, d in itertools.combinations(codes, 2)] + [codes[0] | codes[1] | codes[2]]
        spy.assert_one_table_forms_each_half_once(PLANAR, [*codes, *subsets])

    def test_dimension_mismatch(self):
        system = CoherentSystem((Component("a", 4, (0.25, 0.25, 0.25, 0.25)),))
        with pytest.raises(DimensionMismatchError):
            analysis._code_bounds(system, PLANAR, [[0]])
