import pytest
from hypothesis import given, strategies as st

from scarfrel import (
    ContinuousSpec,
    DimensionMismatchError,
    MonomialIdeal,
    ProfitSpec,
    contains,
    deform_and_scarf,
    divides,
    is_generic,
    lcm,
    minimal_points_from_profit,
    minimalize,
    nongeneric_witness,
    quantize,
)

from helpers import MULTI_NINE, MULTI_NINE_FACES, assert_ideal_passes_the_public_check


@st.composite
def vector_pairs(draw, max_d=5, max_coord=7):
    d = draw(st.integers(1, max_d))
    coords = st.integers(0, max_coord)
    a = tuple(draw(st.lists(coords, min_size=d, max_size=d)))
    b = tuple(draw(st.lists(coords, min_size=d, max_size=d)))
    return a, b


@st.composite
def vector_triples(draw, max_d=4, max_coord=6):
    d = draw(st.integers(1, max_d))
    coords = st.integers(0, max_coord)
    return tuple(
        tuple(draw(st.lists(coords, min_size=d, max_size=d))) for _ in range(3)
    )


@st.composite
def generating_sets(draw, max_d=4, max_coord=5, max_points=7):
    d = draw(st.integers(1, max_d))
    coords = st.integers(0, max_coord)
    n = draw(st.integers(1, max_points))
    return [tuple(draw(st.lists(coords, min_size=d, max_size=d))) for _ in range(n)]


@st.composite
def sets_with_repeats(draw, max_d=4, max_coord=4, max_points=8):
    """Generating sets that mix base vectors with repeats and multiples of them."""
    d = draw(st.integers(1, max_d))
    vector = st.lists(st.integers(0, max_coord), min_size=d, max_size=d).map(tuple)
    base = draw(st.lists(vector, min_size=1, max_size=max_points))
    extras = draw(st.lists(st.tuples(st.sampled_from(base), vector, st.booleans()), max_size=max_points))
    mixed = base + [g if repeat else tuple(x + y for x, y in zip(g, step)) for g, step, repeat in extras]
    return draw(st.permutations(mixed))


def pairwise_minimal(vs):
    """Survivors by plain tuple comparisons: first occurrences with no strict divisor."""
    return tuple(
        g
        for i, g in enumerate(vs)
        if g not in vs[:i] and not any(h != g and all(x <= y for x, y in zip(h, g)) for h in vs)
    )


def pairwise_antichain_error(gens):
    """The message of the first (i, j) pair a nested scan rejects, or None."""
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and all(x <= y for x, y in zip(h, g)):
                return f"duplicate generator {g}" if g == h else f"generator {g} is redundant: divisible by {h}"
    return None


class TestDivides:
    def test_basic(self):
        assert divides((3, 0), (3, 2))
        assert not divides((3, 2), (3, 0))
        assert divides((0, 0), (5, 1))
        assert not divides((2, 2), (3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            divides((1, 2), (1, 2, 3))

    @given(vector_pairs())
    def test_antisymmetry(self, pair):
        a, b = pair
        if divides(a, b) and divides(b, a):
            assert a == b

    @given(vector_triples())
    def test_transitivity(self, triple):
        a, b, c = triple
        if divides(a, b) and divides(b, c):
            assert divides(a, c)

    @given(vector_pairs())
    def test_reflexive(self, pair):
        a, _ = pair
        assert divides(a, a)


class TestLcm:
    def test_pairwise(self):
        assert lcm([(3, 0), (2, 2)]) == (3, 2)
        assert lcm([(2, 2), (0, 3)]) == (2, 3)

    def test_multistate_triple(self):
        assert lcm([(1, 1, 2, 2), (1, 2, 1, 3), (0, 3, 1, 3)]) == (1, 3, 2, 3)

    def test_single(self):
        assert lcm([(4, 1, 0)]) == (4, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lcm([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lcm([(1, 2), (1, 2, 3)])

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lcm([(1, 2), (0, -1)])
        with pytest.raises(ValueError, match="integers"):
            lcm([(1.5, 2)])

    @given(vector_pairs())
    def test_commutative_and_absorbs(self, pair):
        a, b = pair
        m = lcm([a, b])
        assert m == lcm([b, a])
        assert divides(a, m) and divides(b, m)

    @given(vector_triples())
    def test_associative(self, triple):
        a, b, c = triple
        assert lcm([lcm([a, b]), c]) == lcm([a, lcm([b, c])])

    @given(vector_pairs())
    def test_idempotent(self, pair):
        a, _ = pair
        assert lcm([a, a]) == a

    @given(vector_pairs())
    def test_least(self, pair):
        # lcm is the least upper bound: any common multiple is above it
        a, b = pair
        m = lcm([a, b])
        upper = tuple(x + 1 for x in m)
        assert divides(m, upper)


class TestMinimalize:
    def test_prunes_redundant(self):
        ideal = minimalize([(3, 0), (2, 2), (0, 3), (3, 1)])
        assert ideal.generators == ((3, 0), (2, 2), (0, 3))

    def test_keeps_first_duplicate(self):
        ideal = minimalize([(1, 2), (1, 2), (2, 1)])
        assert ideal.generators == ((1, 2), (2, 1))

    def test_preserves_input_order(self):
        ideal = minimalize([(0, 3), (3, 0), (2, 2)])
        assert ideal.generators == ((0, 3), (3, 0), (2, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimalize([])

    @pytest.mark.parametrize(
        "gens", [[(1, 2), (1, 2, 3)], [(1, 2, 3), (5, 5)], [(1, 2), (0, 0, 0)]]
    )
    def test_mixed_lengths_rejected(self, gens):
        with pytest.raises(DimensionMismatchError):
            minimalize(gens)

    @given(sets_with_repeats())
    def test_equals_pairwise_reference(self, gens):
        # exact survivors, input order, first duplicate kept
        ideal = minimalize(gens)
        assert ideal.generators == pairwise_minimal(gens)
        assert_ideal_passes_the_public_check(ideal)

    @given(generating_sets())
    def test_idempotent(self, gens):
        once = minimalize(gens)
        twice = minimalize(once.generators)
        assert once.generators == twice.generators
        assert_ideal_passes_the_public_check(twice)

    @given(generating_sets())
    def test_antichain(self, gens):
        ideal = minimalize(gens)
        for i, g in enumerate(ideal.generators):
            for j, h in enumerate(ideal.generators):
                if i != j:
                    assert not divides(g, h)
        assert_ideal_passes_the_public_check(ideal)

    @given(generating_sets())
    def test_same_ideal_generated(self, gens):
        # every pruned vector is still a member of the ideal
        ideal = minimalize(gens)
        for g in gens:
            assert contains(ideal, g)
        assert_ideal_passes_the_public_check(ideal)


class TestMonomialIdealValidation:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MonomialIdeal(2, ((1, 0), (1, 0)))

    def test_redundant_rejected(self):
        with pytest.raises(ValueError, match="redundant"):
            MonomialIdeal(2, ((1, 0), (2, 0)))

    def test_exact_messages(self):
        with pytest.raises(ValueError) as err:
            MonomialIdeal(2, ((2, 1), (0, 3), (1, 1)))
        assert str(err.value) == "generator (2, 1) is redundant: divisible by (1, 1)"
        with pytest.raises(ValueError) as err:
            MonomialIdeal(2, ((1, 0), (0, 1), (1, 0)))
        assert str(err.value) == "duplicate generator (1, 0)"

    @given(sets_with_repeats())
    def test_first_offender_matches_pairwise_scan(self, gens):
        expected = pairwise_antichain_error(gens)
        if expected is None:
            MonomialIdeal(len(gens[0]), tuple(gens))
        else:
            with pytest.raises(ValueError) as err:
                MonomialIdeal(len(gens[0]), tuple(gens))
            assert str(err.value) == expected

    def test_index_is_not_part_of_equality_hash_or_repr(self):
        ideal = MonomialIdeal(2, ((1, 0), (0, 2)))
        assert repr(ideal) == "MonomialIdeal(dimension=2, generators=((1, 0), (0, 2)))"
        assert ideal == MonomialIdeal(2, ((1, 0), (0, 2)))
        assert hash(ideal) == hash((2, ((1, 0), (0, 2))))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, -1),))

    @pytest.mark.parametrize(
        "build, dimension",
        [
            (lambda: MonomialIdeal(0, ((),)), 0),
            (lambda: MonomialIdeal(-1, ((),)), -1),
            # the routines that build ideals unchecked meet zero-length vectors first
            (lambda: minimalize([()]), 0),
            (lambda: quantize(ContinuousSpec(((),), lambda z: 1.0)), 0),
        ],
        ids=["0", "-1", "minimalize", "quantize"],
    )
    def test_dimension_below_one_rejected(self, build, dimension):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"dimension must be >= 1, got {dimension}"

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError) as err:
            MonomialIdeal(2, ())
        assert str(err.value) == "a monomial ideal needs at least one generator"

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal(3, ((1, 0),))

    def test_zero_vector_allowed_alone(self):
        # the whole-ring ideal: every state is a member
        ideal = MonomialIdeal(2, ((0, 0),))
        assert contains(ideal, (0, 0))


class TestTrustedPath:
    """Routines whose generators are a minimal antichain by construction skip the checks."""

    def test_package_routines_skip_the_constructor_checks(self, monkeypatch):
        multi = MonomialIdeal(4, MULTI_NINE)

        def checked(self):
            raise AssertionError("package ideal re-checked")

        monkeypatch.setattr(MonomialIdeal, "__post_init__", checked)
        assert minimalize([(3, 0), (2, 2), (0, 3), (3, 1)]).generators == ((3, 0), (2, 2), (0, 3))
        profit = minimal_points_from_profit(ProfitSpec((1, 1), (), 2), (3, 3))
        assert profit.generators == ((2, 0), (1, 1), (0, 2))
        assert {f.members for f in deform_and_scarf(multi).faces} == set(MULTI_NINE_FACES)
        ideal, _ = quantize(ContinuousSpec(((0.5, 2.0), (1.5, 1.0)), lambda z: 1.0))
        assert ideal.generators == ((0, 1), (1, 0))

    def test_index_is_derived_on_first_use_and_kept(self):
        ideal = minimalize([(3, 0), (2, 2), (0, 3), (3, 1)])
        assert "le" not in vars(ideal)
        assert ideal.le == ({0: 0b100, 2: 0b110, 3: 0b111}, {0: 0b001, 2: 0b011, 3: 0b111})
        assert ideal.le is ideal.le


class TestExponentTypes:
    """Every entry point rejects a non-int coordinate, bools included, as the spec loader does."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: MonomialIdeal(2, (v,)),
            lambda v: minimalize([v, (0, 1)]),
            lambda v: lcm([(0, 2), v]),
            lambda v: contains(MonomialIdeal(2, ((1, 0),)), v),
        ],
        ids=["ideal", "minimalize", "lcm", "contains"],
    )
    @pytest.mark.parametrize(
        "vector, message",
        [
            ((True, 0), "exponent coordinates must be integers, got True"),
            ((1, False), "exponent coordinates must be integers, got False"),
            ((1, 2.0), "exponent coordinates must be integers, got 2.0"),
            ((1, "2"), "exponent coordinates must be integers, got '2'"),
            ((-1, True), "exponent coordinates must be nonnegative, got -1"),
            ((True, -1), "exponent coordinates must be integers, got True"),
        ],
    )
    def test_rejected_with_the_first_offender(self, call, vector, message):
        with pytest.raises(ValueError) as err:
            call(vector)
        assert str(err.value) == message

    def test_plain_ints_pass_unchanged(self):
        assert minimalize([(1, 0), [0, 1]]).generators == ((1, 0), (0, 1))
        assert lcm([(3, 0), (0, 2)]) == (3, 2)
        assert contains(MonomialIdeal(2, ((1, 0),)), [1, 5])


class TestContains:
    def test_planar(self):
        ideal = MonomialIdeal(2, ((3, 0), (2, 2), (0, 3)))
        assert contains(ideal, (3, 0))
        assert contains(ideal, (4, 1))
        assert contains(ideal, (2, 2))
        assert not contains(ideal, (2, 1))
        assert not contains(ideal, (0, 0))
        assert not contains(ideal, (1, 2))

    def test_dimension_mismatch(self):
        ideal = MonomialIdeal(2, ((1, 1),))
        with pytest.raises(DimensionMismatchError):
            contains(ideal, (1, 1, 1))

    @given(generating_sets())
    def test_matches_direct_scan(self, gens):
        ideal = minimalize(gens)
        d = ideal.dimension
        # independent membership check against the raw generating set
        probe = [tuple(min(g[k] + 1, 7) for k in range(d)) for g in gens]
        for beta in probe + [(0,) * d]:
            direct = any(all(x <= y for x, y in zip(g, beta)) for g in gens)
            assert contains(ideal, beta) == direct


class TestGenericity:
    def test_planar_is_generic(self):
        assert is_generic(MonomialIdeal(2, ((3, 0), (2, 2), (0, 3))))

    def test_two_out_of_four_is_not(self):
        gens = ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
        ideal = MonomialIdeal(4, gens)
        assert not is_generic(ideal)
        k, i, j = nongeneric_witness(ideal)
        assert ideal.generators[i - 1][k - 1] == ideal.generators[j - 1][k - 1] != 0

    def test_single_generator_generic(self):
        assert is_generic(MonomialIdeal(3, ((2, 2, 2),)))

    def test_zero_coordinates_do_not_clash(self):
        # shared zeros are fine; only shared nonzero exponents break it
        assert is_generic(MonomialIdeal(3, ((1, 0, 0), (0, 2, 0), (0, 0, 3))))

    def test_witness_none_for_generic(self):
        assert nongeneric_witness(MonomialIdeal(2, ((1, 0), (0, 1)))) is None
