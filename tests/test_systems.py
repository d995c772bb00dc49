import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scarfrel import (
    CoherentSystem,
    Component,
    ContinuousSpec,
    CutoffUnreachableError,
    DimensionMismatchError,
    GeneralPositionError,
    ProfitSpec,
    contains,
    deform_and_scarf,
    inclusion_exclusion,
    is_generic,
    lcm,
    minimal_points_from_profit,
    orthant_prob,
    quantize,
    scarf_complex,
)
from scarfrel.systems import _axis_minima

from helpers import (
    MULTI_EXTRA,
    MULTI_NINE,
    MULTI_PROFIT_CUTOFF,
    MULTI_PROFIT_INTERACTIONS,
    MULTI_PROFIT_LINEAR,
    assert_ideal_passes_the_public_check,
    full_scan_profit_points,
    random_system,
    reference_orthant_prob,
)

QUARTERS = Component("a", 3, (0.25, 0.25, 0.5))


def two_component_system():
    return CoherentSystem(
        (
            Component("left", 3, (0.25, 0.25, 0.5)),
            Component("right", 4, (0.125, 0.125, 0.25, 0.5)),
        )
    )


class TestComponent:
    def test_name_stripped(self):
        assert Component("  pump ", 2, (0.5, 0.5)).name == "pump"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Component("   ", 2, (0.5, 0.5))

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            Component("a", 1, (1.0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Component("a", 3, (0.5, 0.5))

    def test_out_of_range_prob(self):
        with pytest.raises(ValueError):
            Component("a", 2, (1.5, -0.5))

    def test_sum_off_by_too_much(self):
        with pytest.raises(ValueError):
            Component("a", 2, (0.5, 0.4))

    def test_tiny_rounding_accepted(self):
        probs = (0.1,) * 10
        c = Component("a", 10, probs)
        assert len(c.probs) == 10


class TestCoherentSystem:
    def test_dimension_and_levels(self):
        system = two_component_system()
        assert system.dimension == 2
        assert system.level_counts() == (3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CoherentSystem(())


def _tail(system, level):
    """P(X >= level) of a one-component system, read through ``orthant_prob``."""
    return orthant_prob(system, (level,))


class TestSurvival:
    def test_tail_sums(self):
        system = CoherentSystem((QUARTERS,))
        assert _tail(system, 0) == 1.0
        assert _tail(system, 1) == 0.75
        assert _tail(system, 2) == 0.5

    def test_beyond_top_level_is_zero(self):
        system = CoherentSystem((QUARTERS,))
        assert _tail(system, 3) == 0.0
        assert _tail(system, 99) == 0.0

    def test_negative_level_rejected(self):
        system = CoherentSystem((QUARTERS,))
        with pytest.raises(ValueError):
            orthant_prob(system, (-1,))

    def test_bad_component_index(self):
        system = CoherentSystem((QUARTERS,))
        assert len(system._tails) == 1
        with pytest.raises(ValueError):
            orthant_prob(system, (0, 0))

    def test_monotone_in_level(self):
        rng = random.Random(7)
        for _ in range(50):
            system = random_system(rng)
            for c in system.components:
                one = CoherentSystem((c,))
                tails = [_tail(one, j) for j in range(c.levels + 1)]
                assert tails == sorted(tails, reverse=True)
                assert tails[0] == pytest.approx(1.0, abs=1e-9)
                assert tails[-1] == 0.0


class TestOrthantProb:
    def test_zero_vector(self):
        assert orthant_prob(two_component_system(), (0, 0)) == 1.0

    def test_product_of_tails(self):
        system = two_component_system()
        assert orthant_prob(system, (1, 2)) == 0.75 * 0.75
        assert orthant_prob(system, (2, 3)) == 0.5 * 0.5

    def test_early_out_at_zero(self):
        system = CoherentSystem(
            (Component("a", 2, (1.0, 0.0)), Component("b", 2, (0.5, 0.5)))
        )
        assert orthant_prob(system, (1, 1)) == 0.0

    def test_negative_level_after_a_zero_tail_is_rejected(self):
        # level 2 is past the top, so its tail is 0 before -1 is reached
        system = CoherentSystem(
            (Component("a", 2, (0.5, 0.5)), Component("b", 2, (0.5, 0.5)))
        )
        for alpha in ((2, -1), (0, -1), (-1, 2)):
            with pytest.raises(ValueError, match="nonnegative, got -1"):
                orthant_prob(system, alpha)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            orthant_prob(two_component_system(), (0, 0, 0))


def _dyadic_and_other_systems(rng):
    """Seeded dyadic systems plus systems with non-dyadic rows."""
    systems = [random_system(rng) for _ in range(25)]
    for _ in range(25):
        rows = []
        for levels in (rng.randint(2, 5) for _ in range(rng.randint(1, 4))):
            weights = [rng.randint(1, 997) for _ in range(levels)]
            rows.append(tuple(w / sum(weights) for w in weights))
        systems.append(
            CoherentSystem(
                tuple(Component(f"c{i}", len(row), row) for i, row in enumerate(rows))
            )
        )
    return systems


class TestSurvivalTable:
    def test_survival_equals_suffix_fsum_bit_for_bit(self):
        for system in _dyadic_and_other_systems(random.Random(5)):
            for i, c in enumerate(system.components):
                one = CoherentSystem((c,))
                for level in range(c.levels + 3):
                    expected = math.fsum(c.probs[level:])
                    assert _tail(one, level).hex() == expected.hex()
                assert _tail(one, c.levels).hex() == (0.0).hex()
                alpha = [0] * system.dimension
                alpha[i] = -1
                with pytest.raises(ValueError, match="nonnegative"):
                    orthant_prob(system, alpha)

    def test_orthant_equals_suffix_fsum_product_bit_for_bit(self):
        for system in _dyadic_and_other_systems(random.Random(6)):
            ranges = [range(c.levels + 1) for c in system.components]
            for alpha in itertools.product(*ranges):
                expected = reference_orthant_prob(system, alpha)
                assert orthant_prob(system, alpha).hex() == expected.hex()
            with pytest.raises(ValueError, match="nonnegative"):
                orthant_prob(system, (-1,) + (0,) * (system.dimension - 1))

    def test_table_leaves_equality_hash_and_repr_alone(self):
        fresh = random_system(random.Random(8))
        system = random_system(random.Random(8))
        before = (repr(system), hash(system))
        table = system._tails
        p = orthant_prob(system, (1,) + (0,) * (system.dimension - 1))
        assert system._tails is table  # derived once
        assert p == math.fsum(system.components[0].probs[1:])
        assert (repr(system), hash(system)) == before
        assert system == fresh and hash(system) == hash(fresh)
        assert repr(system) == repr(fresh)
        assert system._fields == ("components",)


class TestProfitSpec:
    def test_value(self):
        spec = ProfitSpec((1.0, 2.0), ((0, 1, 3.0),), 5.0)
        assert spec.value((2, 1)) == 2.0 + 2.0 + 6.0

    def test_value_no_interactions(self):
        spec = ProfitSpec((1.0, 2.0), (), 5.0)
        assert spec.value((3, 1)) == 5.0

    def test_empty_linear_rejected(self):
        with pytest.raises(ValueError) as err:
            ProfitSpec((), (), 5.0)
        assert str(err.value) == "profit needs at least one linear coefficient"

    def test_negative_linear_rejected(self):
        with pytest.raises(ValueError):
            ProfitSpec((1.0, -2.0), (), 5.0)

    def test_negative_interaction_rejected(self):
        with pytest.raises(ValueError):
            ProfitSpec((1.0, 2.0), ((0, 1, -3.0),), 5.0)

    def test_self_interaction_rejected(self):
        with pytest.raises(ValueError):
            ProfitSpec((1.0, 2.0), ((1, 1, 3.0),), 5.0)

    def test_out_of_range_interaction(self):
        with pytest.raises(ValueError):
            ProfitSpec((1.0, 2.0), ((0, 2, 3.0),), 5.0)

    def test_value_dimension_mismatch(self):
        spec = ProfitSpec((1.0, 2.0), (), 5.0)
        with pytest.raises(DimensionMismatchError):
            spec.value((1, 1, 1))

    def test_numbers_kept_exact(self):
        spec = ProfitSpec((1.0, 0.1, 2), ((0, 2, 0.7),), 0.8)
        assert spec.linear == (1, Fraction(1, 10), 2)
        assert [type(c) for c in spec.linear] == [int, Fraction, int]
        assert spec.interactions == ((0, 2, Fraction(7, 10)),)
        assert spec.cutoff == Fraction(4, 5)
        assert spec.value((1, 1, 1)) == Fraction(19, 5)  # 1 + 0.1 + 2 + 0.7
        assert type(ProfitSpec((1.0,), (), 28.0).cutoff) is int

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProfitSpec((1.0, bad), (), 5.0)
        with pytest.raises(ValueError, match="finite"):
            ProfitSpec((1.0, 2.0), (), bad)


def random_profit_case(rng):
    d = rng.randint(2, 4)
    levels = tuple(rng.randint(2, 4) for _ in range(d))
    linear = tuple(float(rng.randint(0, 5)) for _ in range(d))
    interactions = []
    if rng.random() < 0.7:
        i, j = rng.sample(range(d), 2)
        interactions.append((i, j, float(rng.randint(1, 4))))
    top = ProfitSpec(linear, tuple(interactions), 0.0).value(
        tuple(L - 1 for L in levels)
    )
    cutoff = rng.uniform(0.0, max(top, 1.0))
    return ProfitSpec(linear, tuple(interactions), cutoff), levels


COEFFICIENTS = st.sampled_from([0, 1, 2, 5, 0.1, 0.2, 0.3, 0.7, 1.5, 2.25])


@st.composite
def profit_cases(draw):
    """Profit specs with zero coefficients (plateaus in a_d), interactions
    that may involve the last coordinate, d = 1, cutoff 0 and unreachable
    cutoffs; decimal cutoffs make exact ties likely."""
    d = draw(st.integers(1, 4))
    levels = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    linear = tuple(draw(st.lists(COEFFICIENTS, min_size=d, max_size=d)))
    pairs = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(
        lambda p: p[0] != p[1]
    )
    interactions = tuple(
        (i, j, draw(COEFFICIENTS))
        for i, j in (draw(st.lists(pairs, max_size=3)) if d > 1 else ())
    )
    cutoff = draw(
        st.one_of(st.just(0), st.integers(0, 80).map(lambda k: k / 10), st.just(1000))
    )
    return ProfitSpec(linear, interactions, cutoff), levels


class TestMinimalPointsFromProfit:
    def test_reference_four_component_case(self):
        spec = ProfitSpec(
            MULTI_PROFIT_LINEAR, MULTI_PROFIT_INTERACTIONS, MULTI_PROFIT_CUTOFF
        )
        ideal = minimal_points_from_profit(spec, (4, 4, 4, 4))
        assert ideal.generators == (
            MULTI_NINE[:5] + MULTI_EXTRA[:1] + MULTI_NINE[5:] + MULTI_EXTRA[1:]
        )

    def test_zero_cutoff(self):
        spec = ProfitSpec((1.0, 1.0), (), 0.0)
        ideal = minimal_points_from_profit(spec, (3, 3))
        assert ideal.generators == ((0, 0),)

    def test_unreachable_cutoff(self):
        spec = ProfitSpec((1.0, 1.0), (), 100.0)
        with pytest.raises(CutoffUnreachableError, match="cutoff 100.0$"):
            minimal_points_from_profit(spec, (3, 3))
        with pytest.raises(CutoffUnreachableError, match="cutoff 4.1$"):
            minimal_points_from_profit(ProfitSpec((1.0, 1.0), (), 4.1), (3, 3))

    def test_exact_cutoff(self):
        # 0.1 + 0.7 rounds below 0.8 in floats; the decimals reach it exactly
        ideal = minimal_points_from_profit(ProfitSpec((0.1, 0.7), (), 0.8), (3, 3))
        assert ideal.generators == ((1, 1), (0, 2))

    @settings(max_examples=200, deadline=None)
    @given(profit_cases())
    @example((ProfitSpec((0.1, 0.7), (), 0.8), (3, 3)))
    @example((ProfitSpec((1, 0, 0), ((0, 2, 0.5), (1, 2, 0.1)), 2.5), (4, 3, 4)))
    @example((ProfitSpec((0.3,), (), 0.9), (5,)))
    # zero slope: no linear term or interaction on the last coordinate
    @example((ProfitSpec((1, 2, 0), ((0, 1, 0.5),), 3), (3, 3, 4)))
    # slope only from an interaction with the last coordinate, 0 at the origin prefix
    @example((ProfitSpec((1, 0), ((0, 1, 0.5),), 2), (3, 5)))
    # decimal sum hits the cutoff exactly on the last coordinate
    @example((ProfitSpec((0.7, 0.1), (), 0.8), (3, 3)))
    # coordinates d - 1 and d interact, so the slope grows along the last prefix axis
    @example((ProfitSpec((1, 0.5, 0), ((2, 1, 0.7),), 3.1), (3, 4, 5)))
    # two prefix coordinates interact, so base gains a product term
    @example((ProfitSpec((0.5, 0, 1), ((1, 0, 1.5), (0, 2, 0.2)), 4), (3, 4, 3)))
    # a prefix axis of size 1
    @example((ProfitSpec((1, 2, 0.5, 1), ((0, 3, 0.3),), 3.5), (3, 2, 1, 4)))
    # d = 2: one prefix axis
    @example((ProfitSpec((1, 0.5), ((0, 1, 0.25),), 2), (4, 5)))
    # all binary: the ceiling passes run both contiguous and stepped
    @example((ProfitSpec((1, 1, 1, 1), (), 2), (2, 2, 2, 2)))
    # one interaction between prefix coordinates, one between a prefix coordinate and a_d
    @example((ProfitSpec((1, 0.5, 1, 0.2), ((0, 1, 0.7), (1, 3, 0.3)), 3.4), (3, 3, 2, 4)))
    def test_equals_full_grid_scan(self, case):
        spec, levels = case
        expected = full_scan_profit_points(spec, levels)
        if not expected:
            with pytest.raises(CutoffUnreachableError):
                minimal_points_from_profit(spec, levels)
            return
        ideal = minimal_points_from_profit(spec, levels)
        assert ideal.generators == expected
        assert_ideal_passes_the_public_check(ideal)

    def test_level_count_validation(self):
        spec = ProfitSpec((1.0, 1.0), (), 1.0)
        with pytest.raises(ValueError):
            minimal_points_from_profit(spec, (3, 0))
        with pytest.raises(DimensionMismatchError):
            minimal_points_from_profit(spec, (3, 3, 3))

    def test_colex_emission_order(self):
        rng = random.Random(11)
        for _ in range(40):
            spec, levels = random_profit_case(rng)
            try:
                ideal = minimal_points_from_profit(spec, levels)
            except CutoffUnreachableError:
                continue
            keys = [g[::-1] for g in ideal.generators]
            assert keys == sorted(keys)

    def test_matches_domination_filter_oracle(self):
        # slow route: collect every qualifying state, drop dominated ones
        rng = random.Random(12)
        for _ in range(40):
            spec, levels = random_profit_case(rng)
            grid = list(itertools.product(*(range(L) for L in levels)))
            reaching = [a for a in grid if spec.value(a) >= spec.cutoff]
            if not reaching:
                with pytest.raises(CutoffUnreachableError):
                    minimal_points_from_profit(spec, levels)
                continue
            oracle = {
                a
                for a in reaching
                if not any(
                    b != a and all(x <= y for x, y in zip(b, a)) for b in reaching
                )
            }
            ideal = minimal_points_from_profit(spec, levels)
            assert set(ideal.generators) == oracle

    def test_upset_membership_scan(self):
        # reaching the cutoff must coincide with lying above a minimal point
        rng = random.Random(13)
        for _ in range(40):
            spec, levels = random_profit_case(rng)
            try:
                ideal = minimal_points_from_profit(spec, levels)
            except CutoffUnreachableError:
                continue
            for alpha in itertools.product(*(range(L) for L in levels)):
                assert contains(ideal, alpha) == (spec.value(alpha) >= spec.cutoff)


def _cells(sizes):
    """Each cell of a grid of ``sizes`` with its flat index in product order."""
    return list(enumerate(itertools.product(*map(range, sizes))))


@st.composite
def flat_grids(draw):
    """A grid shape, with size-1 axes and no axes at all, and two flat int lists over it."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    values = st.lists(st.integers(0, 9), min_size=math.prod(sizes), max_size=math.prod(sizes))
    return sizes, draw(values), draw(values)


class TestAxisMinima:
    """``_axis_minima`` against a per-cell scan, in both of its modes."""

    @settings(max_examples=200, deadline=None)
    @given(flat_grids())
    @example(([], [3], [1]))
    @example(([2, 2, 2, 2], list(range(16, 0, -1)), list(range(16))))
    @example(([1, 3, 1, 2], [5, 4, 3, 2, 1, 0], [0, 1, 2, 3, 4, 5]))
    def test_running_minimum_over_lower_orthants(self, grid):
        sizes, values, _ = grid
        dst = list(values)
        _axis_minima(dst, dst, sizes)
        cells = _cells(sizes)
        for i, cell in cells:
            below = [values[j] for j, other in cells if all(map(int.__le__, other, cell))]
            assert dst[i] == min(below)

    @settings(max_examples=200, deadline=None)
    @given(flat_grids())
    @example(([], [3], [1]))
    @example(([2, 2, 2, 2], list(range(16, 0, -1)), list(range(16))))
    @example(([1, 3, 1, 2], [9] * 6, [5, 4, 3, 2, 1, 0]))
    def test_one_step_minimum_of_a_separate_source(self, grid):
        sizes, values, src = grid
        dst = list(values)
        _axis_minima(dst, src, sizes)
        index = {cell: i for i, cell in _cells(sizes)}
        for cell, i in index.items():
            steps = [
                src[index[(*cell[:k], a - 1, *cell[k + 1:])]]
                for k, a in enumerate(cell)
                if a
            ]
            assert dst[i] == min([values[i], *steps])


PROTO_POINTS = (
    (0.62, 0.11, 0.45),
    (0.20, 0.58, 0.33),
    (0.85, 0.30, 0.12),
    (0.41, 0.77, 0.70),
)


def uniform_survival(corner):
    return math.prod(max(0.0, 1.0 - min(1.0, z)) for z in corner)


class TestContinuousSpec:
    def test_no_points_rejected(self):
        with pytest.raises(ValueError) as err:
            ContinuousSpec((), uniform_survival)
        assert str(err.value) == "at least one critical point is required"

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError) as err:
            ContinuousSpec(((0.1, 0.2), (0.3,)), uniform_survival)
        assert str(err.value) == "critical point (0.3,) has length 1, expected 2"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError) as err:
            ContinuousSpec(((0.1, 0.2), (0.3, bad)), uniform_survival)
        assert str(err.value) == f"critical point coordinates must be finite: (0.3, {bad!r})"


class TestQuantize:
    def test_rank_ideal_prunes_dominated_point(self):
        ideal, _ = quantize(ContinuousSpec(PROTO_POINTS, uniform_survival))
        assert ideal.generators == ((2, 0, 2), (0, 2, 1), (3, 1, 0))

    def test_evaluator_returns_original_corners(self):
        ideal, evaluate = quantize(ContinuousSpec(PROTO_POINTS, uniform_survival))
        assert evaluate((2, 0, 2)) == uniform_survival(PROTO_POINTS[0])
        assert evaluate((0, 2, 1)) == uniform_survival(PROTO_POINTS[1])

    def test_evaluator_maps_rank_max_to_value_max(self):
        _, evaluate = quantize(ContinuousSpec(PROTO_POINTS, uniform_survival))
        joined = tuple(
            max(a, b) for a, b in zip(PROTO_POINTS[0], PROTO_POINTS[1])
        )
        assert evaluate(lcm([(2, 0, 2), (0, 2, 1)])) == uniform_survival(joined)

    def test_general_position_error_names_pair(self):
        points = ((0.5, 0.1), (0.5, 0.9))
        with pytest.raises(GeneralPositionError) as err:
            quantize(ContinuousSpec(points, uniform_survival))
        message = str(err.value)
        assert "1" in message and "2" in message and "0.5" in message

    def test_evaluator_rejects_wrong_length(self):
        _, evaluate = quantize(ContinuousSpec(PROTO_POINTS, uniform_survival))
        with pytest.raises(DimensionMismatchError):
            evaluate((0, 0))

    def test_pipeline_matches_real_space_inclusion_exclusion(self):
        # oracle works purely on real coordinates, no ranks anywhere
        rng = random.Random(14)
        for _ in range(25):
            d = rng.randint(2, 3)
            m = rng.randint(1, 5)
            columns = [rng.sample(range(1, 1000), m) for _ in range(d)]
            points = tuple(
                tuple(columns[k][i] / 1000.0 for k in range(d)) for i in range(m)
            )
            spec = ContinuousSpec(points, uniform_survival)
            oracle = math.fsum(
                (-1.0) ** (len(subset) + 1)
                * uniform_survival(
                    tuple(max(p[k] for p in subset) for k in range(d))
                )
                for size in range(1, m + 1)
                for subset in itertools.combinations(points, size)
            )
            ideal, evaluate = quantize(spec)
            if is_generic(ideal):
                cx = scarf_complex(ideal)
            else:
                cx = deform_and_scarf(ideal)
            assert inclusion_exclusion(cx, evaluate) == pytest.approx(
                oracle, abs=1e-12
            )
