"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single ``[PASS]`` or
``[FAIL]`` line (visible with ``pytest -s``; failures also surface the line
in the captured output).  Tolerances are pinned next to each assertion:
exact equality where the arithmetic is exact, 1e-12 for the randomized
identity corpus, 1e-10 for the continuous pipeline.

Criteria 4 and 5 each check a reference listing against the rule that
produces it.  Criterion 4 extracts the minimal states of the upper set
{profit >= cutoff}, which are 11 points; the nine-point listing is the
subset of them that attains the cutoff exactly.  Criterion 5 checks the
five-point deformation under both tie-break numberings: the (value,
index)-ascending rule gives 15 faces, and the published 19-face listing
is the descending rule, reached by feeding the points in reverse order
and mapping members back.  Both complexes are also checked pointwise
against ideal membership, so each listing is shown to be an exact
inclusion-exclusion support rather than merely reproduced.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from scarfrel import (
    CoherentSystem,
    Component,
    ContinuousSpec,
    MonomialIdeal,
    ProfitSpec,
    SignedTerm,
    bonferroni_bounds,
    brute_force_reliability,
    contains,
    deform,
    deform_and_scarf,
    hilbert_numerator,
    inclusion_exclusion,
    is_generic,
    minimal_points_from_profit,
    minimalize,
    orthant_prob,
    pointwise_coefficient,
    quantize,
    reliability_identity,
    scarf_brute_oracle,
    scarf_complex,
    taylor_complex,
    tube_bounds,
)

from helpers import (
    BINARY_NINE,
    BINARY_NINE_FACETS,
    MULTI_NINE,
    MULTI_EXTRA,
    MULTI_NINE_DEFORMED,
    MULTI_NINE_FACES,
    MULTI_PROFIT_CUTOFF,
    MULTI_PROFIT_INTERACTIONS,
    MULTI_PROFIT_LINEAR,
    NONNETWORK_FIVE,
    NONNETWORK_FIVE_FACES,
    NONNETWORK_FIVE_FACES_REVERSED_TIEBREAK,
    PLANAR_GENS,
    random_generic_ideal,
    random_ideal,
    random_points_for,
    random_system,
)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except AssertionError as err:
        detail = str(err).splitlines()[0] if str(err) else "assertion failed"
        print(f"[FAIL] criterion {number}: {summary} :: {detail}")
        raise
    print(f"[PASS] criterion {number}: {summary}")


def member_sets(cx):
    return set(f.members for f in cx.faces)


def assert_exact_support(cx, ideal, box):
    """Pointwise coefficients of the complex equal membership on the box."""
    terms = hilbert_numerator(cx)
    for beta in itertools.product(range(box), repeat=ideal.dimension):
        expected = 0 if contains(ideal, beta) else 1
        got = pointwise_coefficient(terms, beta)
        assert got == expected, f"coefficient at {beta}: {got} != {expected}"


def best_of_five(fn):
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def corpus():
    """500 random systems with ideals, complexes and oracle values.

    Shared by the identity and bounds criteria so the expensive part runs
    once.  The generator honours the contract limits: at most 5
    components, at most 4 levels each, at most 8 generators.
    """
    rng = random.Random(1729)
    start = time.perf_counter()
    cases = []
    for _ in range(500):
        system = random_system(rng, max_d=5, max_levels=4)
        ideal = minimalize(random_points_for(rng, system, max_points=8))
        cx = deform_and_scarf(ideal)
        ty = taylor_complex(ideal)
        oracle = brute_force_reliability(system, ideal)
        scarf_value = reliability_identity(system, cx)
        taylor_value = reliability_identity(system, ty)
        cases.append((system, ideal, cx, ty, oracle, scarf_value, taylor_value))
    elapsed = time.perf_counter() - start
    return cases, elapsed


def test_criterion_01_planar_complex_and_numerator():
    with criterion(1, "planar complex and numerators, exact, under 1 ms"):
        ideal = MonomialIdeal(2, PLANAR_GENS)
        scarf = scarf_complex(ideal)
        assert [f.members for f in scarf.faces] == [
            (1,),
            (2,),
            (3,),
            (1, 2),
            (2, 3),
        ], "face list differs"
        assert hilbert_numerator(scarf) == (
            SignedTerm(1, (0, 0), 0),
            SignedTerm(-1, (3, 0), 1),
            SignedTerm(-1, (2, 2), 1),
            SignedTerm(-1, (0, 3), 1),
            SignedTerm(1, (3, 2), 2),
            SignedTerm(1, (2, 3), 2),
        ), "numerator terms differ"
        taylor_terms = hilbert_numerator(taylor_complex(ideal))
        assert len(taylor_terms) == 8, "full subset numerator must have 8 terms"
        assert sorted(t.sign for t in taylor_terms if t.exponent == (3, 3)) == [
            -1,
            1,
        ], "cancelling pair at (3, 3) missing"

        def pipeline():
            hilbert_numerator(scarf_complex(ideal))
            hilbert_numerator(taylor_complex(ideal))

        elapsed = best_of_five(pipeline)
        assert elapsed < 1e-3, f"pipeline took {elapsed:.6f} s, budget 1 ms"


def test_criterion_02_pointwise_indicator_on_box():
    with criterion(2, "pointwise coefficients match membership on the 5x5 box"):
        ideal = MonomialIdeal(2, PLANAR_GENS)
        terms = hilbert_numerator(scarf_complex(ideal))
        standard = {
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
            (2, 1),
            (1, 2),
        }
        for beta in itertools.product(range(5), repeat=2):
            expected = 1 if beta in standard else 0
            got = pointwise_coefficient(terms, beta)
            assert got == expected, f"coefficient at {beta}: {got} != {expected}"
            assert expected == (0 if contains(ideal, beta) else 1)


def test_criterion_03_binary_network():
    with criterion(3, "binary network: 103 faces, 6 facets, exact orthant"):
        ideal = minimalize(BINARY_NINE)
        start = time.perf_counter()
        cx = deform_and_scarf(ideal, 10)
        elapsed = time.perf_counter() - start
        assert len(cx.faces) == 103, f"face count {len(cx.faces)} != 103"
        facets = tuple(sorted(f.members for f in cx.facets()))
        assert facets == BINARY_NINE_FACETS, "facet sets differ"
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(1, 2, 7)] == (1, 1, 0, 1, 1, 1, 1, 1), "label of {1,2,7}"
        system = CoherentSystem(
            tuple(
                Component(f"e{i}", 2, (1 - i / 16, i / 16)) for i in range(1, 9)
            )
        )
        expected = (1 * 2 * 4 * 5 * 6 * 7 * 8) / 16**7
        assert orthant_prob(system, labels[(1, 2, 7)]) == expected, (
            "orthant probability of {1,2,7} must be the exact product of the"
            " seven working-level probabilities"
        )
        assert elapsed < 1.0, f"construction took {elapsed:.3f} s, budget 1 s"


def test_criterion_04_multistate_profit_pipeline():
    with criterion(4, "profit pipeline: extraction, deformation, 31 faces"):
        spec = ProfitSpec(
            MULTI_PROFIT_LINEAR, MULTI_PROFIT_INTERACTIONS, MULTI_PROFIT_CUTOFF
        )
        start = time.perf_counter()
        extracted = minimal_points_from_profit(spec, (4, 4, 4, 4))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"extraction took {elapsed:.3f} s, budget 1 s"

        nine = MonomialIdeal(4, MULTI_NINE)
        assert deform(nine, 10).generators == MULTI_NINE_DEFORMED, (
            "deformed nine-point vectors differ from the recorded table"
        )
        cx = deform_and_scarf(nine, 10)
        assert len(cx.faces) == 31, f"face count {len(cx.faces)} != 31"
        assert member_sets(cx) == set(MULTI_NINE_FACES), "face sets differ"
        labels = {f.members: f.label for f in cx.faces}
        assert labels[(4, 8, 9)] == (1, 3, 2, 3), "label of {4,8,9}"

        assert extracted.generators == (
            MULTI_NINE[:5] + MULTI_EXTRA[:1] + MULTI_NINE[5:] + MULTI_EXTRA[1:]
        ), (
            "extraction must return the 11 minimal states of {profit >= 28} "
            "in reversed-tuple order"
        )
        exact = tuple(
            g for g in extracted.generators if spec.value(g) == spec.cutoff
        )
        assert exact == MULTI_NINE, (
            "the extracted points attaining the cutoff exactly must be the "
            "nine-point listing, in order"
        )


def test_criterion_05_five_point_deformation_listing():
    with criterion(5, "five-point set reproduces both tie-break listings"):
        ideal = minimalize(NONNETWORK_FIVE)
        cx = deform_and_scarf(ideal, 10)
        deformed = MonomialIdeal(ideal.dimension, deform(ideal, 10).generators)
        assert member_sets(cx) == member_sets(scarf_brute_oracle(deformed)), (
            "computed complex disagrees with the subset-scan oracle on its "
            "own deformed generators"
        )
        assert member_sets(cx) == set(NONNETWORK_FIVE_FACES), (
            f"complex has {len(cx.faces)} faces under the (value, index)-"
            "ascending tie-break, expected the 15-face listing"
        )
        assert_exact_support(cx, ideal, 3)

        # The descending tie-break is the ascending one on the reversed
        # input; member j of that complex is generator r + 1 - j here.
        r = len(ideal.generators)
        reversed_ideal = minimalize(reversed(ideal.generators))
        reversed_cx = deform_and_scarf(reversed_ideal, 10)
        mapped = {
            tuple(sorted(r + 1 - j for j in members))
            for members in member_sets(reversed_cx)
        }
        assert mapped == set(NONNETWORK_FIVE_FACES_REVERSED_TIEBREAK), (
            f"reversed-input complex has {len(mapped)} faces, expected the "
            "published 19-face listing"
        )
        assert_exact_support(reversed_cx, ideal, 3)


def test_criterion_06_identity_oracle_corpus(corpus):
    with criterion(6, "identity equals enumeration on 500 systems, 1e-12"):
        cases, elapsed = corpus
        assert len(cases) == 500
        worst = 0.0
        for system, ideal, cx, ty, oracle, scarf_value, taylor_value in cases:
            worst = max(
                worst, abs(scarf_value - oracle), abs(taylor_value - oracle)
            )
        assert worst <= 1e-12, f"worst discrepancy {worst:.3e} above 1e-12"
        assert elapsed < 60.0, f"corpus took {elapsed:.1f} s, budget 60 s"


def test_criterion_07_bracketing_and_tightness(corpus):
    with criterion(7, "bounds bracket with correct parity and never lose"):
        cases, _ = corpus
        violations = 0
        for system, ideal, cx, ty, oracle, _, _ in cases:
            r = len(ideal.generators)
            for m in range(1, cx.max_cardinality() + 1):
                tube = tube_bounds(system, cx, m)
                if tube.kind == "upper":
                    if tube.value < oracle - 1e-12:
                        violations += 1
                elif tube.value > oracle + 1e-12:
                    violations += 1
                if m <= r:
                    bonf = bonferroni_bounds(system, ty, m)
                    if tube.kind == "upper":
                        if tube.value > bonf.value + 1e-12:
                            violations += 1
                    elif tube.value < bonf.value - 1e-12:
                        violations += 1
            for m in range(1, r + 1):
                bonf = bonferroni_bounds(system, ty, m)
                if bonf.kind == "upper":
                    if bonf.value < oracle - 1e-12:
                        violations += 1
                elif bonf.value > oracle + 1e-12:
                    violations += 1
        assert violations == 0, f"{violations} bound violations"


def test_criterion_08_incremental_complex_matches_oracle():
    with criterion(8, "incremental complex equals subset-scan on 200 ideals"):
        rng = random.Random(2718)
        checked = 0
        while checked < 200:
            ideal = random_generic_ideal(rng, max_points=10)
            fast = scarf_complex(ideal)
            slow = scarf_brute_oracle(ideal)
            assert {f.members: f.label for f in fast.faces} == {
                f.members: f.label for f in slow.faces
            }, f"mismatch on generators {ideal.generators}"
            labels = [f.label for f in fast.faces]
            assert len(set(labels)) == len(labels), "labels not pairwise distinct"
            checked += 1


def test_criterion_09_deformation_denominator_independence():
    with criterion(9, "face sets independent of the deformation denominator"):
        rng = random.Random(3141)
        for _ in range(100):
            ideal = random_ideal(rng)
            r = len(ideal.generators)
            low = deform_and_scarf(ideal, r + 1)
            high = deform_and_scarf(ideal, 10 * (r + 1))
            assert member_sets(low) == member_sets(high), (
                f"face sets differ between v={r + 1} and v={10 * (r + 1)} "
                f"for generators {ideal.generators}"
            )


def test_criterion_10_continuous_quantization():
    with criterion(10, "continuous pipeline matches real orthants, 1e-10"):
        points = (
            (0.62, 0.11, 0.45),
            (0.20, 0.58, 0.33),
            (0.85, 0.30, 0.12),
            (0.41, 0.77, 0.70),
        )

        def survival(corner):
            return math.prod(max(0.0, 1.0 - min(1.0, z)) for z in corner)

        direct = math.fsum(
            (-1.0) ** (len(subset) + 1)
            * survival(tuple(max(p[k] for p in subset) for k in range(3)))
            for size in range(1, 5)
            for subset in itertools.combinations(points, size)
        )
        ideal, evaluate = quantize(ContinuousSpec(points, survival))
        cx = scarf_complex(ideal) if is_generic(ideal) else deform_and_scarf(ideal)
        pipeline = inclusion_exclusion(cx, evaluate)
        assert abs(pipeline - direct) <= 1e-10, (
            f"pipeline {pipeline!r} vs direct {direct!r}"
        )
