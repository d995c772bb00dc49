"""The value classes' contract: equality, hash, repr, immutability and copies.

Every value class compares, hashes and prints by its fields, in declaration
order, exactly as a frozen dataclass does: equal only to an instance of the
same class with equal fields, hashed as the tuple of those fields, and
printed as ``Name(field=value, ...)``.  Views derived on first use stay out
of all three.  The expected texts below are spelled out, so a change in any
of them shows.
"""

import copy
import pickle

import pytest

from scarfrel import (
    CoherentSystem,
    Component,
    ContinuousSpec,
    DepthBound,
    Face,
    LabeledComplex,
    MonomialIdeal,
    ProfitSpec,
    ReliabilityReport,
    SignedTerm,
)
from scarfrel.specfile import SystemSpec

IDEAL_ARGS = (2, ((3, 0), (2, 2), (0, 3)))
IDEAL_REPR = "MonomialIdeal(dimension=2, generators=((3, 0), (2, 2), (0, 3)))"
COMPONENTS = (Component("a", 2, (0.25, 0.75)), Component("b", 2, (0.5, 0.5)))
COMPONENT_REPR = "Component(name='a', levels=2, probs=(0.25, 0.75))"
SYSTEM_REPR = (
    f"CoherentSystem(components=({COMPONENT_REPR}, "
    "Component(name='b', levels=2, probs=(0.5, 0.5))))"
)

# (class, constructor parameters, constructor arguments, fields, repr, cached views)
CASES = {
    "MonomialIdeal": (
        MonomialIdeal, ("dimension", "generators"), IDEAL_ARGS,
        ("dimension", "generators"), IDEAL_REPR, ("le", "_packed"),
    ),
    "LabeledComplex": (
        LabeledComplex, ("ideal", "members", "kind"),
        (MonomialIdeal(*IDEAL_ARGS), [(2,), (1,), (3,), (2, 3), (1, 2)], "scarf"),
        ("ideal", "kind", "member_tuples"),
        f"LabeledComplex(ideal={IDEAL_REPR}, kind='scarf', "
        "member_tuples=((1,), (2,), (3,), (1, 2), (2, 3)))",
        ("_lcm", "faces"),
    ),
    "Component": (
        Component, ("name", "levels", "probs"), ("a", 2, (0.25, 0.75)),
        ("name", "levels", "probs"), COMPONENT_REPR, (),
    ),
    "CoherentSystem": (
        CoherentSystem, ("components",), (COMPONENTS,),
        ("components",), SYSTEM_REPR, ("survival_table",),
    ),
    "ProfitSpec": (
        ProfitSpec, ("linear", "interactions", "cutoff"), ((1, 0.5), ((0, 1, 2),), 3),
        ("linear", "interactions", "cutoff"),
        "ProfitSpec(linear=(1, Fraction(1, 2)), interactions=((0, 1, 2),), cutoff=3)", (),
    ),
    "ContinuousSpec": (
        ContinuousSpec, ("critical_points", "survival"), (((0.5, 2.0), (1.5, 1.0)), len),
        ("critical_points", "survival"),
        "ContinuousSpec(critical_points=((0.5, 2.0), (1.5, 1.0)), "
        "survival=<built-in function len>)",
        (),
    ),
    "SystemSpec": (
        SystemSpec, ("system", "points", "profit", "deformation_v"),
        (CoherentSystem(COMPONENTS), ((1, 0),), None, 3),
        ("system", "points", "profit", "deformation_v"),
        f"SystemSpec(system={SYSTEM_REPR}, points=((1, 0),), profit=None, deformation_v=3)",
        (),
    ),
    "DepthBound": (
        DepthBound, ("depth", "value"), (1, 0.5),
        ("depth", "value"), "DepthBound(depth=1, value=0.5)", (),
    ),
    "ReliabilityReport": (
        ReliabilityReport,
        ("identity_value", "term_count", "terms", "bounds", "baseline_term_count", "oracle_value"),
        (0.5, 1, (SignedTerm(-1, (1, 0), 1),), (DepthBound(1, 0.5),), 1, None),
        ("identity_value", "term_count", "terms", "bounds", "baseline_term_count", "oracle_value"),
        "ReliabilityReport(identity_value=0.5, term_count=1, "
        "terms=(SignedTerm(sign=-1, exponent=(1, 0), cardinality=1),), "
        "bounds=(DepthBound(depth=1, value=0.5),), baseline_term_count=1, oracle_value=None)",
        (),
    ),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    return CASES[request.param]


def made(case):
    cls, _, args, *_ = case
    return cls(*args)


def field_tuple(value, fields):
    return tuple(getattr(value, name) for name in fields)


class TestValueClasses:
    def test_repr_is_the_field_text(self, case):
        assert repr(made(case)) == case[4]

    def test_hash_is_the_field_tuple_hash(self, case):
        value = made(case)
        assert hash(value) == hash(field_tuple(value, case[3]))

    def test_positional_and_keyword_construction_agree(self, case):
        cls, params, args, *_ = case
        by_keyword = cls(**dict(zip(params, args)))
        assert by_keyword == made(case)
        assert hash(by_keyword) == hash(made(case))

    def test_equal_only_within_the_same_class(self, case):
        cls, fields = case[0], case[3]
        value = made(case)
        assert value == made(case) and not value != made(case)
        assert value != field_tuple(value, fields)
        sub = object.__new__(type("Sub", (cls,), {}))
        vars(sub).update(vars(value))
        assert value != sub and sub != value

    def test_fields_and_other_names_are_frozen(self, case):
        value = made(case)
        for name in case[3]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == case[4]

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
    def test_copies_are_equal(self, case, round_trip):
        value = made(case)
        for view in case[5]:
            getattr(value, view)
        twin = round_trip(value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == case[4]

    def test_cached_views_stay_out_of_eq_hash_and_repr(self, case):
        value, fresh = made(case), made(case)
        for view in case[5]:
            assert getattr(value, view) is getattr(value, view)  # derived once, kept
        assert value == fresh and hash(value) == hash(fresh) and repr(value) == case[4]


class TestTupleRecords:
    """Faces and signed terms are plain named tuples: no instance dict, tuple equality."""

    def test_face(self):
        face = Face((1, 2), (2, 2))
        assert repr(face) == "Face(members=(1, 2), label=(2, 2))"
        assert Face._fields == ("members", "label")
        assert face == ((1, 2), (2, 2)) and face.cardinality == 2
        assert Face(members=(1, 2), label=(2, 2)) == face
        assert not hasattr(face, "__dict__")

    def test_signed_term(self):
        term = SignedTerm(-1, (1, 0), 1)
        assert repr(term) == "SignedTerm(sign=-1, exponent=(1, 0), cardinality=1)"
        assert SignedTerm._fields == ("sign", "exponent", "cardinality")
        assert term == (-1, (1, 0), 1)
        assert SignedTerm(sign=-1, exponent=(1, 0), cardinality=1) == term
        assert not hasattr(term, "__dict__")
        assert pickle.loads(pickle.dumps(term)) == term
