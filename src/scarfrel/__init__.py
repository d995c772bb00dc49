"""Reliability of coherent multistate systems via monomial ideals.

The pipeline: describe a system by the minimal points of its nonfailure
region (directly, from a profit cutoff, or by quantizing continuous
critical points); read those points as generators of a monomial ideal;
build the Scarf complex (deforming first when the ideal is not generic);
and evaluate the alternating orthant-probability sum over its faces for
exact reliability or truncate it for two-sided bounds.
"""

from .analysis import (
    DepthBound,
    ReliabilityReport,
    bonferroni_bounds,
    brute_force_reliability,
    build_report,
    depth_bounds,
    inclusion_exclusion,
    reliability_identity,
    subset_bounds,
    tube_bounds,
)
from .complexes import (
    ComplexSizeError,
    Face,
    LabeledComplex,
    NotGenericError,
    SignedTerm,
    deform,
    deform_and_scarf,
    hilbert_numerator,
    pointwise_coefficient,
    scarf_brute_oracle,
    scarf_complex,
    taylor_complex,
)
from .monomial import (
    DimensionMismatchError,
    Exponent,
    MonomialIdeal,
    contains,
    divides,
    is_generic,
    lcm,
    minimalize,
    nongeneric_witness,
)
from .systems import (
    CoherentSystem,
    Component,
    ContinuousSpec,
    CutoffUnreachableError,
    GeneralPositionError,
    ProfitSpec,
    minimal_points_from_profit,
    orthant_prob,
    quantize,
)

__version__ = "0.1.0"

__all__ = [
    "Component",
    "CoherentSystem",
    "ComplexSizeError",
    "ContinuousSpec",
    "CutoffUnreachableError",
    "DepthBound",
    "DimensionMismatchError",
    "Exponent",
    "Face",
    "GeneralPositionError",
    "LabeledComplex",
    "MonomialIdeal",
    "NotGenericError",
    "ProfitSpec",
    "ReliabilityReport",
    "SignedTerm",
    "bonferroni_bounds",
    "brute_force_reliability",
    "build_report",
    "contains",
    "deform",
    "deform_and_scarf",
    "depth_bounds",
    "divides",
    "hilbert_numerator",
    "inclusion_exclusion",
    "is_generic",
    "lcm",
    "minimal_points_from_profit",
    "minimalize",
    "nongeneric_witness",
    "orthant_prob",
    "pointwise_coefficient",
    "quantize",
    "reliability_identity",
    "scarf_brute_oracle",
    "scarf_complex",
    "subset_bounds",
    "taylor_complex",
    "tube_bounds",
]
