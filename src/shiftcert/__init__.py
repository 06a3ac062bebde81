"""Certified classification of bilateral weighted shift operators.

Exact rational certificates decide whether a shift with finitely-described
weight moduli is hyponormal, normal, near subnormal, or hyponormal but not
near subnormal; an independent matrix oracle cross-checks every verdict
on finite truncations.
"""

from .classifier import (
    Certificate,
    Criterion,
    InvalidSpec,
    ReplayResult,
    Verdict,
    VerdictClass,
    check_hyponormal,
    classify,
    replay,
)
from .polycert import (
    Limit,
    PoleOnRay,
    Polynomial,
    RationalFunction,
    Ray,
    RaySign,
    limit_at_infinity,
    sign_on_ray,
    sup_on_ray,
)
from .shiftcalc import (
    CommutatorDiagonal,
    NotHyponormalAtIndex,
    TransformedWeights,
    bounded_on_left_ray,
    commutator_diagonal,
    sup_sq_global,
    transformed_weights,
)
from .specfile import SpecFileError, dump_spec, load_spec, spec_from_dict, spec_to_dict
from .weights import (
    ConstantTail,
    RationalTail,
    ValidationReport,
    WeightSpec,
    scale_spec,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CommutatorDiagonal",
    "ConstantTail",
    "Criterion",
    "InvalidSpec",
    "Limit",
    "NotHyponormalAtIndex",
    "PoleOnRay",
    "Polynomial",
    "RationalFunction",
    "RationalTail",
    "Ray",
    "RaySign",
    "ReplayResult",
    "SpecFileError",
    "TransformedWeights",
    "ValidationReport",
    "Verdict",
    "VerdictClass",
    "WeightSpec",
    "bounded_on_left_ray",
    "check_hyponormal",
    "classify",
    "commutator_diagonal",
    "dump_spec",
    "limit_at_infinity",
    "load_spec",
    "replay",
    "scale_spec",
    "sign_on_ray",
    "spec_from_dict",
    "spec_to_dict",
    "sup_on_ray",
    "sup_sq_global",
    "transformed_weights",
    "validate",
]
