"""Exact-arithmetic workbench for zero-separating invariants of finite
matrix groups over finite fields and the rationals."""

__version__ = "0.1.0"

from .errors import NullconeLabError
from .fields import FieldCtx, Scalar, ff_make, frobenius
from .groups import (
    MatrixGroup,
    Representation,
    dual_rep,
    hom_rep,
    regular_rep,
    sym_power_rep,
)
from .invariants import (
    GenerationCertificate,
    InvariantSpace,
    NullconeStatus,
    SeparationReport,
    check_generation,
    degree_reduce,
    delta_bounded,
    epsilon,
    invariant_space,
    nullcone_status,
    orbit_sum,
    reynolds,
    sigma_bounded,
    weight_invariant_monomials,
)
from .linalg import Matrix
from .poly import Monomial, Polynomial, mono_basis, poly_parse

__all__ = [
    "FieldCtx", "Scalar", "ff_make", "frobenius",
    "Matrix", "Monomial", "Polynomial", "mono_basis", "poly_parse",
    "MatrixGroup", "Representation", "dual_rep", "sym_power_rep", "hom_rep",
    "regular_rep", "InvariantSpace", "SeparationReport", "NullconeStatus",
    "GenerationCertificate", "invariant_space", "orbit_sum", "reynolds",
    "epsilon", "delta_bounded", "sigma_bounded", "nullcone_status",
    "degree_reduce", "check_generation", "weight_invariant_monomials",
    "NullconeLabError",
]
