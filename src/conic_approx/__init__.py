"""Exact construction of extremal approximation points on rational conics."""

from .numerics import CertifiedReal, Dyadic
from .quadform import (
    CanonicalReduction,
    TernaryQuadraticForm,
    kernel,
    psi,
    rational_zero,
    reduce_form,
)
from .pell import PellSolution, cf_expansion, find_seed_pair, fundamental_solution, next_solution
from .extremal import ExtremalSequence, extend, seed_triple
from .limit import CertifiedVec3, limit_point
from .minpoints import (
    ExponentReport,
    MinimalPointRecord,
    enumerate_minimal,
    estimate_lambda,
    independence_indices,
    rigidity_check,
)
from .targets import ExtremalTarget, SqrtPairTarget

__all__ = [
    "CanonicalReduction",
    "CertifiedReal",
    "CertifiedVec3",
    "Dyadic",
    "ExponentReport",
    "ExtremalSequence",
    "ExtremalTarget",
    "MinimalPointRecord",
    "PellSolution",
    "SqrtPairTarget",
    "TernaryQuadraticForm",
    "cf_expansion",
    "enumerate_minimal",
    "estimate_lambda",
    "extend",
    "find_seed_pair",
    "fundamental_solution",
    "independence_indices",
    "kernel",
    "limit_point",
    "next_solution",
    "psi",
    "rational_zero",
    "reduce_form",
    "rigidity_check",
    "seed_triple",
]

__version__ = "0.1.0"
