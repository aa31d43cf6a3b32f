"""Polar spaces over small fields, subspace complements, and reconstruction."""

from .algebra import GF, pg_points
from .complement import Complement, build_complement, resolve_horizon
from .errors import ConfigurationError, HorizonRefusal, LemmaFalsified
from .incidence import IncidenceStructure, bits, mask_of
from .polar import (
    FormSpec,
    PolarSpace,
    build_polar,
    check_polar_axioms,
    compute_rank,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
    symplectic_form,
)
# The function ``reconstruct`` stays in its module, so that the package's
# ``reconstruct`` attribute is that module.
from .reconstruct import Parallelism, Run, canonical_map
from .verify import CheckResult, find_isomorphism, is_isomorphism, run_lemma_battery

__version__ = "0.1.0"

__all__ = [
    "GF",
    "pg_points",
    "IncidenceStructure",
    "bits",
    "mask_of",
    "FormSpec",
    "PolarSpace",
    "symplectic_form",
    "parabolic_form",
    "hyperbolic_form",
    "elliptic_form",
    "hermitian_form",
    "build_polar",
    "compute_rank",
    "check_polar_axioms",
    "Complement",
    "build_complement",
    "resolve_horizon",
    "Parallelism",
    "canonical_map",
    "Run",
    "CheckResult",
    "is_isomorphism",
    "find_isomorphism",
    "run_lemma_battery",
    "ConfigurationError",
    "HorizonRefusal",
    "LemmaFalsified",
]
