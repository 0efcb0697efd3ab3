"""powcert: verified existence certificates for -Delta u = u^p on the unit square.

The pipeline computes a Fourier-Galerkin approximation, encloses the residual
and a bound on the inverse linearization with rigorous interval / Taylor-model
arithmetic, runs the existence test, derives H^1_0 and L-infinity error radii,
and proves positivity of the enclosed solution.
"""

from .errors import (
    DefinitenessError,
    IntervalDomainError,
    PositivityError,
    PowcertError,
    SolverError,
    UnsupportedError,
    UsageError,
    VerificationFailure,
)
from .interval import Interval, gamma_half, iv_pow

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "iv_pow",
    "gamma_half",
    "PowcertError",
    "IntervalDomainError",
    "UnsupportedError",
    "UsageError",
    "PositivityError",
    "DefinitenessError",
    "SolverError",
    "VerificationFailure",
    "__version__",
]
