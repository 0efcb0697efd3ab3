"""Semantic exception hierarchy for the verification pipeline."""

from __future__ import annotations


class PowcertError(Exception):
    """Base class for all package errors."""


class IntervalDomainError(PowcertError, ValueError):
    """An interval operation was asked to leave its mathematical domain
    (division by an interval containing zero, log of a non-positive
    interval, fractional power of a negative base, ...)."""


class UnsupportedError(PowcertError, ValueError):
    """A quantity outside the supported scope was requested
    (e.g. the gamma function at a non-half-integer argument)."""


class UsageError(PowcertError, ValueError):
    """Caller violated an interface contract (degree/domain mismatch,
    invalid Holder triple, malformed configuration)."""


class PositivityError(PowcertError):
    """A Taylor model that must be strictly positive was not verifiably so.

    Carries the offending range and, when raised during quadrature, a
    description of the rectangle so the caller can refine.
    """

    def __init__(self, message, rng=None, rect=None):
        super().__init__(message)
        self.rng = rng
        self.rect = rect


class DefinitenessError(PowcertError):
    """A matrix that must be verifiably positive definite could not be
    certified as such (widen the subdivision / raise the degree)."""


class SolverError(PowcertError):
    """The non-verified Galerkin solver failed to converge.

    Attributes
    ----------
    last_residual : float or None
        Discrete residual norm at the last iterate.
    """

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class VerificationFailure(PowcertError):
    """A rigorous verification step could not be completed (e.g. an
    eigenvalue enclosure straddles the singular value mu = 0, or no
    alpha satisfies the existence test). The pipeline converts these
    into a failed certificate rather than a crash."""
