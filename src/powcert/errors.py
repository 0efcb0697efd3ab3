"""Semantic exception hierarchy for the verification pipeline, and the
checks of settings that raise its UsageError, naming the setting."""

from __future__ import annotations

import math


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


def check_count(name: str, value) -> int:
    """value, an int; a UsageError naming it otherwise.  bool is a subclass
    of int, so a JSON true would pass for 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def check_positive(name: str, value) -> float:
    """value, a finite int or float > 0; a UsageError naming it otherwise
    (NaN fails every comparison)."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise UsageError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_width(name: str, value) -> float | None:
    """A width budget: None (no budget) or check_positive's value."""
    return None if value is None else check_positive(name, value)
