"""Non-verified Fourier-Galerkin approximation of the positive solution.

The approximation lives in span{ sin(i pi x) sin(j pi y) : i, j odd }, which
enforces the reflection symmetry about x = 1/2 and y = 1/2.  The solver is
ordinary floating point by design: only the produced coefficients matter
downstream, where all rigor re-enters through verified integration.

Solve strategy: a fixed number of normalized Picard steps (inverse
Laplacian plus amplitude rescaling, the standard ground-state iteration)
from the (1,1) mode, then the amplitude from the peak ratio.  The steps
reach a relative residual of about 1e-15, the roundoff floor; a tolerance
below that fails.  The nonlinearity is evaluated as |u|^(p-1) u throughout,
so negative excursions of the iterates are fine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError, UsageError

__all__ = [
    "FourierApproximation",
    "GalerkinConfig",
    "newton_solve",
    "odd_modes",
]


def odd_modes(n_max: int) -> np.ndarray:
    if n_max < 1:
        raise UsageError("mode cutoff must be >= 1")
    return np.arange(1, n_max + 1, 2)


def center_signs(modes: np.ndarray) -> np.ndarray:
    """sin(m pi / 2) = (-1)^((m - 1) / 2) for the odd modes m: each mode's
    factor at the center x = 1/2."""
    return np.where(((modes - 1) // 2) % 2 == 0, 1.0, -1.0)


@dataclass
class FourierApproximation:
    """u(x, y) = sum a[i, j] sin(m_i pi x) sin(m_j pi y), odd modes only."""

    n_max: int
    coeffs: np.ndarray  # (K, K) over odd_modes(n_max) x odd_modes(n_max)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        k = len(odd_modes(self.n_max))
        if self.coeffs.shape != (k, k):
            raise UsageError(
                f"coefficient array {self.coeffs.shape} does not match {k} odd modes"
            )

    @property
    def modes(self) -> np.ndarray:
        return odd_modes(self.n_max)

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        Sx = np.sin(np.outer(xs, self.modes) * math.pi)
        Sy = np.sin(np.outer(ys, self.modes) * math.pi)
        return Sx @ self.coeffs @ Sy.T

    def center_value(self) -> float:
        s = center_signs(self.modes)
        return float(s @ self.coeffs @ s)

    # ------------------------------------------------------------------
    # coefficient exchange format: JSON list of [i, j, a_ij]
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        m = self.modes
        entries = [
            [int(m[i]), int(m[j]), float(self.coeffs[i, j])]
            for i in range(len(m))
            for j in range(len(m))
            if self.coeffs[i, j] != 0.0
        ]
        return json.dumps({"n_max": self.n_max, "coeffs": entries})

    @classmethod
    def from_json(cls, text: str) -> "FourierApproximation":
        """Parse the exchange format; malformed text is a UsageError."""
        try:
            data = json.loads(text)
            n_max = int(data["n_max"])
            m = odd_modes(n_max)
            index = {int(v): k for k, v in enumerate(m)}
            coeffs = np.zeros((len(m), len(m)))
            for i, j, a in data["coeffs"]:
                if i not in index or j not in index:
                    raise UsageError(f"mode ({i},{j}) is not an odd mode <= {n_max}")
                coeffs[index[i], index[j]] = a = float(a)
                if not math.isfinite(a):
                    raise UsageError(f"mode ({i},{j}) has the non-finite coefficient {a}")
            # every later stage bounds u_hat on the square by sum |a_ij|
            with np.errstate(over="ignore"):
                bound = np.abs(coeffs).sum()
            if not math.isfinite(bound):
                raise UsageError("the coefficients' absolute sum overflows binary64")
        except (KeyError, TypeError, ValueError) as exc:  # UsageError is a ValueError
            raise UsageError(f"coefficient JSON: {exc}") from exc
        return cls(n_max, coeffs)


# Picard steps taken, always all of them: u_hat is the same for every tol
_PICARD_STEPS = 50


@dataclass
class GalerkinConfig:
    n_modes: int = 60
    p: Fraction = Fraction(3, 2)
    tol: float = 1e-11          # relative discrete residual target
    quad_points: int | None = None  # default: tied to n_modes

    def __post_init__(self):
        self.p = Fraction(self.p)
        if not (1 < self.p < 2):
            raise UsageError(f"p must be in (1, 2), got {self.p}")
        # bool is a subclass of int, and NaN fails every comparison
        tol = self.tol
        if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
            raise UsageError(f"tol must be finite and > 0, got {tol!r}")
        g = self.quad_points
        if g is not None and (isinstance(g, bool) or not isinstance(g, (int, np.integer)) or g < 1):
            raise UsageError(f"quad_points must be None or an integer >= 1, got {g!r}")


class _Workspace:
    def __init__(self, cfg: GalerkinConfig):
        self.modes = odd_modes(cfg.n_modes)
        self.K = len(self.modes)
        G = cfg.quad_points or max(96, 4 * cfg.n_modes + 32)
        nodes, weights = np.polynomial.legendre.leggauss(G)
        self.x = 0.5 * (nodes + 1.0)
        self.w = 0.5 * weights
        self.S = np.sin(np.outer(self.x, self.modes) * math.pi)  # (G, K)
        self.Sw = self.S * self.w[:, None]
        m = self.modes.astype(float)
        self.stiff = (m[:, None] ** 2 + m[None, :] ** 2) * math.pi**2 / 4.0
        self.p = float(cfg.p)

    def synth(self, A: np.ndarray) -> np.ndarray:
        return self.S @ A @ self.S.T

    def project(self, F: np.ndarray) -> np.ndarray:
        """P[i, j] ~ integral F phi_ij over the unit square."""
        return self.Sw.T @ F @ self.Sw

    def nonlin(self, U: np.ndarray) -> np.ndarray:
        return np.abs(U) ** (self.p - 1.0) * U

    def residual(self, A: np.ndarray) -> np.ndarray:
        return self.stiff * A - self.project(self.nonlin(self.synth(A)))

    def res_norm(self, A: np.ndarray) -> float:
        scale = max(1.0, float(np.linalg.norm(self.stiff * A)))
        return float(np.linalg.norm(self.residual(A))) / scale


def newton_solve(cfg: GalerkinConfig) -> FourierApproximation:
    """Solve the Galerkin system (grad u, grad phi) = (|u|^(p-1) u, phi) by
    normalized Picard steps; the name is the pipeline's stage entry point."""
    ws = _Workspace(cfg)
    # z <- invLap(f(z)) / peak from the (1,1) mode; the amplitude comes from
    # the peak ratio t = rho^(-1/(p-1))
    sgn = center_signs(ws.modes)
    z = np.zeros((ws.K, ws.K))
    z[0, 0] = 1.0
    for _ in range(_PICARD_STEPS):
        B = ws.project(ws.nonlin(ws.synth(z))) / ws.stiff
        rho = float(sgn @ B @ sgn)
        if not (rho > 0):
            raise SolverError("Picard iteration lost positivity at the center")
        z = B / rho
    try:
        t = rho ** (-1.0 / (ws.p - 1.0))
    except OverflowError:
        t = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        A = z * t
        rn = ws.res_norm(A)
    if not math.isfinite(rn):
        raise SolverError(f"p = {cfg.p}: the amplitude {t:.3g} overflows binary64")
    if rn >= cfg.tol:
        raise SolverError(
            f"residual {rn:.3g} >= tol {cfg.tol:.3g} after {_PICARD_STEPS} Picard steps",
            last_residual=rn,
        )
    return FourierApproximation(cfg.n_modes, A)
