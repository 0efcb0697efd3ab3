"""Non-verified Fourier-Galerkin approximation of the positive solution.

The approximation lives in span{ sin(i pi x) sin(j pi y) : i, j odd }, which
enforces the reflection symmetry about x = 1/2 and y = 1/2.  The solver is
ordinary floating point by design: only the produced coefficients matter
downstream, where all rigor re-enters through verified integration.

Solve strategy: a one-mode fixed-point estimate seeds a normalized Picard
iteration (inverse Laplacian plus amplitude rescaling, the standard
ground-state iteration), and Newton with a backtracking line search
finishes to the requested tolerance.  The nonlinearity is evaluated as
|u|^(p-1) u throughout, so negative excursions of the iterates are fine.
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

    def eval(self, x: float, y: float) -> float:
        sx = np.sin(self.modes * math.pi * x)
        sy = np.sin(self.modes * math.pi * y)
        return float(sx @ self.coeffs @ sy)

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        Sx = np.sin(np.outer(xs, self.modes) * math.pi)
        Sy = np.sin(np.outer(ys, self.modes) * math.pi)
        return Sx @ self.coeffs @ Sy.T

    def laplacian(self) -> "FourierApproximation":
        """Coefficients of Delta u: -(i^2 + j^2) pi^2 a_ij (so -Delta u has
        coefficients +(i^2 + j^2) pi^2 a_ij)."""
        m = self.modes
        factor = -(m[:, None] ** 2 + m[None, :] ** 2) * math.pi**2
        return FourierApproximation(self.n_max, factor * self.coeffs)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2) / 4.0))

    def center_value(self) -> float:
        s = np.where(((self.modes - 1) // 2) % 2 == 0, 1.0, -1.0)
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
        except (KeyError, TypeError, ValueError) as exc:  # UsageError is a ValueError
            raise UsageError(f"coefficient JSON: {exc}") from exc
        return cls(n_max, coeffs)


# Newton steps allowed, and Picard warm-up steps taken
_NEWTON_STEPS = 60
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
        if self.tol <= 0:
            raise UsageError("tolerance must be positive")


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

    def jacobian(self, A: np.ndarray) -> np.ndarray:
        U = self.synth(A)
        wq = self.p * np.abs(U) ** (self.p - 1.0) * np.outer(self.w, self.w)
        T1 = np.einsum("gh,hj,hl->gjl", wq, self.S, self.S, optimize=True)
        G4 = np.einsum("gi,gk,gjl->ijkl", self.S, self.S, T1, optimize=True)
        K = self.K
        J = -G4.reshape(K * K, K * K)
        J[np.arange(K * K), np.arange(K * K)] += self.stiff.ravel()
        return J

    def center_sign(self) -> np.ndarray:
        return np.where(((self.modes - 1) // 2) % 2 == 0, 1.0, -1.0)


def _one_mode_seed(ws: _Workspace, p: float) -> float:
    """Fixed point of a * pi^2/2 = a^p * int phi^{p+1} for the (1,1) mode."""
    phi = np.outer(np.sin(math.pi * ws.x), np.sin(math.pi * ws.x))
    I = float(np.einsum("g,h,gh->", ws.w, ws.w, phi ** (p + 1.0)))
    return (math.pi**2 / 2.0 / I) ** (1.0 / (p - 1.0))


def newton_solve(cfg: GalerkinConfig) -> FourierApproximation:
    """Solve the Galerkin system (grad u, grad phi) = (|u|^(p-1) u, phi)."""
    ws = _Workspace(cfg)
    K = ws.K
    A = np.zeros((K, K))
    A[0, 0] = _one_mode_seed(ws, ws.p)
    # normalized Picard warm-up: z <- invLap(f(z)) / peak, amplitude from
    # the peak ratio t = rho^(-1/(p-1))
    sgn = ws.center_sign()
    z = A / max(abs(A[0, 0]), 1e-300)
    rho = 1.0
    for _ in range(_PICARD_STEPS):
        B = ws.project(ws.nonlin(ws.synth(z))) / ws.stiff
        rho = float(sgn @ B @ sgn)
        if not (rho > 0):
            raise SolverError("Picard warm-up lost positivity at the center")
        z = B / rho
    A = z * rho ** (-1.0 / (ws.p - 1.0))

    rn = ws.res_norm(A)
    for _ in range(_NEWTON_STEPS):
        if rn < cfg.tol:
            break
        J = ws.jacobian(A)
        R = ws.residual(A)
        try:
            delta = np.linalg.solve(J, -R.ravel()).reshape(K, K)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian: {exc}", last_residual=rn)
        step = 1.0
        for _ in range(30):
            cand = A + step * delta
            rn_new = ws.res_norm(cand)
            if rn_new < rn:
                A, rn = cand, rn_new
                break
            step *= 0.5
        else:
            raise SolverError("line search stalled", last_residual=rn)

    if rn >= cfg.tol:
        raise SolverError(
            f"no convergence after {_NEWTON_STEPS} Newton steps", last_residual=rn
        )
    return FourierApproximation(cfg.n_modes, A)
