"""Verified two-sided eigenvalue enclosures for the weighted problem
(grad u, grad v) = lambda (p |u_hat|^(p-1) u, v) on the symmetric subspace,
and the inverse-norm bound K derived from them.

Discrete stage: the generalized pencil (A, B) is congruence-transformed by
the floating eigenvector matrix V of the midpoint problem.  S = V^T A V and
M = V^T B V are computed as interval matrices; ||M - I|| < 1 certifies that
M (hence B) is positive definite and V invertible, so (S, M) has exactly
the pencil's eigenvalues.  Weyl's bound perturbs the sorted diagonal of S,
and Ostrowski's congruence sandwich absorbs M:

    lambda_k  in  [ (d_k - eps_S) / (1 + eps_M), (d_k + eps_S) / (1 - eps_M) ]

Continuous stage: the Rayleigh-Ritz upper bound and the projection-error
lower bound lambda_k >= lambda_k^N / (lambda_k^N C_N^2 ||p|u|^(p-1)||_inf + 1)
give two-sided bounds on the true eigenvalues, from which
mu_0 = min(|1 - 1/lambda_k|, tail, 1) and K = 1/mu_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DefinitenessError, VerificationFailure
from .galerkin import odd_modes
from .interval import PI, Interval
from .ivarray import IArr, iv_matmul

__all__ = [
    "Pencil",
    "EigenEnclosure",
    "verified_discrete_eigs",
    "two_sided_bounds",
    "compute_K",
    "stiffness_intervals",
    "spectral_K_from_gram",
    "symmetric_indices",
    "projection_constant",
]


def symmetric_indices(eig_n: int):
    """Odd mode pairs (i, j) with i, j <= eig_n, lexicographic."""
    m = odd_modes(eig_n)
    return [(int(i), int(j)) for i in m for j in m]


def projection_constant(eig_n: int) -> Interval:
    """C_N = (N+1)^-1 pi^-1 for the sine basis on the unit square."""
    return Interval(1.0) / (Interval(float(eig_n + 1)) * PI)


@dataclass
class Pencil:
    indices: list
    a_diag: IArr  # (dim,) intervals (i^2+j^2) pi^2 / 4
    b: IArr       # (dim, dim) interval gram of the weight

    @property
    def dim(self) -> int:
        return len(self.indices)

    def a_full(self) -> IArr:
        d = self.dim
        out = IArr.zeros((d, d))
        out.lo[np.arange(d), np.arange(d)] = self.a_diag.lo
        out.hi[np.arange(d), np.arange(d)] = self.a_diag.hi
        return out

    def to_json_dict(self):
        def pairs(lo, hi):
            # tolist() gives Python floats, whose repr parses back to the
            # same binary64 value; a numpy scalar's repr is "np.float64(...)"
            return [[repr(a), repr(b)] for a, b in zip(lo.tolist(), hi.tolist())]

        return {
            "indices": [list(ij) for ij in self.indices],
            "a_diag": pairs(self.a_diag.lo, self.a_diag.hi),
            "b": [pairs(lo, hi) for lo, hi in zip(self.b.lo, self.b.hi)],
        }


def _sym_intersect(m: IArr) -> IArr:
    """Intersect the enclosure with its transpose (the true matrix is
    symmetric, so both contain it)."""
    lo = np.maximum(m.lo, m.lo.T)
    hi = np.minimum(m.hi, m.hi.T)
    if np.any(lo > hi):
        raise VerificationFailure("symmetric intersection came up empty")
    return IArr(lo, hi)


def _midpoint_basis(Am: np.ndarray, Bm: np.ndarray) -> np.ndarray:
    """Floating eigenvectors V of the midpoint pencil (Am, Bm), normalized
    so that V^T Bm V ~ I, by Cholesky reduction Bm = L L^T to the standard
    problem L^-1 Am L^-T.  V is only a candidate: the caller encloses
    V^T A V and V^T B V and certifies ||M - I|| < 1 whatever V is."""
    try:
        if not np.all(np.isfinite(Bm)):
            raise np.linalg.LinAlgError("non-finite entry in the midpoint of B")
        Li = np.linalg.inv(np.linalg.cholesky(Bm))
        C = Li @ Am @ Li.T
        _, Y = np.linalg.eigh(0.5 * (C + C.T))
        V = Li.T @ Y
        if not np.all(np.isfinite(V)):
            raise np.linalg.LinAlgError("non-finite eigenvector entry")
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"midpoint eigendecomposition failed: {exc}") from exc
    return V


def verified_discrete_eigs(pencil: Pencil):
    """Rigorous enclosures (lo, hi arrays) of all dim eigenvalues of the
    discrete pencil, ascending."""
    d = pencil.dim
    Am = np.diag(pencil.a_diag.mid())
    Bm = pencil.b.mid()
    Bm = 0.5 * (Bm + Bm.T)
    V = _midpoint_basis(Am, Bm)
    Viv = IArr.exact(V)
    VivT = IArr.exact(V.T.copy())
    S = _sym_intersect(iv_matmul(iv_matmul(VivT, pencil.a_full()), Viv))
    M = _sym_intersect(iv_matmul(iv_matmul(VivT, pencil.b), Viv))

    eye = np.eye(d)
    em = IArr(M.lo - eye, M.hi - eye)
    eps_m = float(np.max(np.sum(em.mag(), axis=1)))
    eps_m = math.nextafter(eps_m * (1 + 2**-40), math.inf)
    if not eps_m < 1.0:
        raise DefinitenessError(
            f"cannot certify B positive definite (||M - I|| bound {eps_m:.3g} >= 1); "
            "tighten the gram enclosures (finer grid / higher degree)"
        )

    dmid = np.diag(S.mid()).copy()
    es = IArr(S.lo - np.diag(dmid), S.hi - np.diag(dmid))
    eps_s = float(np.max(np.sum(es.mag(), axis=1)))
    eps_s = math.nextafter(eps_s * (1 + 2**-40), math.inf)

    order = np.argsort(dmid)
    dsorted = dmid[order]
    lo = np.empty(d)
    hi = np.empty(d)
    den_lo = Interval(1.0) - Interval(eps_m)
    den_hi = Interval(1.0) + Interval(eps_m)
    for k in range(d):
        t_lo = Interval(dsorted[k]) - Interval(eps_s)
        t_hi = Interval(dsorted[k]) + Interval(eps_s)
        lo[k] = min((t_lo / den_hi).lo, (t_lo / den_lo).lo)
        hi[k] = max((t_hi / den_hi).hi, (t_hi / den_lo).hi)
    return lo, hi


@dataclass
class EigenEnclosure:
    lam_lo: np.ndarray   # true eigenvalues, lower bounds
    lam_hi: np.ndarray   # true eigenvalues, upper bounds (Rayleigh-Ritz)
    disc_lo: np.ndarray  # discrete eigenvalue enclosures
    disc_hi: np.ndarray
    c_n: Interval
    sup_w: Interval

    @property
    def dim(self) -> int:
        return len(self.lam_lo)


def two_sided_bounds(disc_lo, disc_hi, c_n: Interval, sup_w: Interval) -> EigenEnclosure:
    """Two-sided sandwich: upper = discrete (Rayleigh-Ritz); lower =
    lam^N / (lam^N C_N^2 supW + 1) evaluated in interval arithmetic with the
    discrete lower bound (the map t -> t/(t c + 1) is increasing)."""
    disc_lo = np.asarray(disc_lo, dtype=float)
    disc_hi = np.asarray(disc_hi, dtype=float)
    cw = c_n.sqr() * Interval(max(sup_w.hi, 0.0))
    lo = np.empty_like(disc_lo)
    for k in range(len(disc_lo)):
        t = Interval(disc_lo[k])
        lo[k] = (t / (t * cw + Interval(1.0))).lo
    return EigenEnclosure(lo, disc_hi.copy(), disc_lo, disc_hi, c_n, sup_w)


def compute_K(enc: EigenEnclosure, tail_threshold: float = 2.0) -> Interval:
    """K = 1/mu_0 with mu_0 = min over the point spectrum of |1 - 1/lambda|
    and 1.  Enclosed eigenvalues contribute their interval infima; the tail
    beyond the last enclosed eigenvalue contributes 1 - 1/lambda_last_lo,
    provided that lower bound clears the threshold."""
    one = Interval(1.0)
    mu_candidates = [1.0]
    for k in range(enc.dim):
        lam = Interval(enc.lam_lo[k], enc.lam_hi[k])
        if lam.lo <= 0.0:
            raise VerificationFailure(
                f"eigenvalue {k} enclosure {lam} touches zero", stage="inverse-bound"
            )
        mu = one - one / lam
        if mu.lo <= 0.0 <= mu.hi:
            raise VerificationFailure(
                f"eigenvalue enclosure {lam} makes mu = 1 - 1/lambda straddle zero; "
                "K cannot be established at this subspace size",
                stage="inverse-bound",
            )
        mu_candidates.append(mu.mig)
    last_lo = float(enc.lam_lo[-1])
    if last_lo < tail_threshold:
        raise VerificationFailure(
            f"largest enclosed eigenvalue lower bound {last_lo:.6g} below the "
            f"tail threshold {tail_threshold}; enlarge the subspace",
            stage="inverse-bound",
        )
    tail_mu = (one - one / Interval(last_lo)).lo
    if tail_mu <= 0.0:
        raise VerificationFailure("tail bound not positive", stage="inverse-bound")
    mu_candidates.append(tail_mu)
    mu0 = min(mu_candidates)
    if not mu0 > 0.0:
        raise VerificationFailure("mu_0 not verifiably positive", stage="inverse-bound")
    return one / Interval(mu0)


def stiffness_intervals(indices) -> IArr:
    pi2 = PI.sqr()
    return IArr.from_intervals(
        [Interval.from_fraction(Fraction(i * i + j * j, 4)) * pi2 for i, j in indices]
    )


def spectral_K_from_gram(
    b: IArr,
    indices,
    eig_n: int,
    sup_w: Interval,
    tail_threshold: float = 2.0,
):
    """K from a precomputed weighted gram matrix (the pipeline path, which
    shares one integration sweep across residual and gram)."""
    pencil = Pencil(list(indices), stiffness_intervals(indices), b)
    disc_lo, disc_hi = verified_discrete_eigs(pencil)
    c_n = projection_constant(eig_n)
    enc = two_sided_bounds(disc_lo, disc_hi, c_n, sup_w)
    k = compute_K(enc, tail_threshold=tail_threshold)
    return k, enc, pencil

