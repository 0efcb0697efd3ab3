"""Reference computations made apart from powcert.

Everything here uses numpy floats (or mpmath) and the JSON files the
program writes; nothing calls into powcert.  Two float quadrature
resolutions must agree before a reference value is used, so a reference
that has not converged fails the check instead of passing it by luck.
"""

from __future__ import annotations

import json
import math

import numpy as np

# relative agreement required between the two quadrature resolutions
AGREE = 1e-9
GL_POINTS = (128, 192)
AMPLITUDE_GRID = 401


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def load_coeffs(path):
    """(modes, A) from the program's ``--coeffs-out`` JSON: u(x, y) =
    sum A[a, b] sin(modes[a] pi x) sin(modes[b] pi y)."""
    with open(path) as fh:
        data = json.load(fh)
    modes = np.arange(1, int(data["n_max"]) + 1, 2)
    pos = {int(m): k for k, m in enumerate(modes)}
    a = np.zeros((len(modes), len(modes)))
    for i, j, val in data["coeffs"]:
        a[pos[int(i)], pos[int(j)]] = float(val)
    return modes, a


def graded_rule(n):
    """Gauss-Legendre in t mapped by x = 3t^2 - 2t^3 onto [0, 1].  The map
    has zero slope at both ends, which turns the |u|^(p-1) boundary
    behaviour of the integrands into smooth functions of t."""
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    return t * t * (3.0 - 2.0 * t), w * 6.0 * t * (1.0 - t)


def _sines(x, modes):
    return np.sin(np.pi * np.outer(x, modes))


def _fields(modes, a, n):
    x, w = graded_rule(n)
    s = _sines(x, modes)
    u = s @ a @ s.T
    lap = -(np.pi**2) * (modes[:, None] ** 2 + modes[None, :] ** 2)
    return x, w, u, s @ (lap * a) @ s.T


def residual_norm(modes, a, p, n):
    """|| Delta u + |u|^(p-1) u ||_L2 over the unit square."""
    _, w, u, du = _fields(modes, a, n)
    r = du + np.abs(u) ** (p - 1.0) * u
    return math.sqrt(float(w @ (r * r) @ w))


def gram(modes, a, p, indices, n):
    """(p |u|^(p-1) phi_ij, phi_kl) with phi_ij = sin(i pi x) sin(j pi y)."""
    x, w, u, _ = _fields(modes, a, n)
    weight = p * np.abs(u) ** (p - 1.0) * np.outer(w, w)
    fx = np.sin(np.pi * np.outer(x, [i for i, _ in indices]))
    fy = np.sin(np.pi * np.outer(x, [j for _, j in indices]))
    dim = len(indices)
    out = np.empty((dim, dim))
    for r in range(dim):
        for c in range(dim):
            out[r, c] = (fx[:, r] * fx[:, c]) @ weight @ (fy[:, r] * fy[:, c])
    return out


def converged(f, *args):
    """f(*args, n) at the finer resolution, after checking that the two
    resolutions agree."""
    lo_res, hi_res = (np.asarray(f(*args, n), dtype=float) for n in GL_POINTS)
    scale = max(float(np.max(np.abs(hi_res))), 1e-300)
    require(
        float(np.max(np.abs(hi_res - lo_res))) <= AGREE * scale,
        f"{f.__name__}: Gauss-Legendre {GL_POINTS} disagree",
    )
    return hi_res


def grid_max(modes, a):
    x = np.linspace(0.0, 1.0, AMPLITUDE_GRID)
    s = _sines(x, modes)
    return float(np.max(s @ a @ s.T))


def _iv(obj):
    return float(obj["lo"]), float(obj["hi"])


def check_certificate(body, coeffs_path, pencil_path):
    """The certificate's enclosures against float references computed from
    the approximation it was made for.  Returns the references."""
    modes, a = load_coeffs(coeffs_path)
    p = float(eval_fraction(body["p"]))
    res = float(converged(residual_norm, modes, a, p))
    lo, hi = _iv(body["residual_norm"])
    require(lo <= res <= hi, f"float residual {res!r} outside [{lo!r}, {hi!r}]")

    with open(pencil_path) as fh:
        pencil = json.load(fh)
    indices = [tuple(ij) for ij in pencil["indices"]]
    g = converged(gram, modes, a, p, indices)
    b = pencil["b"]
    for r in range(len(indices)):
        for c in range(len(indices)):
            blo, bhi = (pencil_number(v) for v in b[r][c])
            require(blo <= g[r, c] <= bhi, f"float gram[{r},{c}] {g[r, c]!r} outside [{blo!r}, {bhi!r}]")

    peak = grid_max(modes, a)
    alo, ahi = _iv(body["amplitude"])
    require(alo <= peak <= ahi, f"grid max {peak!r} outside amplitude [{alo!r}, {ahi!r}]")
    return {"residual": res, "grid_max": peak, "gram_entries": len(indices) ** 2}


def pencil_number(text):
    """An endpoint as ``--pencil-out`` writes it: ``repr`` of the value,
    which reads ``np.float64(...)`` for numpy scalars under numpy 2."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def eval_fraction(text):
    num, _, den = text.partition("/")
    return int(num) / int(den or 1)


def sqrt_oracle(terms, with_xi):
    """mpmath tanh-sinh value of the integral over the unit square of
    eta^(1/2) xi, xi = 1 or eta, eta = sum a sin(i pi x) sin(j pi y)."""
    import mpmath

    items = [(i * math.pi, j * math.pi, val) for i, j, val in terms]

    def f(x, y):
        eta = sum(val * math.sin(i * x) * math.sin(j * y) for i, j, val in items)
        return math.sqrt(eta) * (eta if with_xi else 1.0)

    return float(mpmath.fp.quad(f, [0, 1], [0, 1]))
