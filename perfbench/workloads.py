"""Inputs of the three workloads, shared by ``run.py`` and ``child.py``.

certify, certify-2w
    The full pipeline (``run_verify``) on one fixed configuration, smaller
    than the default, that still yields a valid certificate.  The problem
    has no random input, so the seed does not change it.
quad-oracle
    Verified integrals of eta^(1/2) xi through ``integral_power``, with eta a
    seeded random odd-mode sine series on 3 x 3 modes and xi = 1 or eta.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# N_u = 14, N = 6, M = 8, degree 6.  The residual budget makes 64
# bisections near the vanishing edges; without it the residual enclosure
# reaches 0 and the existence test cannot start.  The gram matrix is tight
# enough at M = 8 without its own budget.  See README "Seeds and inputs"
# for why degree 6.
CERTIFY = dict(n_modes=14, eig_n=6, grid_m=8, degree=6, res_width=2000.0, gram_width=None)
CERTIFY_WORKERS = {"certify": 1, "certify-2w": 2}
MIN_OPS = 3

# integral_power at degree 6 on an 8 x 8 grid per quadrant
QUAD = dict(degree=6, grid_m=8)
Q = Fraction(1, 2)
ETA_MODES = (1, 3, 5)
# relative size of the non-leading modes; see README "Seeds and inputs"
PERTURBATION = 0.02
N_ETAS = 64
MIN_ROUNDS = 3


def import_powcert():
    """The powcert modules the benchmark uses, imported from the checkout's
    ``src`` and never from an installed copy."""
    sys.path.insert(0, SRC)
    import powcert

    if not os.path.abspath(powcert.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"powcert imported from {powcert.__file__}, not from {SRC}")
    from powcert import certify, cli, errors, galerkin, interval, ivarray, psa, quad

    return SimpleNamespace(
        certify=certify, cli=cli, errors=errors, galerkin=galerkin,
        interval=interval, ivarray=ivarray, psa=psa, quad=quad,
    )


def run_config(cli, workers, out_dir, default=False):
    """The certify configuration, or ``RunConfig()``'s defaults for the
    reference run; workers=0 lets RunConfig pick the CPU count."""
    return cli.RunConfig(
        **({} if default else CERTIFY),
        workers=workers,
        out=os.path.join(out_dir, "certificate.json"),
        coeffs_out=os.path.join(out_dir, "coeffs.json"),
        pencil_out=os.path.join(out_dir, "pencil.json"),
    )


def quad_config(quad):
    return quad.QuadConfig(**QUAD, workers=1)


def eta_terms(seed):
    """N_ETAS coefficient lists [(i, j, a_ij)]: a_11 uniform in [1, 3], the
    other modes uniform in +-PERTURBATION a_11 / (i j)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(N_ETAS):
        a11 = float(rng.uniform(1.0, 3.0))
        terms = []
        for i in ETA_MODES:
            for j in ETA_MODES:
                if (i, j) == (1, 1):
                    terms.append((i, j, a11))
                else:
                    terms.append((i, j, float(rng.uniform(-1.0, 1.0)) * PERTURBATION * a11 / (i * j)))
        out.append(terms)
    return out


def quad_inputs(seed, fourier_cls):
    """[(FourierApproximation, terms)] for the seed."""
    pos = {m: k for k, m in enumerate(ETA_MODES)}
    out = []
    for terms in eta_terms(seed):
        c = np.zeros((len(ETA_MODES), len(ETA_MODES)))
        for i, j, a in terms:
            c[pos[i], pos[j]] = a
        out.append((fourier_cls(max(ETA_MODES), c), terms))
    return out
