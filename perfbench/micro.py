"""Fixed-input microbenchmarks at the sweep's shapes and degree 10.

Each figure is the median, over REPEATS batches, of the mean time of one
call in a batch.  Inputs do not depend on the seed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REPEATS = 5
DEGREE = 10
MODES = 7  # odd modes of N_u = 14


def _per_call(fn, calls):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _iarr(ivarray, rng, shape, scale=1.0):
    mid = rng.uniform(-1.0, 1.0, shape) * scale
    rad = np.abs(mid) * 1e-12
    return ivarray.IArr(mid - rad, mid + rad)


def run(pc):
    """``pc``: the powcert modules, as ``workloads.import_powcert`` gives them."""
    interval, ivarray, psa = pc.interval, pc.ivarray, pc.psa
    rng = np.random.default_rng(0)
    n1 = DEGREE + 1
    a, b = interval.Interval(1.1, 1.2), interval.Interval(-0.3, 0.7)
    theta = interval.Interval(13.0) * interval.PI * interval.Interval.from_fraction(Fraction(11, 32))
    sx = _iarr(ivarray, rng, (n1, MODES))
    coef = _iarr(ivarray, rng, (MODES, MODES))
    window = _iarr(ivarray, rng, (3 * DEGREE + 1, 3 * DEGREE + 1))
    kernel = _iarr(ivarray, rng, (n1, n1))
    # a positive degree-10 model on a grid-16 rectangle: constant 1 plus
    # decaying higher coefficients
    decay = np.array([[0.3 ** (i + j) for j in range(n1)] for i in range(n1)])
    lo = decay * rng.uniform(-1.0, 1.0, (n1, n1))
    lo[0, 0] = 1.0
    h = interval.Interval(-1.0 / 64, 1.0 / 64)
    model = psa.PowerSeries2D(ivarray.IArr(lo, lo + np.abs(lo) * 1e-12), (h, h))
    pow_half = psa.ElemFn.pow_q(Fraction(1, 2))
    return {
        "interval.mul_ns": 1e9 * _per_call(lambda: a * b, 20000),
        "interval.sin_us": 1e6 * _per_call(lambda: interval.iv_sin(theta), 500),
        "ivarray.matmul_us": 1e6 * _per_call(lambda: ivarray.iv_matmul(sx, coef), 1000),
        "ivarray.corr2d_us": 1e6 * _per_call(lambda: ivarray.iv_corr2d(window, kernel), 50),
        "psa.compose_us": 1e6 * _per_call(lambda: psa.ps_compose(pow_half, model), 5),
        "psa.mul_us": 1e6 * _per_call(lambda: model * model, 50),
    }


if __name__ == "__main__":
    import workloads

    for name, value in run(workloads.import_powcert()).items():
        print(f"{name} {value:.4g}")
