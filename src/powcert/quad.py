"""Verified integration over the unit square of eta^q * xi with eta > 0
inside and eta = 0 on the boundary.

The square is covered by one quadrant, by the even symmetry of odd modes:
eta and xi hold only odd sine modes and the gram tables only even cosine
frequencies, so every integrand is even about x = 1/2 and y = 1/2 and the
integral over the square is four times the integral over the standard
quadrant [0, 1/2]^2, where eta vanishes exactly on the left and lower
edges.  The quadrant is covered by an M x M grid of closed rectangles
classified by adjacency to the vanishing edges, which a rectangle touches
exactly when its lower x end, or its lower y end, is 0:

    S11  touches both edges (Taylor expansion at the corner, factor x*y)
    S01  touches only the lower edge (expansion at the lower-edge midpoint,
         factor y)
    S10  touches only the left edge (factor x)
    S00  touches neither (expansion at the center, no factor)

On each rectangle the reduced integrand eta / (class monomial) is enclosed
by a 2-D Taylor model, raised to the fractional power q (psa.ps_root: a
float root verified a posteriori by one defect product at q = 1/2),
multiplied by the xi model, and integrated term by term.  ps_root alone
decides whether a model may be raised to q: its range must be finite and
strictly positive, and so must its float root's.  Monomial integrals
evaluate the antiderivative at the four corners term by term -- the
interval coefficient multiplies every corner term separately, because the
distributive law does not hold for intervals.

Rectangles that fail that verdict, or whose enclosure is wider than its
share of the caller's width budget, are bisected along their longer edge
(tie: x) down to a depth limit.  The sweep runs level by level: the
rectangles of one refinement level are evaluated as one batch of Taylor
models, with one t^q root for all of them, and those bisected make up the
next level.  Each level is laid
out once: its rectangles are sorted with those on a vanishing edge first,
then by class and local box, and its distinct edges, each rectangle's edges
and local domains and the groups of rectangles of one class and local box
are found in that order.  The reduced models, the root and the
contributions -- gram tables, residual and power integrals, range bounds,
computed as stacked arrays over the groups, which share every corner
table -- all take that layout, and the results go back to rectangle
order once, at the end; each rectangle gets the bits it would get evaluated
alone.  Errors are raised as a depth-first recursion over each base
rectangle would raise them, so the batching does not show in the results.
Each total is the exact sum of its leaf contributions rounded outward
once, so it depends neither on the order of the leaves nor on the worker
count.  With more than one worker each forked worker process sweeps one
contiguous block of whole grid rows of base rectangles as one batch.
Factor and corner tables depend only on their arguments and are built once
per process; the factor tables a level lacks are built in one vectorized
pass per kind of table: reduced sines, plain sines and gram cosines.  The
base grid and its layout are built once per process too, and each sweep
fetches the grid's tables from the table cache.  The sweep runs with one
BLAS thread, which its workers inherit.

One sweep engine evaluates every rectangle, and two functions run it:

    pipeline_sweep  the certificate's sweep: the residual norm, the weighted
                    gram matrix of the eigenvalue pencil and the range bounds
                    of u_hat, from one t^q root per rectangle
    integral_power  the integral of eta^q xi over the square, for xi = 1, a
                    constant or a sine series
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ivarray
from .errors import IntervalDomainError, PositivityError, UsageError
from .galerkin import FourierApproximation
from .interval import PI, Interval, iv_pow
from .ivarray import ConvOperand, IArr, iv_conv2d_batch, iv_matmul, iv_outer, sin_cos_pi
from .psa import PowerSeries2D, ps_root

# The benchmark's tracer (perfbench/tracing.py) wraps quad.ps_compose,
# quad.iv_matmul, quad.iv_corr2d, quad.iv_conv2d_full, quad.iv_sin and
# quad.iv_cos, and its cost hooks read 2-D operands.  The sweep calls only
# quad.iv_matmul, for its one 2-D product (factor tables times coefficients);
# stacked products, the gram tables' too, call ivarray.iv_matmul, model
# products iv_conv2d_batch or a ConvOperand, the factor tables take
# sin_cos_pi and t^q takes ps_root.  The rest is for the tracer alone.
from .interval import iv_cos, iv_sin  # noqa: F401
from .ivarray import iv_conv2d_full, iv_corr2d  # noqa: F401
from .psa import ps_compose  # noqa: F401

__all__ = [
    "Rect",
    "QuadConfig",
    "integral_power",
    "pipeline_sweep",
    "gram_from_tables",
    "sup_weight",
]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Rect:
    """Closed rectangle in standard-quadrant coordinates with exact rational
    corners.  It touches the vanishing edge x = 0 (y = 0) exactly when its
    lower x (y) end is 0."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    depth: int = 0

    @classmethod
    def make(cls, x0, x1, y0, y1, depth: int = 0) -> "Rect":
        x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
        if not (x0 < x1 and y0 < y1):
            raise UsageError("degenerate rectangle")
        return cls(x0, x1, y0, y1, depth)

    @property
    def van_x(self) -> bool:
        return self.x0 == 0

    @property
    def van_y(self) -> bool:
        return self.y0 == 0

    def local_x(self) -> tuple[Fraction, Fraction]:
        return _local_edge(self.x0, self.x1)[1:]

    def local_y(self) -> tuple[Fraction, Fraction]:
        return _local_edge(self.y0, self.y1)[1:]

    @property
    def area(self) -> float:
        return float((self.x1 - self.x0) * (self.y1 - self.y0))

    def bisect(self) -> tuple["Rect", "Rect"]:
        """Split along the longer edge (tie: x)."""
        wx = self.x1 - self.x0
        wy = self.y1 - self.y0
        d = self.depth + 1
        if wx >= wy:
            xm = (self.x0 + self.x1) / 2
            return (
                Rect.make(self.x0, xm, self.y0, self.y1, depth=d),
                Rect.make(xm, self.x1, self.y0, self.y1, depth=d),
            )
        ym = (self.y0 + self.y1) / 2
        return (
            Rect.make(self.x0, self.x1, self.y0, ym, depth=d),
            Rect.make(self.x0, self.x1, ym, self.y1, depth=d),
        )

    def describe(self) -> str:
        return (
            f"S{int(self.van_x)}{int(self.van_y)} [{self.x0},{self.x1}]x[{self.y0},{self.y1}]"
            f" depth={self.depth}"
        )


@lru_cache(maxsize=8)
def _grid(m: int) -> tuple:
    """The base rectangles: the M x M grid of the standard quadrant, built
    once per process and shared, as Rect is frozen."""
    h = _HALF / m
    return tuple(Rect.make(i * h, (i + 1) * h, j * h, (j + 1) * h) for i in range(m) for j in range(m))


def _endpoint_power(v: Fraction, e: Fraction) -> Interval:
    """v^e for an exact rational endpoint; fractional e requires v >= 0."""
    if v == 0:
        return Interval(0.0) if e > 0 else Interval(1.0)
    if e.denominator == 1 and e >= 0:
        return Interval.from_fraction(v**e.numerator)
    iv = Interval.from_fraction(v)
    return iv_pow(iv, e)


def _frac_interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(Interval.from_fraction(lo).lo, Interval.from_fraction(hi).hi)


def _local_edge(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The expansion point of the edge [a, b] -- its vanishing end when a is
    0, else its midpoint -- and the edge's ends in local coordinates."""
    x0 = Fraction(0) if a == 0 else (a + b) / 2
    return x0, a - x0, b - x0


# ----------------------------------------------------------------------
# tables, built once per process
# ----------------------------------------------------------------------

# A table depends only on its arguments, so one table serves every sweep in
# the process, and forked workers inherit those built before the fork.  A
# default verify at workers=1 builds 231 factor tables in 11 batches and 24
# corner tables (about 0.9 MB), the benchmark's certify configuration 42 in
# 6 batches and 15; the bound keeps several sweeps of that size without
# evicting.  The arrays are shared between callers, hence read-only.
_TABLES = 1024

# factor tables by (freqs, a, b, phase, reduced, degree), oldest first
_trig_cache: dict = {}


def _read_only(t: IArr) -> IArr:
    t.lo.flags.writeable = False
    t.hi.flags.writeable = False
    return t


def _build_trig_tables(freqs: tuple, edges: list, phase: int, reduced: bool, degree: int) -> IArr:
    """The factor tables of the edges (a, b), as one stack (len(edges),
    degree+1, len(freqs)); each has the bits of its edge built alone.

    The table of an edge [a, b] is the coefficient matrix of the Taylor
    models, in its local coordinate t (_local_edge), of
    sin(f pi (x0 + t) + phase pi/2) for every frequency f: phase 0 gives
    sines, phase 1 cosines.  reduced gives sin(f pi t)/t instead, which
    needs phase 0 and vanishing edges (a = x0 = 0).

    The k-th derivative of sin(theta + phase pi/2) is entry k + phase of the
    cycle (sin, cos, -sin, -cos) at theta = f pi x0, enclosed by sin_cos_pi
    of the exact residue of f x0 mod 2.  With shift 1 when reduced, else 0,
    row k is cycle entry k + phase + shift times (f pi)^(k+shift)/(k+shift)!,
    exactly 0 or +-(f pi)^(k+shift)/(k+shift)! where the entry is exactly 0
    or +-1.  The Lagrange remainder is resorbed into the top row."""
    if reduced and (phase or any(a != 0 for a, _ in edges)):
        raise UsageError("the reduced sine table needs phase 0 on a vanishing edge")
    local = [_local_edge(a, b) for a, b in edges]
    dom = IArr.from_intervals([_frac_interval(lo, hi) for _, lo, hi in local])[:, None]
    n, shift = degree, int(reduced)
    out = IArr.zeros((len(edges), n + 1, len(freqs)))
    out.lo[:, 0] = out.hi[:, 0] = [float(phase) if f == 0 else 0.0 for f in freqs]  # sin 0, cos 0
    live = [col for col, f in enumerate(freqs) if f != 0]
    f = [freqs[col] for col in live]
    # axes (row k, edge, frequency)
    sin, cos = sin_cos_pi([fi * x0 % 2 for x0, _, _ in local for fi in f])
    sin = IArr(sin.lo.reshape(len(edges), len(f)), sin.hi.reshape(len(edges), len(f)))
    cos = IArr(cos.lo.reshape(sin.shape), cos.hi.reshape(sin.shape))
    # row k is formed as ((cycle entry) (f pi)^j) (1/j!), j = k + shift,
    # with (f pi)^j the running product w (w (w ...)); the term of j = 0 is
    # exactly 1
    cycle = IArr.stack([sin, cos, -sin, -cos])[(np.arange(n + 1) + phase + shift) % 4]
    w = IArr.exact(f) * PI
    powers = [IArr.exact(np.ones(len(f))), w]
    for _ in range(n - 1 + shift):
        powers.append(powers[-1] * w)
    powers = IArr.stack(powers[shift:])[:, None]
    fact = IArr.from_intervals(
        [Interval.from_fraction(Fraction(1, math.factorial(j))) for j in range(shift, n + 1 + shift)]
    )[:, None, None]
    rows, terms = cycle * powers * fact, powers * fact
    if not shift:
        rows[0], terms[0] = cycle[0], powers[0]
    # a cycle entry of exactly 0 or +-1 gives an exact multiple of the term;
    # + 0.0 turns the zeros' -0.0 into 0.0
    exact = (cycle.lo == cycle.hi) & np.isin(cycle.lo, (-1.0, 0.0, 1.0))
    e_lo, e_hi = cycle.lo * terms.lo, cycle.lo * terms.hi
    rows = IArr(
        np.where(exact, np.minimum(e_lo, e_hi), rows.lo) + 0.0,
        np.where(exact, np.maximum(e_lo, e_hi), rows.hi) + 0.0,
    )
    order, r = _remainder(w, n, reduced)
    rows[n] = rows[n] + IArr(-r, r) * (dom.sqr() if order > n + 1 + shift else dom)
    out[:, :, live] = IArr(rows.lo.transpose(1, 0, 2), rows.hi.transpose(1, 0, 2))
    return out


def _remainder(w: IArr, degree: int, reduced: bool) -> tuple:
    """The order k of the factor tables' Lagrange remainder -- degree + 1,
    one more for sin(f pi t)/t, one more again at even degree, as sin(f pi t)
    has no term of even order degree + 2 -- and |w|^k / k! rounded up, for w
    enclosing each frequency times pi; a UsageError where it overflows."""
    k = degree + 1 + reduced + (reduced and degree % 2 == 0)
    try:
        r = [math.nextafter(m**k / math.factorial(k) * (1.0 + 1e-12), math.inf) for m in w.mag().tolist()]
    except OverflowError:
        raise UsageError(f"PSA degree {degree} too high: the table remainder (f pi)^{k}/{k}! overflows") from None
    return k, np.array(r)


def check_table_degree(degree: int, modes, gram_freqs):
    """Refuse a degree whose factor tables overflow (_remainder), before any
    is built: the reduced sines of the modes or the gram cosines."""
    for freqs, reduced in ((modes, True), (gram_freqs, False)):
        _remainder(IArr.exact(freqs) * PI, degree, reduced)


def _trig_tables(freqs: tuple, edges: list, phase: int, kinds: tuple, degree: int) -> list:
    """Per kind in kinds, the factor tables (_build_trig_tables) of the
    edges (a, b), reduced on the vanishing edges (a = 0) when the kind is True.
    Each comes from the process's cache, and those missing for any kind are
    built in one pass per kind of table, reduced or not, and cached."""
    keys = [[(freqs, a, b, phase, kind and a == 0, degree) for a, b in edges] for kind in kinds]
    found = {key: _trig_cache.get(key) for row in keys for key in row}
    for kind in (False, True):
        missing = [key for key, t in found.items() if t is None and key[4] == kind]
        if missing:
            built = _build_trig_tables(freqs, [key[1:3] for key in missing], phase, kind, degree)
            for i, key in enumerate(missing):
                found[key] = _trig_cache[key] = _read_only(built[i])
    while len(_trig_cache) > _TABLES:
        del _trig_cache[next(iter(_trig_cache))]
    return [[found[key] for key in row] for row in keys]


@lru_cache(maxsize=_TABLES)
def _corner_table(v: Fraction, qoff: Fraction, count: int) -> IArr:
    """v^(e+1) / (e+1) for the exponents e = i + qoff, i < count."""
    vals = []
    for i in range(count):
        e = Fraction(i) + qoff
        vals.append(_endpoint_power(v, e + 1) / Interval.from_fraction(e + 1))
    return _read_only(IArr.from_intervals(vals))


# ----------------------------------------------------------------------
# one refinement level as stacks
# ----------------------------------------------------------------------

class _Layout:
    """The rectangles of one refinement level in the order their
    contributions take them: those on a vanishing edge first, then by class
    and local box, so that the rectangles of one class and local box, which
    share every corner table, are consecutive.

    order[j] is the position in the level of the j-th rectangle.  edges are
    the distinct edges (a, b), x and y edges alike -- the tables
    of one interval are one table --, ix and iy each rectangle's index into
    them, domain its local x and y intervals and box the number of its class
    and local box; the arrays are read-only, so that the base grid's layout
    (_grid_layout) serves every sweep.  The engine adds the stacks of the
    edges' factor tables to a copy (_Engine.layout)."""

    def __init__(self, rects):
        edges = {}
        ix = [edges.setdefault((r.x0, r.x1), len(edges)) for r in rects]
        iy = [edges.setdefault((r.y0, r.y1), len(edges)) for r in rects]
        self.edges = tuple(edges)
        # local ends (0, h) mark a vanishing edge, (-h/2, h/2) any other
        ends = [_local_edge(*k)[1:] for k in self.edges]
        local = {}
        lid = [local.setdefault(e, len(local)) for e in ends]
        boxes = {}
        box = [boxes.setdefault((lid[i], lid[j]), len(boxes)) for i, j in zip(ix, iy)]
        order = sorted(range(len(rects)), key=lambda b: (not (rects[b].van_x or rects[b].van_y), box[b]))
        self.order, self.rects = tuple(order), tuple(rects[b] for b in order)
        self.ix, self.iy, self.box = (np.array(v, dtype=np.intp)[order] for v in (ix, iy, box))
        dom = IArr.from_intervals([_frac_interval(*e) for e in ends])
        self.domain = (dom[self.ix], dom[self.iy])
        for a in (self.ix, self.iy, self.box):
            a.flags.writeable = False
        for d in self.domain:
            _read_only(d)
        self.reduced = self.plain = self.cos = None

    def groups(self, items: list) -> list:
        """The runs of one class and local box among the rectangles at the
        positions items (ascending): (slice of items, one rectangle)."""
        box = self.box[items]
        cut = [0, *(np.flatnonzero(box[1:] != box[:-1]) + 1).tolist(), len(box)]
        return [(slice(a, b), self.rects[items[a]]) for a, b in zip(cut, cut[1:])]


@lru_cache(maxsize=8)
def _grid_layout(m: int) -> _Layout:
    """The layout of the base grid _grid(m), built once per process."""
    return _Layout(_grid(m))


def _corners(rect: Rect, e: Fraction, nx: int, ny: int) -> list:
    """Signed corner tables of a tensor antiderivative over the rectangle's
    local box: (X, Y, sign), the table of x^(i+qx) y^(j+qy) being X outer Y,
    for the corner tables X of x^(i+qx) at each x end and Y of y^(j+qy) at
    each y end, negative at the two mixed corners, where qx = e on a
    vanishing x edge and 0 otherwise (qy alike).  A lower end at the
    expansion point contributes zero and is skipped."""
    qx = e if rect.van_x else Fraction(0)
    qy = e if rect.van_y else Fraction(0)
    (lx0, lx1), (ly0, ly1) = rect.local_x(), rect.local_y()
    xends = ((lx1, 1),) if lx0 == 0 else ((lx1, 1), (lx0, -1))
    yends = ((ly1, 1),) if ly0 == 0 else ((ly1, 1), (ly0, -1))
    return [
        (_corner_table(xe, qx, nx), _corner_table(ye, qy, ny), xs * ys)
        for xe, xs in xends
        for ye, ys in yends
    ]


def _integrals(coeffs: IArr, groups: list, e: Fraction) -> IArr:
    """For every item of the consecutive groups (_Layout.groups), counted
    from the first group's start: sum_ij coeffs[b, i, j] * integral of
    x^(i+qx) y^(j+qy) over the item's local box (qx, qy as in _corners).
    The coefficient enters each corner term, since intervals do not
    distribute, and the terms are added from zero in corner order."""
    base = groups[0][0].start
    out = IArr.zeros(groups[-1][0].stop - base)
    for items, rect in groups:
        at = slice(items.start - base, items.stop - base)
        c = coeffs[at]
        acc = IArr.zeros(len(c))
        for X, Y, sign in _corners(rect, e, *c.shape[1:]):
            term = (c * iv_outer(X, Y)).sum(axis=(1, 2))
            acc = acc + (term if sign > 0 else -term)
        out[at] = acc
    return out


# ----------------------------------------------------------------------
# sweep engine
# ----------------------------------------------------------------------

@dataclass
class QuadConfig:
    degree: int = 6
    grid_m: int = 16
    max_depth: int = 12
    workers: int = 1

    def __post_init__(self):
        if self.degree < 2:
            raise UsageError(f"PSA degree must be >= 2, got {self.degree}")
        if self.grid_m < 1:
            raise UsageError(f"grid_m must be >= 1, got {self.grid_m}")
        if self.max_depth < 0:
            raise UsageError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")


class _EtaFourier:
    """A sine series over odd modes (eta in the pipeline case, or xi) with
    its exact coefficient matrix and the interval matrix of its Laplacian."""

    def __init__(self, eta: FourierApproximation):
        self.modes = tuple(int(m) for m in eta.modes)
        self.coeffs = IArr.exact(np.asarray(eta.coeffs, dtype=float))
        m = np.array(self.modes, dtype=float)
        fac = IArr.exact(-(m[:, None] ** 2 + m[None, :] ** 2))
        self.lap = fac * self.coeffs * PI.sqr()


@dataclass
class _Request:
    residual_p: Fraction | None = None
    gram_freqs: tuple | None = None
    powers: tuple = ()  # one xi per integral: None (xi = 1), an Interval or an _EtaFourier
    res_width: float | None = None
    gram_width: float | None = None
    power_width: float | None = None


@dataclass
class _RectOut:
    """The contributions of a leaf rectangle.  sums holds every integral
    the request asks for, in one row: the residual square, the integrals of
    eta^q xi, then the gram table row by row.  [rng_min, rng_max] encloses u
    on the rectangle, and center_lo is the lower end of the constant
    coefficient of an interior rectangle's model (-inf on an edge
    rectangle).  over_budget is 1 for a leaf kept at the depth limit
    although wider than its share of the width budgets."""

    sums: IArr
    rng_min: float
    rng_max: float
    center_lo: float
    over_budget: int = 0


class _Engine:
    def __init__(self, eta: _EtaFourier, q: Fraction, cfg: QuadConfig, req: _Request):
        # cos(f pi (1 - x)) = cos(f pi x) needs f even; an odd frequency
        # breaks the one-quadrant reduction
        if req.gram_freqs is not None and any(f % 2 for f in req.gram_freqs):
            raise UsageError(
                "gram frequencies must be even: use odd mode indices only, "
                f"got frequencies {list(req.gram_freqs)}"
            )
        for xi in req.powers:
            if isinstance(xi, _EtaFourier) and xi.modes != eta.modes:
                msg = f"xi has modes {list(xi.modes)}, eta {list(eta.modes)}"
                raise UsageError(f"a sine-series xi must have eta's modes: {msg}")
        self.eta = eta
        self.cfg = cfg
        self.req = req
        self.n = cfg.degree
        self.q = q
        # the residual's Laplacian and a sine-series xi take the plain sines
        self.plain = req.residual_p is not None or any(isinstance(xi, _EtaFourier) for xi in req.powers)

    # -------------------- one refinement level --------------------

    def layout(self, rects) -> _Layout:
        """The rectangles laid out (_Layout), with the stacks of their edges'
        factor tables the level needs: the sines, reduced on the vanishing
        edges, and the plain sines when the residual or a sine-series xi
        needs them, fetched together, and the gram cosines.  The whole base
        grid -- _grid's own tuple, the serial sweep's first level -- takes a
        copy of the layout built once per process; the tables are fetched
        for every level."""
        m = self.cfg.grid_m
        lay = copy.copy(_grid_layout(m)) if rects is _grid(m) else _Layout(rects)
        kinds = (True, False) if self.plain else (True,)
        sines = [IArr.stack(t) for t in _trig_tables(self.eta.modes, lay.edges, 0, kinds, self.n)]
        lay.reduced, lay.plain = sines[0], (sines[1] if self.plain else None)
        if self.req.gram_freqs is not None:
            lay.cos = IArr.stack(_trig_tables(self.req.gram_freqs, lay.edges, 1, (False,), self.n)[0])
        return lay

    def _tensor_models(self, t: IArr, a_iv: IArr, ix, iy, domain) -> PowerSeries2D:
        """sum_ij a_ij f_i(x) f_j(y) on every rectangle whose x and y edges
        are ix and iy, one batch item each, with f_i in the stack t of the
        edges' sine tables.  The product of a table with a_iv is formed once
        per edge, all edges as the rows of one matrix."""
        y = t[iy]
        y_t = IArr(np.swapaxes(y.lo, 1, 2), np.swapaxes(y.hi, 1, 2))
        ta = iv_matmul(IArr(t.lo.reshape(-1, t.shape[2]), t.hi.reshape(-1, t.shape[2])), a_iv)
        ta = IArr(ta.lo.reshape(t.shape), ta.hi.reshape(t.shape))
        return PowerSeries2D(ivarray.iv_matmul(ta[ix], y_t), domain)

    def reduced_models(self, lay: _Layout) -> PowerSeries2D:
        """Taylor models, in each rectangle's local coordinates, of eta
        divided by the monomial of its class: x*y on S11, y on S01, x on S10,
        1 on S00; one batch item per rectangle, in the layout's order."""
        return self._tensor_models(lay.reduced, self.eta.coeffs, lay.ix, lay.iy, lay.domain)

    def eval_level(self, rects) -> list:
        """Evaluate rectangles as one batch, laid out once: their reduced
        models, one t^q root, whose verdict is the only positivity check, and
        the contributions of those it passes.  Per rectangle, in order: (its
        contributions, whether every one of them fits its share of the width
        budgets), or the PositivityError or IntervalDomainError that
        evaluating it alone raises, naming the rectangle."""
        lay = self.layout(rects)
        v_red = self.reduced_models(lay)
        red = v_red.range()
        w, results = ps_root(v_red, self.q, red)  # in the layout's order
        ok = [j for j, exc in enumerate(results) if exc is None]
        if ok:
            for j, res in zip(ok, self.contributions(lay, ok, v_red[ok], w[ok], red[ok])):
                results[j] = res
        out = [None] * len(rects)
        for b, rect, res in zip(lay.order, lay.rects, results):
            out[b] = _on_rect(res, rect) if isinstance(res, Exception) else res
        return out

    def contributions(self, lay: _Layout, items: list, v_red: PowerSeries2D, w: PowerSeries2D, red: IArr) -> list:
        """The contributions (_RectOut) of the rectangles at the positions
        items (ascending) of the layout, and whether every integral fits its
        share of the width budgets, or an IntervalDomainError if one of
        them is not finite; from the batches of their reduced models, their
        t^q roots and their reduced ranges.

        The integrals are computed as stacks, over the runs of rectangles
        of one class and local box that share their corner tables, and
        joined into one row per rectangle; every rectangle's contributions
        have the bits of the rectangle evaluated alone."""
        groups = lay.groups(items)
        ix, iy = lay.ix[items], lay.iy[items]
        req = self.req
        n = len(items)
        cols, budget = [], []  # (n, k) stacks, and the width budget of each of their entries

        def add(a: IArr, width):
            cols.append(IArr(a.lo.reshape(n, -1), a.hi.reshape(n, -1)))
            budget.extend([math.inf if width is None else width] * cols[-1].shape[1])

        if req.residual_p is not None:
            lap = self._tensor_models(lay.plain, self.eta.lap, ix, iy, v_red.domain)
            add(self._residuals(groups, v_red, w, lap), req.res_width)
        for xi in req.powers:
            if xi is None:
                prod = w.coeffs
            elif isinstance(xi, Interval):
                prod = w.coeffs * xi
            else:
                xi_model = self._tensor_models(lay.plain, xi.coeffs, ix, iy, v_red.domain)
                prod = iv_conv2d_batch(w.coeffs, xi_model.coeffs)
            add(_integrals(prod, groups, self.q), req.power_width)
        if lay.cos is not None:
            add(self._gram_tables(groups, w, lay.cos[ix], lay.cos[iy]), req.gram_width)
        sums = IArr(*(np.concatenate([getattr(c, end) for c in cols], axis=1) for end in ("lo", "hi")))
        # each entry's width, rounded up, against its share of its budget;
        # NaN fails every comparison, so that test would pass it
        finite = np.isfinite(sums.lo).all(axis=1) & np.isfinite(sums.hi).all(axis=1)
        area = np.repeat([rect.area for _, rect in groups], [at.stop - at.start for at, _ in groups])
        ok = ~(sums.width() > np.array(budget) * area[:, None]).any(axis=1)
        # u = (class monomial) * eta_reduced over the rectangle, and the
        # constant coefficient of an interior rectangle's model; both are
        # finite, as ps_root passed red as finite: the monomial is at most
        # 1/2 on the quadrant, and red contains the constant coefficient
        u_rng, c0, center = red.copy(), v_red.const_coeff(), np.full(n, -math.inf)
        for at, r in groups:
            if not (r.van_x or r.van_y):
                center[at] = c0.lo[at]
                continue
            mon = IArr.exact(np.ones(at.stop - at.start))
            if r.van_x:
                mon = mon * v_red.domain[0][at]
            if r.van_y:
                mon = mon * v_red.domain[1][at]
            u_rng[at] = mon * red[at]
        return [
            (_RectOut(sums[j], lo, hi, c), bool(ok[j])) if finite[j]
            else IntervalDomainError("non-finite integral")
            for j, (lo, hi, c) in enumerate(zip(u_rng.lo.tolist(), u_rng.hi.tolist(), center.tolist()))
        ]

    def _gram_tables(self, groups: list, w: PowerSeries2D, cx: IArr, cy: IArr) -> IArr:
        """Each item's cosine-pair table T[fx, fy], the integral of
        w cos(fx pi x) cos(fy pi y) over its local box, from the stacks cx and
        cy of its cosine factor tables: per corner (X, Y, sign), added in
        corner order, cx^T ((Hx w) Hy) cy with Hx[a, i] = X[a + i] (Hy alike,
        and symmetric), Hx w Hy being the correlation of X outer Y with w.

        Soundness: the top rows of w and of the factor tables hold remainders
        that vary pointwise.  On a corner quadrant x^a y^b has one sign and
        the weight, what w encloses times x^qx y^qy, is >= 0, so by the mean
        value theorem for integrals entry [a, b] of Hx w Hy (X and Y are
        exact) encloses the integral of x^a y^b times the weight, and
        cx[a] cy[b] may be taken out of it.  (cx^T Hx) w (Hy cy) would take
        w's coefficients out of an integrand that changes sign.  The last
        product takes cy's top row out of the sum over a, which needs the
        integral over x of cos(fx pi x) times the weight to keep one sign in
        y on the quadrant; the sweep does not verify that."""
        n = self.n
        cx_t = IArr(np.swapaxes(cx.lo, 1, 2), np.swapaxes(cx.hi, 1, 2))
        out = IArr.zeros((len(cy),) + (cy.shape[2],) * 2)
        for at, rect in groups:
            t = None
            for X, Y, sign in _corners(rect, self.q, 2 * n + 1, 2 * n + 1):
                hx, hy = (IArr(*(sliding_window_view(a, n + 1) for a in (v.lo, v.hi))) for v in (X, Y))
                corr = ivarray.iv_matmul(ivarray.iv_matmul(hx, w.coeffs[at]), hy)
                f = ivarray.iv_matmul(ivarray.iv_matmul(cx_t[at], corr), cy[at])
                f = f if sign > 0 else -f
                t = f if t is None else t + f
            out[at] = t
        return out

    def _residuals(self, groups: list, v_red: PowerSeries2D, w: PowerSeries2D, lap: PowerSeries2D) -> IArr:
        """Each item's integral of (Delta u + u^p)^2 over its rectangle, from
        the models of eta reduced, its t^q root and the Laplacian of eta.
        The rectangles on a vanishing edge come first, then the interior."""
        p = self.req.residual_p
        u_pow = w * v_red  # u^(1+q) = u^p inside, [eta]^p on an edge rectangle
        out = IArr.zeros(v_red.batch)
        edge = [g for g in groups if g[1].van_x or g[1].van_y]
        inner = groups[len(edge):]
        if inner:
            # single model of Delta u + u^p; widths couple to the small
            # residual instead of the huge separate pieces
            at = slice(inner[0][0].start, inner[-1][0].stop)
            r = lap.coeffs[at] + u_pow.coeffs[at]
            out[at] = _integrals(iv_conv2d_batch(r, r), inner, Fraction(0))
        if edge:
            # local three-piece expansion
            at = slice(edge[0][0].start, edge[-1][0].stop)
            lp = lap.coeffs[at]
            lp_op = ConvOperand(lp)  # the right factor of both products
            piece1 = _integrals(lp_op.conv(lp), edge, Fraction(0))
            piece2 = _integrals(lp_op.conv(u_pow.coeffs[at]), edge, p)
            two_p = 2 * p
            v = v_red[at]
            if two_p.denominator == 1:
                acc, v_op = v, ConvOperand(v.coeffs)
                for _ in range(two_p.numerator - 1):
                    acc = acc.times(v_op)
            else:
                acc = (w[at] * w[at]) * (v * v)
            piece3 = _integrals(acc.coeffs, edge, two_p)
            out[at] = piece1 + piece2 * Interval(2.0) + piece3
        return out

    # -------------------- level-synchronous driver --------------------

    def sweep(self, rects) -> list[_RectOut]:
        """The leaves of the rectangles' bisection trees, in no particular
        order, evaluated one refinement level at a time.  The error raised is
        the one the depth-first recursion over each rectangle in turn raises:
        a node's key is its path from the base rectangles (the base index,
        then 0 or 1 per bisection), so key order is depth-first order, and
        nothing after the first error in that order is evaluated further."""
        # the first level is rects itself, so that layout knows the base grid
        level, batch = [((i,), rect) for i, rect in enumerate(rects)], rects
        leaves = []
        first_error = None  # (key, error)
        while level:
            bisected = []
            for (key, rect), res in zip(level, self.eval_level(batch)):
                at_limit = rect.depth >= self.cfg.max_depth
                if isinstance(res, Exception):
                    if at_limit or isinstance(res, IntervalDomainError):
                        if first_error is None or key < first_error[0]:
                            first_error = (key, res)
                        continue
                else:
                    out, ok = res
                    if ok or at_limit:
                        if not ok:  # at the limit: keep the sound-but-wide result, flagged
                            out.over_budget += 1
                        leaves.append(out)
                        continue
                r1, r2 = rect.bisect()
                bisected += [(key + (0,), r1), (key + (1,), r2)]
            if first_error is not None:
                bisected = [node for node in bisected if node[0] < first_error[0]]
            level = bisected
            batch = [r for _, r in level]
        if first_error is not None:
            raise first_error[1]
        return leaves

    @ivarray.single_blas_thread()
    def run(self) -> tuple:
        """The sums, range bounds and counts of the square (pipeline_sweep),
        from the leaves of the quadrant, which the three other quadrants
        mirror: the sums are four times the quadrant's (_total)."""
        m = self.cfg.grid_m
        rects = _grid(m)
        workers = min(self.cfg.workers, m)
        ctx = _fork_context() if workers > 1 else None
        if ctx is None:
            leaves = self.sweep(rects)
        else:
            from concurrent.futures import ProcessPoolExecutor

            # each worker sweeps one block of ceil(M / workers) whole grid
            # rows as one batch; map yields the blocks in order, so the
            # first failing block in that order raises, as in the serial
            # sweep, and cancels those not started.  The workers inherit the
            # one BLAS thread.
            # The executor's shutdown lets its workers exit; Pool.terminate
            # kills them, and a worker killed while it sends a result leaves
            # the result queue locked, which hangs the pool.
            size = -(-m // workers) * m
            blocks = [rects[i : i + size] for i in range(0, len(rects), size)]
            with ProcessPoolExecutor(len(blocks), ctx, _init_worker, (self,)) as pool:
                leaves = [out for block in pool.map(_worker_sweep, blocks) for out in block]
        lows = [leaf.rng_min for leaf in leaves]
        ranges = (min(lows), max(leaf.rng_max for leaf in leaves), max(lows), max(leaf.center_lo for leaf in leaves))
        stats = {"rects": 4 * len(leaves), "over_budget": 4 * sum(leaf.over_budget for leaf in leaves)}
        return _total(IArr.stack([leaf.sums for leaf in leaves])), ranges, stats


def _on_rect(exc: Exception, rect: Rect) -> Exception:
    """exc, a PositivityError or an IntervalDomainError, as an error of its
    kind that names the rectangle; a PositivityError keeps its range."""
    msg = f"{exc} on {rect.describe()}"
    err = PositivityError(msg, rng=exc.rng, rect=rect) if isinstance(exc, PositivityError) else IntervalDomainError(msg)
    err.__cause__ = exc
    return err


def _total(rows: IArr) -> IArr:
    """Four times the sum of the rows (L, k), per column: each end's exact
    sum rounded outward once, whatever the order of the rows.  math.fsum
    gives s, the float nearest the sum, and the sign of the remainder
    sum - s, which is not rounded to 0, as it is a multiple of 2^-1074 like
    every float.  Scaling the rounded sum by 4 is exact unless it
    overflows; a total that is not finite, or whose partial sums overflow,
    raises IntervalDomainError."""
    ends = []
    try:
        for a, to in ((rows.lo, -math.inf), (rows.hi, math.inf)):
            for col in a.T.tolist():
                s = math.fsum(col) + 0.0  # + 0.0 turns -0.0 into 0.0
                rem = math.fsum(col + [-s])
                ends.append(4.0 * (math.nextafter(s, to) if rem and (rem > 0) == (to > 0) else s))
    except (OverflowError, ValueError):  # a partial sum overflows, or inf meets -inf
        ends = [math.nan]
    if not np.isfinite(ends).all():
        raise IntervalDomainError("non-finite total of the leaf contributions")
    return IArr(*np.reshape(ends, (2, -1)))


def _fork_context():
    """The fork start method, or None on a platform without one (the sweep
    then runs serially).  multiprocessing is imported here, so that a serial
    sweep does not pay for importing it."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# The engine of the sweep in progress, in a forked worker process.  It is set
# by the pool initializer; under fork it is inherited, not pickled.
_worker_engine = None


def _init_worker(engine: _Engine):
    global _worker_engine
    _worker_engine = engine


def _worker_sweep(rects) -> list[_RectOut]:
    return _worker_engine.sweep(rects)


def _wrap_xi(xi):
    if xi is None or isinstance(xi, Interval):
        return xi
    if isinstance(xi, (int, float)):
        return Interval(float(xi))
    if isinstance(xi, FourierApproximation):
        return _EtaFourier(xi)
    raise UsageError(f"unsupported xi specification {type(xi)!r}")


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def integral_power(
    eta: FourierApproximation,
    xi,
    q: Fraction,
    cfg: QuadConfig | None = None,
    width_target: float | None = None,
):
    """Verified enclosure of the integral over the unit square of eta^q xi,
    for eta positive inside and vanishing on the boundary."""
    cfg = cfg or QuadConfig()
    q = Fraction(q)
    if not (0 < q <= 1):
        raise UsageError(f"exponent q must lie in (0, 1], got {q}")
    req = _Request(powers=(_wrap_xi(xi),), power_width=width_target)
    engine = _Engine(_EtaFourier(eta), q, cfg, req)
    return engine.run()[0][0].item()


def gram_indices_freqs(indices):
    return sorted(
        {abs(i - k) for i, _ in indices for k, _ in indices}
        | {i + k for i, _ in indices for k, _ in indices}
        | {abs(j - l) for _, j in indices for _, l in indices}
        | {j + l for _, j in indices for _, l in indices}
    )


def gram_from_tables(t: IArr, freqs, indices, p: Fraction) -> IArr:
    """Assemble (p |eta|^(p-1) phi_ij, phi_kl) from the cosine-pair tables
    T[fx, fy] = integral eta^(p-1) cos(fx pi x) cos(fy pi y)."""
    fpos = np.zeros(max(freqs) + 1, dtype=np.intp)  # frequency -> position in freqs
    fpos[list(freqs)] = np.arange(len(freqs))
    i, j = (np.array(v)[:, None] for v in zip(*indices))
    dx, sx, dy, sy = (fpos[v] for v in (abs(i - i.T), i + i.T, abs(j - j.T), j + j.T))
    quarter = Interval.from_fraction(Fraction(1, 4)) * Interval.from_fraction(Fraction(p))
    gram = (((t[dx, dy] - t[sx, dy]) - t[dx, sy]) + t[sx, sy]) * quarter
    if not (np.isfinite(gram.lo).all() and np.isfinite(gram.hi).all()):
        raise IntervalDomainError("non-finite gram matrix")
    return gram


def sup_weight(p: Fraction, ranges: tuple) -> Interval:
    """Enclosure of || p |u_hat|^(p-1) ||_inf from the sweep's range bounds
    of u_hat."""
    lo, hi, _, center_lo = ranges
    p = Fraction(p)
    m = Interval(max(center_lo, 0.0), max(hi, abs(lo)))
    return Interval.from_fraction(p) * iv_pow(m, p - 1)


def pipeline_sweep(
    u_hat: FourierApproximation,
    p: Fraction,
    indices,
    cfg: QuadConfig | None = None,
    res_width: float | None = None,
    gram_width: float | None = None,
):
    """One shared sweep for the certificate pipeline: the residual norm
    || Delta u_hat + u_hat^p ||_L2, the weighted gram matrix
    (p u_hat^(p-1) phi_ij, phi_kl) over the index list, and range bounds of
    u_hat.  The per-rectangle t^q roots are computed once and reused.

    Returns (res_norm, gram_matrix, ranges, stats).  ranges is (min_lo,
    max_hi, witness_lo, center_lo) over the square: the rectangle-range
    extremes, the best single-rectangle guaranteed lower bound (a positivity
    witness), and the best lower bound of an interior rectangle's constant
    coefficient (a verified lower bound of a point value near the peak).
    stats counts the leaf rectangles of the whole square and those kept over
    budget."""
    cfg = cfg or QuadConfig()
    p = Fraction(p)
    freqs = gram_indices_freqs(indices)
    req = _Request(
        residual_p=p,
        gram_freqs=tuple(freqs),
        res_width=res_width,
        gram_width=gram_width,
    )
    engine = _Engine(_EtaFourier(u_hat), p - 1, cfg, req)
    sums, ranges, stats = engine.run()
    sq = sums[0].item()  # then the gram table
    lo = max(sq.lo, 0.0)
    res_norm = iv_pow(Interval(lo, max(sq.hi, lo)), Fraction(1, 2))
    shape = (len(freqs), len(freqs))
    t = IArr(sums.lo[1:].reshape(shape), sums.hi[1:].reshape(shape))
    gram = gram_from_tables(t, freqs, indices, p)
    return res_norm, gram, ranges, stats
