"""Verified integration over the unit square of eta^q * xi with eta > 0
inside and eta = 0 on the boundary.

The square is covered by one quadrant, by the even symmetry of odd modes:
eta and xi hold only odd sine modes and the gram tables only even cosine
frequencies, so every integrand is even about x = 1/2 and y = 1/2 and the
integral over the square is four times the integral over the standard
quadrant [0, 1/2]^2, where eta vanishes exactly on the left and lower
edges.  The quadrant is covered by an M x M grid of closed rectangles
classified by adjacency to the vanishing edges:

    S11  touches both edges (Taylor expansion at the corner, factor x*y)
    S01  touches only the lower edge (expansion at the lower-edge midpoint,
         factor y)
    S10  touches only the left edge (factor x)
    S00  touches neither (expansion at the center, no factor)

On each rectangle the reduced integrand eta / (class monomial) is enclosed
by a 2-D Taylor model, checked to be strictly positive, raised to the
fractional power q by series composition, multiplied by the xi model, and
integrated term by term.  Monomial integrals evaluate the antiderivative
at the four corners term by term -- the interval coefficient
multiplies every corner term separately, because the distributive law does
not hold for intervals.

Rectangles whose positivity check fails, or whose enclosure is wider than
its share of the caller's width budget, are bisected along their longer
edge (tie: x) down to a depth limit.  The sweep runs level by level: the
rectangles of one refinement level are evaluated as one batch of Taylor
models, with one composition for all of them, and those bisected make up
the next level.  Leaves are folded, and errors raised, as a depth-first
recursion over each base rectangle would, so the batching does not show in
the results.  With more than one worker the grid rows of base rectangles
are handed out to forked worker processes, each sweeping its row as a
batch; contributions are summed in base-rectangle order regardless of the
worker count, so results are reproducible.

One sweep engine evaluates every rectangle, and two functions run it:

    pipeline_sweep  the certificate's sweep: the residual norm, the weighted
                    gram matrix of the eigenvalue pencil and the range bounds
                    of u_hat, from one composition per rectangle
    integral_power  the integral of eta^q xi over the square, for xi = 1, a
                    constant or a sine series
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import IntervalDomainError, PositivityError, UsageError
from .galerkin import FourierApproximation
from .interval import PI, Interval, iv_cos, iv_pow, iv_sin
from .ivarray import IArr, iv_conv2d_full, iv_corr2d, iv_matmul, iv_outer
from .psa import ElemFn, PowerSeries2D, ps_compose

__all__ = [
    "Rect",
    "RectClass",
    "Subdivision",
    "MonomialTerm",
    "QuadConfig",
    "integrate_monomial",
    "integral_power",
    "pipeline_sweep",
    "gram_from_tables",
    "sup_weight",
]

_HALF = Fraction(1, 2)


class RectClass(Enum):
    S11 = "S11"
    S01 = "S01"
    S10 = "S10"
    S00 = "S00"


def _classify(x0: Fraction, y0: Fraction) -> RectClass:
    if x0 == 0 and y0 == 0:
        return RectClass.S11
    if y0 == 0:
        return RectClass.S01
    if x0 == 0:
        return RectClass.S10
    return RectClass.S00


@dataclass(frozen=True)
class Rect:
    """Closed rectangle in standard-quadrant coordinates with exact rational
    corners.  The class encodes adjacency to the vanishing edges x=0 / y=0."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction
    cls: RectClass
    depth: int = 0

    @classmethod
    def make(cls, x0, x1, y0, y1, depth: int = 0, rect_cls=None) -> "Rect":
        x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
        if not (x0 < x1 and y0 < y1):
            raise UsageError("degenerate rectangle")
        return cls(x0, x1, y0, y1, rect_cls or _classify(x0, y0), depth)

    # vanishing flags per axis
    @property
    def van_x(self) -> bool:
        return self.cls in (RectClass.S11, RectClass.S10)

    @property
    def van_y(self) -> bool:
        return self.cls in (RectClass.S11, RectClass.S01)

    def expansion_x(self) -> Fraction:
        return Fraction(0) if self.van_x else (self.x0 + self.x1) / 2

    def expansion_y(self) -> Fraction:
        return Fraction(0) if self.van_y else (self.y0 + self.y1) / 2

    def local_x(self) -> tuple[Fraction, Fraction]:
        cx = self.expansion_x()
        return self.x0 - cx, self.x1 - cx

    def local_y(self) -> tuple[Fraction, Fraction]:
        cy = self.expansion_y()
        return self.y0 - cy, self.y1 - cy

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
            f"{self.cls.value} [{self.x0},{self.x1}]x[{self.y0},{self.y1}]"
            f" depth={self.depth}"
        )


@dataclass(frozen=True)
class Subdivision:
    """Uniform M x M grid of the standard quadrant."""

    grid_m: int = 16

    def __post_init__(self):
        if self.grid_m < 1:
            raise UsageError("grid parameter must be >= 1")

    def rects(self):
        m = self.grid_m
        h = _HALF / m
        out = []
        for i in range(m):
            for j in range(m):
                out.append(Rect.make(i * h, (i + 1) * h, j * h, (j + 1) * h))
        return out


@dataclass(frozen=True)
class MonomialTerm:
    coeff: Interval
    xexp: Fraction
    yexp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xexp", Fraction(self.xexp))
        object.__setattr__(self, "yexp", Fraction(self.yexp))
        if self.xexp <= -1 or self.yexp <= -1:
            raise UsageError("exponents must exceed -1 for integrability")


def _endpoint_power(v: Fraction, e: Fraction) -> Interval:
    """v^e for an exact rational endpoint; fractional e requires v >= 0."""
    if v == 0:
        return Interval(0.0) if e > 0 else Interval(1.0)
    if e.denominator == 1 and e >= 0:
        return Interval.from_fraction(v**e.numerator)
    iv = Interval.from_fraction(v)
    return iv_pow(iv, e)


def integrate_monomial(term: MonomialTerm, rect: Rect) -> Interval:
    """Integral of coeff * x^xexp * y^yexp over the rectangle, evaluating the
    antiderivative difference corner by corner with the coefficient inside
    each term; intervals do not distribute, so factoring the coefficient
    across corner terms would be unsound."""
    ex = term.xexp + 1
    ey = term.yexp + 1
    if term.xexp.denominator != 1 and rect.x0 < 0:
        raise UsageError("fractional x-exponent over negative x")
    if term.yexp.denominator != 1 and rect.y0 < 0:
        raise UsageError("fractional y-exponent over negative y")
    den = Interval.from_fraction(ex * ey)
    c = term.coeff / den

    def corner(xe: Fraction, ye: Fraction) -> Interval:
        return c * _endpoint_power(xe, ex) * _endpoint_power(ye, ey)

    t22 = corner(rect.x1, rect.y1)
    t12 = corner(rect.x0, rect.y1)
    t21 = corner(rect.x1, rect.y0)
    t11 = corner(rect.x0, rect.y0)
    return (t22 - t12) - (t21 - t11)


# ----------------------------------------------------------------------
# 1-D trigonometric factor models
# ----------------------------------------------------------------------

def _inv_fact_fractions(n: int):
    return [Fraction(1, math.factorial(k)) for k in range(n + 3)]


def _sine_factor_matrix(
    modes, x0: Fraction, dom: Interval, degree: int, reduced: bool
) -> IArr:
    """Coefficient matrix (degree+1, n_modes) of Taylor models in the local
    variable t for sin(m pi (x0 + t)), or sin(m pi t)/t when reduced (then
    x0 must be 0 and dom = [0, w])."""
    if not reduced:
        return _trig_factor_matrix(modes, x0, dom, degree, phase=0)
    if x0 != 0:
        raise UsageError("reduced sine factor requires expansion at 0")
    n = degree
    out = IArr.zeros((n + 1, len(modes)))
    inv_fact = _inv_fact_fractions(n + 3)
    omegas = [Interval(float(m)) * PI for m in modes]
    # sin(w t)/t = sum_{even k} (-1)^(k/2) w^(k+1) t^k / (k+1)!
    for col, w in enumerate(omegas):
        wp = w  # w^(k+1) running power
        for k in range(0, n + 1):
            if k % 2 == 0:
                sign = 1.0 if (k // 2) % 2 == 0 else -1.0
                out[k, col] = wp * Interval.from_fraction(inv_fact[k + 1] * int(sign))
            wp = wp * w
        # Lagrange remainder of the sine series divided by t, resorbed
        # into the degree-n coefficient
        if n % 2 == 0:
            order = n + 3  # sine orders <= n+2 are all present/zero
            extra = dom.sqr()
        else:
            order = n + 2
            extra = dom
        wmag = w.mag
        r = wmag**order / math.factorial(order) * (1.0 + 1e-12)
        r = math.nextafter(r, math.inf)
        rem = Interval(-r, r) * extra
        cur = out[n, col].item()
        out[n, col] = cur + rem
    return out


def _cosine_factor_matrix(freqs, x0: Fraction, dom: Interval, degree: int) -> IArr:
    """Taylor models of cos(f pi (x0 + t)) for every frequency (f may be 0)."""
    return _trig_factor_matrix(freqs, x0, dom, degree, phase=1)


def _trig_factor_matrix(freqs, x0: Fraction, dom: Interval, degree: int, phase: int) -> IArr:
    """Coefficient matrix (degree+1, len(freqs)) of Taylor models in t of
    sin(f pi (x0 + t) + phase pi/2): phase 0 gives sines, phase 1 cosines.
    The k-th derivative of sin(theta + phase pi/2) is entry k + phase of the
    cycle (sin, cos, -sin, -cos) at theta; the Lagrange remainder of order
    degree+1 is resorbed into the top coefficient."""
    n = degree
    out = IArr.zeros((n + 1, len(freqs)))
    inv_fact = _inv_fact_fractions(n + 3)
    for col, f in enumerate(freqs):
        if f == 0:  # sin 0 = 0 and cos 0 = 1, exactly
            out[0, col] = Interval(float(phase))
            continue
        w = Interval(float(f)) * PI
        theta = w * Interval.from_fraction(x0)
        s = iv_sin(theta)
        c = iv_cos(theta)
        cyc = (s, c, -s, -c)
        wp = Interval(1.0)
        for k in range(0, n + 1):
            out[k, col] = cyc[(k + phase) % 4] * wp * Interval.from_fraction(inv_fact[k])
            wp = wp * w
        r = w.mag ** (n + 1) / math.factorial(n + 1) * (1.0 + 1e-12)
        r = math.nextafter(r, math.inf)
        cur = out[n, col].item()
        out[n, col] = cur + Interval(-r, r) * dom
    return out


def _frac_interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(Interval.from_fraction(lo).lo, Interval.from_fraction(hi).hi)


# ----------------------------------------------------------------------
# models and corner integration on one rectangle
# ----------------------------------------------------------------------

def _model_domains(rect: Rect):
    lx0, lx1 = rect.local_x()
    ly0, ly1 = rect.local_y()
    return _frac_interval(lx0, lx1), _frac_interval(ly0, ly1)


def _tensor_models(sx: list, a_iv: IArr, sy: list, domain) -> PowerSeries2D:
    """sum_ij a_ij f_i(x) g_j(y) on every rectangle, from its per-mode
    factor tables sx[b] (of the f_i) and sy[b] (of the g_j)."""
    items = [iv_matmul(iv_matmul(x, a_iv), IArr(y.lo.T, y.hi.T)) for x, y in zip(sx, sy)]
    return PowerSeries2D(IArr(np.stack([c.lo for c in items]), np.stack([c.hi for c in items])), domain)


def _corner_table(v: Fraction, qoff: Fraction, count: int) -> IArr:
    """v^(e+1) / (e+1) for the exponents e = i + qoff, i < count."""
    vals = []
    for i in range(count):
        e = Fraction(i) + qoff
        vals.append(_endpoint_power(v, e + 1) / Interval.from_fraction(e + 1))
    return IArr.from_intervals(vals)


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
        if self.max_depth < 0:
            raise UsageError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")


class _EtaFourier:
    """A sine series over odd modes (eta in the pipeline case, or xi) with
    its exact coefficient matrix and the interval matrix of its Laplacian."""

    def __init__(self, eta: FourierApproximation):
        self.modes = eta.modes
        self.coeffs = IArr.exact(np.asarray(eta.coeffs, dtype=float))
        m = self.modes.astype(float)
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
    res_sq: Interval = None
    t_table: IArr = None
    powers: list = None
    rng_min: float = math.inf
    rng_max: float = -math.inf
    witness_lo: float = -math.inf
    center_lo: float = -math.inf
    center_hi: float = -math.inf
    rect_count: int = 0
    over_budget: int = 0

    def merge(self, other: "_RectOut"):
        if other.res_sq is not None:
            self.res_sq = other.res_sq if self.res_sq is None else self.res_sq + other.res_sq
        if other.t_table is not None:
            self.t_table = other.t_table if self.t_table is None else self.t_table + other.t_table
        if other.powers is not None:
            if self.powers is None:
                self.powers = list(other.powers)
            else:
                self.powers = [a + b for a, b in zip(self.powers, other.powers)]
        self.rng_min = min(self.rng_min, other.rng_min)
        self.rng_max = max(self.rng_max, other.rng_max)
        self.witness_lo = max(self.witness_lo, other.witness_lo)
        self.center_lo = max(self.center_lo, other.center_lo)
        self.center_hi = max(self.center_hi, other.center_hi)
        self.rect_count += other.rect_count
        self.over_budget += other.over_budget
        return self


class _Engine:
    def __init__(self, eta: _EtaFourier, q: Fraction, cfg: QuadConfig, req: _Request):
        # cos(f pi (1 - x)) = cos(f pi x) needs f even; an odd frequency
        # breaks the one-quadrant reduction
        if req.gram_freqs is not None and any(f % 2 for f in req.gram_freqs):
            raise UsageError(
                "gram frequencies must be even: use odd mode indices only, "
                f"got frequencies {list(req.gram_freqs)}"
            )
        self.eta = eta
        self.cfg = cfg
        self.req = req
        self.sub = Subdivision(cfg.grid_m)
        self.n = cfg.degree
        self.q = q
        # one t^q for every rectangle, so its derivative constants are built once
        self.pow_q = ElemFn.pow_q(self.q)
        self._col_cache = {}

    # -------------------- cached 1-D machinery --------------------

    # the x and y tables of one interval are the same table: keys name the
    # interval, not the axis
    def sine_cols(self, a: Fraction, b: Fraction, van: bool, reduced: bool):
        key = ("sin", a, b, van, reduced)
        hit = self._col_cache.get(key)
        if hit is not None:
            return hit
        x0 = Fraction(0) if van else (a + b) / 2
        dom = _frac_interval(a - x0, b - x0)
        out = _sine_factor_matrix(self.eta.modes, x0, dom, self.n, reduced=reduced)
        self._col_cache[key] = out
        return out

    def cos_cols(self, a: Fraction, b: Fraction, van: bool):
        key = ("cos", a, b, van)
        hit = self._col_cache.get(key)
        if hit is not None:
            return hit
        x0 = Fraction(0) if van else (a + b) / 2
        dom = _frac_interval(a - x0, b - x0)
        out = _cosine_factor_matrix(self.req.gram_freqs, x0, dom, self.n)
        self._col_cache[key] = out
        return out

    def corner_vec(self, v: Fraction, qoff: Fraction, count: int):
        key = ("corner", v, qoff, count)
        hit = self._col_cache.get(key)
        if hit is not None:
            return hit
        out = _corner_table(v, qoff, count)
        self._col_cache[key] = out
        return out

    def corner_terms(self, rect: Rect, qx, qy, nx: int, ny: int, reduce) -> list:
        """Signed corner terms of a tensor antiderivative over the rectangle's
        local box: reduce(X outer Y) for the corner tables X of x^(i+qx) at each
        x end and Y of y^(j+qy) at each y end, negated at the two mixed corners.
        A lower end at the expansion point contributes zero and is skipped."""
        lx0, lx1 = rect.local_x()
        ly0, ly1 = rect.local_y()
        xends = ((lx1, 1),) if lx0 == 0 else ((lx1, 1), (lx0, -1))
        yends = ((ly1, 1),) if ly0 == 0 else ((ly1, 1), (ly0, -1))
        terms = []
        for xe, xsign in xends:
            xtab = self.corner_vec(xe, qx, nx)
            for ye, ysign in yends:
                f = reduce(iv_outer(xtab, self.corner_vec(ye, qy, ny)))
                terms.append(f if xsign * ysign > 0 else -f)
        return terms

    def poly_integral(self, coeffs: IArr, rect: Rect, qx: Fraction, qy: Fraction) -> Interval:
        """sum_ij coeffs[i,j] * integral x^(i+qx) y^(j+qy) over the local box,
        with the coefficient entering each of the four corner terms."""
        terms = self.corner_terms(
            rect, qx, qy, *coeffs.shape, lambda itab: (coeffs * itab).sum().item()
        )
        return sum(terms, Interval(0.0))

    # -------------------- one refinement level --------------------

    def reduced_models(self, rects) -> PowerSeries2D:
        """Taylor models, in each rectangle's local coordinates, of eta
        divided by the monomial of its class: x*y on S11, y on S01, x on S10,
        1 on S00; one batch item per rectangle."""
        sx = [self.sine_cols(r.x0, r.x1, r.van_x, reduced=r.van_x) for r in rects]
        sy = [self.sine_cols(r.y0, r.y1, r.van_y, reduced=r.van_y) for r in rects]
        doms = [_model_domains(r) for r in rects]
        domain = tuple(IArr.from_intervals([d[k] for d in doms]) for k in (0, 1))
        return _tensor_models(sx, self.eta.coeffs, sy, domain)

    def _full_models(self, rects, a_iv: IArr, domain) -> PowerSeries2D:
        """The sine series with coefficients a_iv on every rectangle,
        unreduced, over the domains of the rectangles' reduced models."""
        sx = [self.sine_cols(r.x0, r.x1, r.van_x, reduced=False) for r in rects]
        sy = [self.sine_cols(r.y0, r.y1, r.van_y, reduced=False) for r in rects]
        return _tensor_models(sx, a_iv, sy, domain)

    def eval_level(self, rects) -> list:
        """Evaluate rectangles as one batch: their reduced models, the
        positivity check and one composition for all.  Per rectangle, in
        order: (its contributions, whether every one of them fits its share
        of the width budgets), or the PositivityError or IntervalDomainError
        that evaluating it alone raises, the latter naming the rectangle."""
        v_red = self.reduced_models(rects)
        red = v_red.range()
        results = [None] * len(rects)
        live = []
        for b, rect in enumerate(rects):
            try:
                red_range = Interval(red.lo[b], red.hi[b])
            except IntervalDomainError as exc:
                results[b] = _on_rect(exc, rect)
                continue
            if red_range.lo <= 0.0:
                results[b] = PositivityError(
                    f"positivity check failed on {rect.describe()}",
                    rng=red_range,
                    rect=rect,
                )
            else:
                live.append((b, red_range))
        if not live:
            return results
        live_rects = [rects[b] for b, _ in live]
        v_live = v_red[[b for b, _ in live]]
        ws = self._compose(v_live)
        # the unreduced sine series that the contributions need
        lap = None
        if self.req.residual_p is not None:
            lap = self._full_models(live_rects, self.eta.lap, v_live.domain)
        xis = [
            self._full_models(live_rects, xi.coeffs, v_live.domain) if isinstance(xi, _EtaFourier) else xi
            for xi in self.req.powers
        ]
        for j, ((b, red_range), w) in enumerate(zip(live, ws)):
            rect = rects[b]
            try:
                if isinstance(w, Exception):
                    raise w  # the composition's error, handled as if raised here
                results[b] = self.rect_out(
                    rect,
                    red_range,
                    v_live[j],
                    w,
                    None if lap is None else lap[j],
                    [xi[j] if isinstance(xi, PowerSeries2D) else xi for xi in xis],
                )
            except IntervalDomainError as exc:
                results[b] = _on_rect(exc, rect)
            except PositivityError as exc:
                results[b] = exc
        return results

    def _compose(self, v_red: PowerSeries2D) -> list:
        """t^q of every model, as models of one item each; a model that the
        composition rejects gets the error it raises on its own."""
        try:
            w = ps_compose(self.pow_q, v_red)
        except (PositivityError, IntervalDomainError):
            out = []
            for b in range(v_red.batch):
                try:
                    out.append(ps_compose(self.pow_q, v_red[b]))
                except (PositivityError, IntervalDomainError) as exc:
                    out.append(exc)
            return out
        return [w[b] for b in range(w.batch)]

    def rect_out(self, rect: Rect, red_range: Interval, v_red, w, v_lap, xis) -> tuple[_RectOut, bool]:
        """One rectangle's contributions, and whether every one of them fits
        its share of the width budgets, from the range of its reduced model
        and these models of one item: the reduced model, its composition,
        the Laplacian of eta (for the residual) and each xi (an Interval or
        None as given)."""
        out = _RectOut(rect_count=1)
        area = rect.area
        van_x, van_y = rect.van_x, rect.van_y

        u_range = red_range
        if van_x or van_y:
            dx, dy = (d[0].item() for d in v_red.domain)
            mon_range = Interval(1.0)
            if van_x:
                mon_range = mon_range * dx
            if van_y:
                mon_range = mon_range * dy
            u_range = mon_range * red_range
        else:
            c0 = v_red.const_coeff()[0].item()
            out.center_lo = c0.lo
            out.center_hi = c0.hi
        out.rng_min = out.witness_lo = u_range.lo
        out.rng_max = u_range.hi

        qx_base = self.q if van_x else Fraction(0)
        qy_base = self.q if van_y else Fraction(0)
        w_coeffs = w.coeffs[0]

        ok = True

        if self.req.gram_freqs is not None:
            cx = self.cos_cols(rect.x0, rect.x1, van_x)
            cy = self.cos_cols(rect.y0, rect.y1, van_y)
            t_rect = self._gram_tables(w_coeffs, cx, cy, rect, qx_base, qy_base)
            # NaN fails every comparison, so the budget test below would
            # pass it; the scalar outputs are Intervals, which reject
            # non-finite endpoints when they are made
            if not (np.isfinite(t_rect.lo).all() and np.isfinite(t_rect.hi).all()):
                raise IntervalDomainError("non-finite gram table")
            out.t_table = t_rect
            if self.req.gram_width is not None and t_rect.max_width() > self.req.gram_width * area:
                ok = False

        if self.req.residual_p is not None:
            res = self._residual_piece(rect, v_red, w, v_lap)
            out.res_sq = res
            if self.req.res_width is not None and res.width > self.req.res_width * area:
                ok = False

        if self.req.powers:
            out.powers = []
            for xi in xis:
                val = self._power_piece(rect, w_coeffs, xi, qx_base, qy_base)
                out.powers.append(val)
                if self.req.power_width is not None and val.width > self.req.power_width * area:
                    ok = False

        return out, ok

    def _gram_tables(self, w_coeffs, cx, cy, rect, qx, qy) -> IArr:
        size = 2 * self.n + 1
        cx_t = IArr(cx.lo.T, cx.hi.T)

        def reduce(itab):  # itab: (2n+1, 2n+1) -> (nf, nf)
            return iv_matmul(iv_matmul(cx_t, iv_corr2d(itab, w_coeffs)), cy)

        terms = self.corner_terms(rect, qx, qy, size, size, reduce)
        return sum(terms[1:], terms[0])

    def _residual_piece(self, rect, v_red, w, v_lap) -> Interval:
        van_x, van_y = rect.van_x, rect.van_y
        p = self.req.residual_p
        if not (van_x or van_y):
            # single model of Delta u + u^p; widths couple to the small
            # residual instead of the huge separate pieces
            u_pow = w * v_red  # u^(1+q) = u^p
            r_model = (v_lap + u_pow).coeffs[0]
            sq = iv_conv2d_full(r_model, r_model)
            return self.poly_integral(sq, rect, Fraction(0), Fraction(0))
        # boundary rectangles: local three-piece expansion
        ex = Fraction(1) if van_x else Fraction(0)
        ey = Fraction(1) if van_y else Fraction(0)
        lap = v_lap.coeffs[0]
        piece1 = self.poly_integral(iv_conv2d_full(lap, lap), rect, Fraction(0), Fraction(0))
        red_pow = w * v_red  # [eta]^p
        cross = iv_conv2d_full(red_pow.coeffs[0], lap)
        piece2 = self.poly_integral(cross, rect, p * ex, p * ey)
        two_p = 2 * p
        if two_p.denominator == 1:
            acc = v_red
            for _ in range(two_p.numerator - 1):
                acc = acc * v_red
        else:
            acc = (w * w) * (v_red * v_red)
        piece3 = self.poly_integral(acc.coeffs[0], rect, two_p * ex, two_p * ey)
        return piece1 + Interval(2.0) * piece2 + piece3

    def _power_piece(self, rect, w_coeffs, xi, qx, qy) -> Interval:
        if xi is None:
            prod = w_coeffs
        elif isinstance(xi, Interval):
            prod = w_coeffs * xi
        else:
            prod = iv_conv2d_full(w_coeffs, xi.coeffs[0])
        return self.poly_integral(prod, rect, qx, qy)

    # -------------------- level-synchronous driver --------------------

    def sweep(self, rects) -> list[_RectOut]:
        """Each rectangle's contributions over its bisection tree, evaluated
        one refinement level at a time.  The leaves are folded, and the error
        is raised, as the depth-first recursion over each rectangle in turn
        folds and raises: a node's key is its path from the base rectangles
        (the base index, then 0 or 1 per bisection), so key order is
        depth-first order, and nothing after the first error in that order
        is evaluated further."""
        level = [((i,), rect) for i, rect in enumerate(rects)]
        leaves = {}
        first_error = None  # (key, error)
        while level:
            bisected = []
            for (key, rect), res in zip(level, self.eval_level([r for _, r in level])):
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
                        leaves[key] = out
                        continue
                r1, r2 = rect.bisect()
                bisected += [(key + (0,), r1), (key + (1,), r2)]
            if first_error is not None:
                bisected = [node for node in bisected if node[0] < first_error[0]]
            level = bisected
        if first_error is not None:
            raise first_error[1]
        return [_fold(leaves, (i,)) for i in range(len(rects))]

    def run(self) -> _RectOut:
        rects = self.sub.rects()
        m = self.sub.grid_m
        rows = [rects[i : i + m] for i in range(0, len(rects), m)]
        workers = min(self.cfg.workers, len(rows))
        ctx = _fork_context() if workers > 1 else None
        if ctx is None:
            results = self.sweep(rects)
        else:
            from concurrent.futures import ProcessPoolExecutor

            # map hands out one grid row at a time, each swept as its own
            # batch, and yields the results in row order, so the first
            # failing row in that order raises, as in the serial sweep, and
            # cancels those not started.
            # The executor's shutdown lets its workers exit; Pool.terminate
            # kills them, and a worker killed while it sends a result leaves
            # the result queue locked, which hangs the pool.
            with ProcessPoolExecutor(workers, ctx, _init_worker, (self,)) as pool:
                results = [out for row in pool.map(_worker_sweep, rows) for out in row]
        # The three other quadrants mirror this one and give the same leaf
        # results bit for bit.  Merging the list once per quadrant, in the
        # order a four-quadrant sweep would, reproduces that sweep's
        # outward-rounded sums exactly (scaling by 4 instead does not keep
        # every gram-table entry equal or narrower) and counts rectangles
        # for the whole square.
        total = _RectOut()
        for _ in range(4):
            for res in results:
                total.merge(res)
        return total


def _on_rect(exc: IntervalDomainError, rect: Rect) -> IntervalDomainError:
    err = IntervalDomainError(f"{exc} on {rect.describe()}")
    err.__cause__ = exc
    return err


def _fold(leaves: dict, key: tuple) -> _RectOut:
    """The contributions of the node at key: its leaf, or its two halves
    merged as the depth-first recursion merges them."""
    out = leaves.get(key)
    if out is None:
        out = _fold(leaves, key + (0,)).merge(_fold(leaves, key + (1,)))
    return out


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
    return engine.run().powers[0]


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
    fpos = {f: idx for idx, f in enumerate(freqs)}
    dim = len(indices)
    out = IArr.zeros((dim, dim))
    quarter = Interval.from_fraction(Fraction(1, 4)) * Interval.from_fraction(Fraction(p))
    for a, (i, j) in enumerate(indices):
        for b, (k, l) in enumerate(indices):
            val = (
                t[fpos[abs(i - k)], fpos[abs(j - l)]].item()
                - t[fpos[i + k], fpos[abs(j - l)]].item()
                - t[fpos[abs(i - k)], fpos[j + l]].item()
                + t[fpos[i + k], fpos[j + l]].item()
            )
            out[a, b] = val * quarter
    return out


def sup_weight(p: Fraction, ranges: tuple) -> Interval:
    """Enclosure of || p |u_hat|^(p-1) ||_inf from the sweep's range bounds
    of u_hat."""
    lo, hi, _, center_lo, _ = ranges
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
    u_hat.  The expensive per-rectangle compositions are computed once and
    reused.

    Returns (res_norm, gram_matrix, ranges, stats).  ranges is (min_lo,
    max_hi, witness_lo, center_lo, center_hi) over the square: the
    rectangle-range extremes, the best single-rectangle guaranteed lower
    bound (a positivity witness), and the best interior constant-coefficient
    enclosure (a verified point value near the peak).  stats counts the
    leaf rectangles of the whole square and those kept over budget."""
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
    total = engine.run()
    sq = total.res_sq
    lo = max(sq.lo, 0.0)
    res_norm = iv_pow(Interval(lo, max(sq.hi, lo)), Fraction(1, 2))
    gram = gram_from_tables(total.t_table, freqs, indices, p)
    ranges = (
        total.rng_min,
        total.rng_max,
        total.witness_lo,
        total.center_lo,
        total.center_hi,
    )
    stats = {"rects": total.rect_count, "over_budget": total.over_budget}
    return res_norm, gram, ranges, stats
