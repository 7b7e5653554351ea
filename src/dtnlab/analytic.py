"""Closed-form and root-finding oracles used to validate the numerical solvers.

Covers modified Bessel functions of the first kind, the disk spectrum, the
rectangle spectrum via transcendental root bracketing (four sign/branch
families plus axis exchange), stable separable eigenfunction evaluation, and
the small-pressure asymptote slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import Domain

_OVERFLOW_X = 700.0


class AnalyticError(ValueError):
    pass


# ---------------------------------------------------------------------------
# modified Bessel functions of the first kind
# ---------------------------------------------------------------------------

def bessel_i_scaled(n_max: int, x: float) -> np.ndarray:
    """Array of e^{-x} I_n(x) for n = 0..n_max (scipy's ``ive``); finite for
    arbitrarily large x."""
    if x < 0:
        raise AnalyticError("argument must be >= 0")
    if n_max < 0:
        raise AnalyticError("order must be >= 0")
    return special.ive(np.arange(n_max + 1), x)


def bessel_i(n: int, x: float) -> tuple[float, float]:
    """(I_n(x), I_n'(x)) with relative error <= 1e-12.

    I_n' = (I_{n-1} + I_{n+1})/2 with I_{-1} = I_1.
    Raises for x beyond the exp overflow threshold; use
    :func:`bessel_i_scaled` there.
    """
    if x > _OVERFLOW_X:
        raise AnalyticError(
            f"I_n({x}) overflows double precision; use bessel_i_scaled"
        )
    vals = bessel_i_scaled(n + 1, x)
    scale = math.exp(x)
    i_n = vals[n] * scale
    i_prev = vals[1] if n == 0 else vals[n - 1]
    deriv = 0.5 * (i_prev + vals[n + 1]) * scale
    return i_n, deriv


def bessel_ratio_deriv(n: int, x: float) -> float:
    """I_n'(x) / I_n(x), overflow-free (scaled values cancel)."""
    if x == 0.0:
        raise AnalyticError("ratio singular at x = 0 for n >= 1")
    vals = bessel_i_scaled(n + 1, x)
    i_prev = vals[1] if n == 0 else vals[n - 1]
    return 0.5 * (i_prev + vals[n + 1]) / vals[n]


# ---------------------------------------------------------------------------
# disk spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskEigenpair:
    order: int              # angular order n
    mu: float
    kind: str               # "const" | "cos" | "sin"
    radius: float
    p: float

    def trace(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r = self.radius
        if self.kind == "const":
            return np.full_like(theta, 1.0 / math.sqrt(2 * math.pi * r))
        if self.kind == "cos":
            return np.cos(self.order * theta) / math.sqrt(math.pi * r)
        return np.sin(self.order * theta) / math.sqrt(math.pi * r)

    def radial(self, r: np.ndarray) -> np.ndarray:
        """I_n(r sqrt(p)) / I_n(R sqrt(p)), or (r/R)^n in the p -> 0 limit."""
        r = np.asarray(r, dtype=float)
        if self.p == 0.0:
            return (r / self.radius) ** self.order
        sp = math.sqrt(self.p)
        ref = bessel_i_scaled(self.order, self.radius * sp)[self.order]
        out = np.empty_like(r)
        for i, ri in np.ndenumerate(r):
            val = bessel_i_scaled(self.order, ri * sp)[self.order]
            out[i] = val / ref * math.exp(-sp * (self.radius - ri))
        return out

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return self.radial(r) * self.trace(th)


def disk_spectrum(radius: float, p: float, count: int) -> list[DiskEigenpair]:
    """First ``count`` eigenpairs of the disk operator, sorted ascending.

    All eigenvalues are doubly degenerate (cos/sin pairs of equal angular
    order) except the lowest one.
    """
    if radius <= 0:
        raise AnalyticError("radius must be positive")
    if p < 0:
        raise AnalyticError("p must be >= 0")
    pairs: list[DiskEigenpair] = []
    n = 0
    while len(pairs) < count:
        if p == 0.0:
            mu = n / radius
        else:
            mu = math.sqrt(p) * bessel_ratio_deriv(n, radius * math.sqrt(p))
        if n == 0:
            pairs.append(DiskEigenpair(0, mu, "const", radius, p))
        else:
            pairs.append(DiskEigenpair(n, mu, "cos", radius, p))
            pairs.append(DiskEigenpair(n, mu, "sin", radius, p))
        n += 1
    pairs.sort(key=lambda e: (e.mu, e.order, e.kind))
    return pairs[:count]


class DiskOracle:
    """Analytic eigens for a disk, exposed in the shape the RMSE checker wants."""

    def __init__(self, radius: float, p: float):
        self.radius = radius
        self.p = p

    def eigenvalues(self, count: int) -> np.ndarray:
        return np.array([e.mu for e in disk_spectrum(self.radius, self.p, count)])

    def trace_matrix(self, points: np.ndarray, count: int) -> np.ndarray:
        th = np.arctan2(points[:, 1], points[:, 0])
        pairs = disk_spectrum(self.radius, self.p, count)
        return np.stack([e.trace(th) for e in pairs], axis=1)


# ---------------------------------------------------------------------------
# rectangle spectrum (transcendental root families)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisFactor:
    alpha: float
    imaginary: bool
    branch: str | None  # "plus" (ctanh) or "minus" (tanh); None for imaginary

    def evaluate(self, x: np.ndarray, b: float, mu: float) -> np.ndarray:
        """Separable factor, in overflow-free exponential form for real alpha."""
        x = np.asarray(x, dtype=float)
        a = self.alpha
        if self.imaginary:
            return a * np.cos(a * x / b) - mu * b * np.sin(a * x / b)
        e0 = np.exp(-a * x / b)
        e1 = np.exp(-a * (1.0 - x / b))
        if self.branch == "plus":  # antisymmetric: u(x) = -u(b-x)
            return a / (1.0 - math.exp(-a)) * (e0 - e1)
        return a / (1.0 + math.exp(-a)) * (e0 + e1)  # symmetric


@dataclass(frozen=True)
class RectangleEigenpair:
    mu: float
    b1: float
    b2: float
    p: float
    kind: str  # "separable" | "constant" | "corner_xy"
    factors: tuple[AxisFactor, AxisFactor] | None
    residual: float  # normalized residual of the defining equation at the root

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.ones(len(pts))
        if self.kind == "corner_xy":
            return (pts[:, 0] - self.b1 / 2) * (pts[:, 1] - self.b2 / 2)
        f1, f2 = self.factors
        return f1.evaluate(pts[:, 0], self.b1, self.mu) * f2.evaluate(
            pts[:, 1], self.b2, self.mu
        )


def rectangle_eigenfunction(pair: RectangleEigenpair, x) -> float | np.ndarray:
    out = pair.value(x)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def _mu_plus(a1: float, b1: float) -> float:
    return (a1 / b1) / math.tanh(a1 / 2)


def _mu_minus(a1: float, b1: float) -> float:
    return (a1 / b1) * math.tanh(a1 / 2)


_MU = {"plus": _mu_plus, "minus": _mu_minus}


def _bisect(f, lo: float, hi: float, flo: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _scan_roots(f, lo: float, hi: float, n_grid: int) -> list[float]:
    xs = np.linspace(lo, hi, n_grid)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(n_grid - 1):
        a, b = vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and (a < 0) != (b < 0):
            roots.append(_bisect(f, xs[i], xs[i + 1], a))
    return roots


def _scaled_hyperbolics(a1: float) -> tuple[float, float, float]:
    """(sinh(a1), cosh^2(a1/2), sinh^2(a1/2)) all scaled by exp(-a1)."""
    e = math.exp(-a1)
    s1 = 0.5 * (1.0 - e * e)
    c2 = 0.25 * (1.0 + e) ** 2
    h2 = 0.25 * (1.0 - e) ** 2
    return s1, c2, h2


def _imaginary_family(b1: float, b2: float, p: float, al_cap: float, swap: bool):
    """Roots with the b1-axis factor real and the b2-axis factor imaginary.

    The cross-multiplied forms below share the zeros of the tan equations and
    are pole-free and overflow-free (every hyperbolic is pre-scaled by
    exp(-alpha_1))."""

    def a1_of(al: float) -> float:
        return (b1 / b2) * math.sqrt(al * al + p * b2 * b2)

    def terms(al: float, branch: str) -> tuple[float, float]:
        a1 = a1_of(al)
        s1, c2, h2 = _scaled_hyperbolics(a1)
        e = math.exp(-a1) if a1 < 700 else 0.0
        amp = math.sqrt(al * al + p * b2 * b2)  # alpha_1 b2 / b1
        if branch == "plus":
            t1 = math.sin(al) * (al * al * e + p * b2 * b2 * c2)
        else:
            t1 = math.sin(al) * (p * b2 * b2 * h2 - al * al * e)
        t2 = math.cos(al) * al * amp * s1
        return t1, t2

    out = []
    for branch in ("plus", "minus"):
        f = lambda al, b=branch: (lambda t: t[0] - t[1])(terms(al, b))
        for al in _scan_roots(f, 1e-9, al_cap, max(64, int(al_cap / (math.pi / 128)))):
            a1 = a1_of(al)
            mu = _MU[branch](a1, b1)
            t1, t2 = terms(al, branch)
            res = abs(t1 - t2) / (abs(t1) + abs(t2) + 1e-300)
            real_factor = AxisFactor(a1, False, branch)
            imag_factor = AxisFactor(al, True, None)
            factors = (imag_factor, real_factor) if swap else (real_factor, imag_factor)
            out.append((mu, factors, res))
    return out


def _real_family(b1: float, b2: float, p: float):
    """Roots with both axis factors real, at most one per branch pair (bx, by).

    Each solves mu_bx(alpha_1, b1) = mu_by(alpha_2, b2) with alpha_1 =
    (b1/b2) sqrt(p b2^2 - alpha_2^2). On alpha_2 in (0, b2 sqrt(p)) the left
    side falls and the right side rises, so a root exists exactly when the two
    ends of the interval differ in sign, and bisection finds it."""
    if p <= 0:
        return []
    s = b2 * math.sqrt(p)

    def a1_of(a2: float) -> float:
        return (b1 / b2) * math.sqrt(max(p * b2 * b2 - a2 * a2, 0.0))

    lo, hi = 1e-9 * s, (1.0 - 1e-9) * s
    out = []
    for bx in ("plus", "minus"):
        for by in ("plus", "minus"):
            def f(a2, bx=bx, by=by):
                return _MU[bx](a1_of(a2), b1) - _MU[by](a2, b2)

            flo = f(lo)
            if not flo > 0 > f(hi):
                continue
            a2 = _bisect(f, lo, hi, flo)
            a1 = a1_of(a2)
            mu, mu_y = _MU[bx](a1, b1), _MU[by](a2, b2)
            res = abs(mu - mu_y) / (mu + mu_y)
            out.append((mu, (AxisFactor(a1, False, bx), AxisFactor(a2, False, by)), res))
    return out


def rectangle_spectrum(
    b1: float, b2: float, p: float, count: int
) -> list[RectangleEigenpair]:
    """First ``count`` eigenpairs of the rectangle (0,b1)x(0,b2), sorted by mu.

    Unions the real-real and real-imaginary branch families with the roles of
    the two axes exchanged; for the square at p = 0 the extra eigenvalue 2/b
    (eigenfunction (x-b/2)(y-b/2)) is appended manually.
    """
    if b1 <= 0 or b2 <= 0:
        raise AnalyticError("rectangle sides must be positive")
    if p < 0:
        raise AnalyticError("p must be >= 0")
    if count < 1:
        return []

    mu_cap = max(2.0 * math.sqrt(max(p, 1.0)), math.pi * (count + 4) / (b1 + b2))
    for _ in range(10):
        entries: list[RectangleEigenpair] = []
        if p == 0.0:
            entries.append(RectangleEigenpair(0.0, b1, b2, p, "constant", None, 0.0))
            if abs(b1 - b2) <= 1e-12 * max(b1, b2):
                entries.append(
                    RectangleEigenpair(2.0 / b1, b1, b2, p, "corner_xy", None, 0.0)
                )
        raw = []
        raw += _imaginary_family(b1, b2, p, b2 * mu_cap * 1.3 + 5.0, swap=False)
        raw += _imaginary_family(b2, b1, p, b1 * mu_cap * 1.3 + 5.0, swap=True)
        raw += _real_family(b1, b2, p)
        for mu, factors, res in raw:
            if mu <= mu_cap:
                entries.append(
                    RectangleEigenpair(mu, b1, b2, p, "separable", factors, res)
                )
        entries.sort(key=lambda e: e.mu)
        if len(entries) >= count and (
            len(entries) == count or entries[count - 1].mu < 0.75 * mu_cap
        ):
            return entries[:count]
        mu_cap *= 1.6
    raise AnalyticError("root bracketing failed to collect the requested count")


class RectangleOracle:
    def __init__(self, b1: float, b2: float, p: float):
        self.b1, self.b2, self.p = b1, b2, p

    def eigenvalues(self, count: int) -> np.ndarray:
        return np.array([e.mu for e in rectangle_spectrum(self.b1, self.b2, self.p, count)])

    def trace_matrix(self, points: np.ndarray, count: int) -> np.ndarray:
        pairs = rectangle_spectrum(self.b1, self.b2, self.p, count)
        cols = []
        for e in pairs:
            vals = e.value(points)
            scale = np.abs(vals).max()
            cols.append(vals / scale if scale > 0 else vals)
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def asymptote_small_p(domain: Domain) -> float:
    """Slope of mu_0 ~ slope * p in the p -> 0 limit: |Omega| / |dOmega|."""
    return domain.area / domain.perimeter
