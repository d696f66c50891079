"""Brute-force adaptive integration over scattering-relevant regions.

This is the independent oracle used to validate every closed-form
integral and far-field computation in the package, so it deliberately
shares no code with the formulas it checks.

Regions are described by one or more smooth charts mapping a coordinate
box onto the physical set with a Jacobian; integration is an adaptive
tensor Gauss-Kronrod (G7, K15) cubature on the charts (the subregion
scheme of Berntsen, Espelid & Genz, DCUHRE, ACM TOMS 17, 1991).
Subdivision is driven by a priority queue on the per-box error estimate
|K15 - G7|: the worst box is bisected along the axis with the largest
internal variation, and both halves are evaluated together, in one
mapping call and one integrand call.  A chart's map takes one coordinate
array per axis, broadcast to (boxes, 15, ..., 15), so per-axis functions
run on 15 nodes per axis rather than on all 15^d points.  All orderings
are deterministic, so repeated runs give bit-identical results.

The paraboloid regions are bodies bounded below by x_n = K |x'|^2.  Their
charts use v = sqrt(x_n) as the height coordinate: the slice radii
v / sqrt(K) are then linear in v, where in x_n they carry a square-root
singularity at the apex that refinement would keep bisecting toward.

* ``ParaboloidCap(K, h)``      {x : K|x'|^2 < x_n < h}, optionally with
  a floor {x_n > floor} and optionally unbounded (h = inf), in which
  case the integrand must decay like exp(-decay_rate x_n) and the
  truncation height is chosen so the analytic tail bound falls three
  orders below the requested tolerance.
* ``AnnularParaboloid(K-, K+)`` the shell between two nested paraboloid
  caps of the same height.
* ``GraphCap(omega, b, h)``     {|x'| < b, omega(x') < x_n < h} for a
  boundary graph omega pinched between K-|x'|^2 and K+|x'|^2.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "Ball",
    "Box",
    "ParaboloidCap",
    "AnnularParaboloid",
    "GraphCap",
    "BudgetExceeded",
    "integrate",
    "integrate_full",
    "sphere_measure",
]


def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere S^d embedded in R^(d+1).

    sigma(S^d) = 2 pi^((d+1)/2) / Gamma((d+1)/2); sigma(S^0) = 2 counts
    the two endpoints of an interval.
    """
    if d < 0:
        raise ValueError(f"sphere_measure requires d >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f between lo and hi, where f changes sign, to the last bit.

    Halves the bracket, keeping the sign change, until no float lies
    strictly between lo and hi; an exact zero of f becomes the upper end.
    """
    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


@functools.cache
def _leggauss(npts: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared between callers, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class BudgetExceeded(NumericalFailure):
    """Tolerance unreachable within the evaluation budget."""

    def __init__(self, message, value=None, error=None, evals=None):
        super().__init__(message)
        self.value = value
        self.error = error
        self.evals = evals


# ---------------------------------------------------------------------------
# Gauss-Kronrod (G7, K15) rule, QUADPACK abscissae
# ---------------------------------------------------------------------------

_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Symmetric 15-point arrays on [-1, 1]; Gauss subset sits at odd indices.
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


def _tensor_weights(dim: int):
    """K15 and G7 product weights on the 15^dim nodes, first axis slowest."""
    idx = np.meshgrid(*([np.arange(15)] * dim), indexing="ij")
    w15 = np.ones(15**dim)
    w7 = np.ones(15**dim)
    for d in range(dim):
        w15 *= _W15[idx[d].ravel()]
        w7 *= _W7[idx[d].ravel()]
    return w15, w7


_WEIGHTS = {d: _tensor_weights(d) for d in (1, 2, 3)}


# ---------------------------------------------------------------------------
# Charts and regions
# ---------------------------------------------------------------------------


def _stack(*coords):
    """Broadcast per-axis coordinate arrays and stack them on a last axis."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


@dataclass
class Chart:
    """Coordinate box [lo, hi] with a map onto physical points.

    ``mapping(u_1, ..., u_d)`` takes one array of box coordinates per
    axis; the arrays broadcast against each other to a common shape S.
    It returns (physical points of shape S + (n,), Jacobian broadcastable
    to S).  The cubature passes axis j with shape (B, 1, .., 15, .., 1),
    so a map evaluates its per-axis functions (sqrt, sin, cos, a rim
    root-find) on 15 nodes per axis and box, not on all 15^d points.
    """

    lo: np.ndarray
    hi: np.ndarray
    mapping: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class Region:
    dim: int

    def charts(self) -> Sequence[Chart]:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class Box(Region):
    lo: Sequence[float]
    hi: Sequence[float]

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.dim = len(self.lo)

    def charts(self):
        def mapping(*u):
            return _stack(*u), 1.0

        return [Chart(self.lo, self.hi, mapping)]


@dataclass
class Ball(Region):
    center: Sequence[float]
    radius: float
    dim: int = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def charts(self):
        c = self.center
        if self.dim == 2:

            def mapping(r, th):
                pts = _stack(c[0] + r * np.cos(th), c[1] + r * np.sin(th))
                return pts, r

            return [
                Chart(np.array([0.0, -math.pi]), np.array([self.radius, math.pi]), mapping)
            ]
        if self.dim == 3:

            def mapping(r, th, ph):
                sp = np.sin(ph)
                pts = _stack(
                    c[0] + r * sp * np.cos(th),
                    c[1] + r * sp * np.sin(th),
                    c[2] + r * np.cos(ph),
                )
                return pts, r * r * sp

            return [
                Chart(
                    np.array([0.0, -math.pi, 0.0]),
                    np.array([self.radius, math.pi, math.pi]),
                    mapping,
                )
            ]
        raise ValueError("ball regions support dim 2 or 3")


def _paraboloid_tail_bound(tau: float, K: float, h: float, n: int) -> float:
    # Tail of exp(-tau x_n) over the cap above height h:
    # C_n (1 + (tau h)^((n-1)/2)) / (tau^((n+1)/2) K^((n-1)/2)) exp(-tau h).
    cn = (
        max(1.0, 2.0 ** ((n + 1) / 2.0 - 2.0))
        * max(math.gamma((n + 1) / 2.0), 1.0)
        * sphere_measure(n - 2)
        / (n - 1)
    )
    return (
        cn
        * (1.0 + (tau * h) ** ((n - 1) / 2.0))
        / (tau ** ((n + 1) / 2.0) * K ** ((n - 1) / 2.0))
        * math.exp(-tau * h)
    )


@dataclass
class ParaboloidCap(Region):
    """{x in R^n : max(K |x'|^2, floor) < x_n < h}; h may be math.inf."""

    K: float
    h: float = math.inf
    floor: float = 0.0
    dim: int = 2
    decay_rate: float | None = None

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("paraboloid coefficient K must be positive")
        if self.floor < 0 or self.h <= self.floor:
            raise ValueError("need 0 <= floor < h")
        if math.isinf(self.h) and self.decay_rate is None:
            raise ValueError(
                "unbounded paraboloid cap requires decay_rate of the integrand"
            )

    def truncation_height(self, tol: float) -> float:
        if not math.isinf(self.h):
            return self.h
        tau = float(self.decay_rate)
        target = tol * 1e-3
        x_max = max(self.floor, 1.0 / tau, 1.0)
        while _paraboloid_tail_bound(tau, self.K, x_max, self.dim) > target:
            x_max *= 1.25
            if x_max > 1e12:
                break
        return x_max

    def charts(self, tol: float = 1e-10):
        # Height x_n = v^2, so the slice radius v / sqrt(K) is smooth in v.
        v_lo, v_hi = math.sqrt(self.floor), math.sqrt(self.truncation_height(tol))
        rk = math.sqrt(self.K)
        if self.dim == 2:

            def mapping(v, s):
                w = v / rk
                return _stack(s * w, v * v), 2.0 * v * w

            return [
                Chart(np.array([v_lo, -1.0]), np.array([v_hi, 1.0]), mapping)
            ]
        if self.dim == 3:

            def mapping(v, s, th):
                w = v / rk
                r = s * w
                return _stack(r * np.cos(th), r * np.sin(th), v * v), 2.0 * v * w * r

            return [
                Chart(
                    np.array([v_lo, 0.0, -math.pi]),
                    np.array([v_hi, 1.0, math.pi]),
                    mapping,
                )
            ]
        raise ValueError("paraboloid regions support dim 2 or 3")


@dataclass
class AnnularParaboloid(Region):
    """{x : K_- |x'|^2 < x_n < h} minus {x : K_+ |x'|^2 < x_n < h}.

    Horizontal slice at height t is the annulus
    sqrt(t/K_+) < |x'| < sqrt(t/K_-).
    """

    K_minus: float
    K_plus: float
    h: float
    dim: int = 2

    def __post_init__(self):
        if not (0 < self.K_minus <= self.K_plus):
            raise ValueError("need 0 < K_- <= K_+")
        if self.h <= 0:
            raise ValueError("height must be positive")

    def charts(self):
        km, kp = self.K_minus, self.K_plus
        if km == kp:
            return []
        # Height x_n = v^2, so the annulus radii v / sqrt(K_+-) are smooth in v.
        rkm, rkp, v_hi = math.sqrt(km), math.sqrt(kp), math.sqrt(self.h)
        if self.dim == 2:

            def make(side):
                def mapping(v, s):
                    a = v / rkp
                    width = v / rkm - a
                    return _stack(side * (a + s * width), v * v), 2.0 * v * width

                return mapping

            return [
                Chart(np.array([0.0, 0.0]), np.array([v_hi, 1.0]), make(+1.0)),
                Chart(np.array([0.0, 0.0]), np.array([v_hi, 1.0]), make(-1.0)),
            ]
        if self.dim == 3:

            def mapping(v, s, th):
                a = v / rkp
                width = v / rkm - a
                r = a + s * width
                pts = _stack(r * np.cos(th), r * np.sin(th), v * v)
                return pts, 2.0 * v * width * r

            return [
                Chart(
                    np.array([0.0, 0.0, -math.pi]),
                    np.array([v_hi, 1.0, math.pi]),
                    mapping,
                )
            ]
        raise ValueError("annular paraboloid supports dim 2 or 3")


@dataclass
class GraphCap(Region):
    """{x : |x'| < b, omega(x') < x_n < h} for a graph omega >= 0.

    ``omega`` maps an (m, dim-1) array of tangential coordinates to
    heights.  ``K_bracket`` gives (K_lo, K_hi) with
    K_lo |x'|^2 <= omega <= K_hi |x'|^2, used to bracket the rim
    {omega = h} for the radial root-find.
    """

    omega: Callable[[np.ndarray], np.ndarray]
    b: float
    h: float
    dim: int = 2
    K_bracket: tuple[float, float] | None = None

    def _rim_radius(self, direction: np.ndarray) -> np.ndarray:
        """Radii r(theta) with omega(r * direction) = h, vectorized bisection."""
        if self.K_bracket is not None:
            k_lo, k_hi = self.K_bracket
            lo = np.full(direction.shape[0], 0.95 * math.sqrt(self.h / k_hi))
            hi = np.full(direction.shape[0], min(1.05 * math.sqrt(self.h / k_lo), self.b))
        else:
            lo = np.zeros(direction.shape[0])
            hi = np.full(direction.shape[0], self.b)
        f_hi = self.omega(direction * hi[:, None]) - self.h
        # Columns whose graph never reaches h are clamped at b.
        open_col = f_hi < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = self.omega(direction * mid[:, None]) - self.h
            take_hi = f_mid >= 0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        r = 0.5 * (lo + hi)
        return np.where(open_col, self.b, r)

    def charts(self):
        om, h = self.omega, self.h
        if self.dim == 2:

            def make(side):
                rstar = float(self._rim_radius(np.array([[side]]))[0])

                def mapping(s, t):
                    x1 = side * s * rstar
                    w = om(x1.reshape(-1, 1)).reshape(x1.shape)
                    xn = w + t * (h - w)
                    return _stack(x1, xn), rstar * np.maximum(h - w, 0.0)

                return mapping

            return [
                Chart(np.array([0.0, 0.0]), np.array([1.0, 1.0]), make(+1.0)),
                Chart(np.array([0.0, 0.0]), np.array([1.0, 1.0]), make(-1.0)),
            ]
        if self.dim == 3:

            def mapping(s, th, t):
                direction = np.stack([np.cos(th), np.sin(th)], axis=-1)
                rstar = self._rim_radius(direction.reshape(-1, 2)).reshape(th.shape)
                r = s * rstar
                x1, x2 = r * direction[..., 0], r * direction[..., 1]
                w = om(_stack(x1, x2).reshape(-1, 2)).reshape(r.shape)
                xn = w + t * (h - w)
                return _stack(x1, x2, xn), rstar * r * np.maximum(h - w, 0.0)

            return [
                Chart(
                    np.array([0.0, -math.pi, 0.0]),
                    np.array([1.0, math.pi, 1.0]),
                    mapping,
                )
            ]
        raise ValueError("graph caps support dim 2 or 3")


# ---------------------------------------------------------------------------
# Adaptive cubature
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _BoxEntry:
    neg_err: float
    order: int
    lo: np.ndarray = field(compare=False)
    hi: np.ndarray = field(compare=False)
    chart: Chart = field(compare=False)
    value: complex = field(compare=False)
    err: float = field(compare=False)
    split_dim: int = field(compare=False)


def _eval_boxes(f, chart: Chart, lo: np.ndarray, hi: np.ndarray):
    """K15 values, |K15 - G7| errors and split axes of boxes (B, d).

    All B boxes share one mapping call and one integrand call.  The split
    axis of a box is the one with the largest internal variation of the
    sampled values (sum of absolute second differences).
    """
    nb, dim = lo.shape
    w15, w7 = _WEIGHTS[dim]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    axes = []
    for d in range(dim):
        shape = [nb] + [1] * dim
        shape[d + 1] = 15
        axes.append((mid[:, d, None] + _NODES * half[:, d, None]).reshape(shape))
    phys, jac = chart.mapping(*axes)
    grid = (nb,) + (15,) * dim
    vals = np.asarray(f(phys.reshape(-1, phys.shape[-1])), dtype=complex)
    vals = vals.reshape(grid) * jac
    flat = vals.reshape(nb, -1)
    scale = np.prod(half, axis=1)
    i15 = np.sum(flat * w15, axis=1) * scale
    i7 = np.sum(flat * w7, axis=1) * scale
    var = np.stack(
        [
            np.sum(np.abs(np.diff(vals, n=2, axis=d + 1)).reshape(nb, -1), axis=1)
            for d in range(dim)
        ],
        axis=1,
    )
    return i15, np.abs(i15 - i7), np.argmax(var, axis=1)


def integrate_full(
    f: Callable[[np.ndarray], np.ndarray],
    region: Region,
    tol: float = 1e-8,
    budget: int = 10**7,
):
    """Adaptive integration of a complex field over a region.

    Returns (value, error_estimate, evaluations).  Raises
    ``BudgetExceeded`` when the tolerance target err <= tol*(1+|I|)
    cannot be met within the evaluation budget.
    """
    if isinstance(region, ParaboloidCap):
        charts = region.charts(tol)
    else:
        charts = region.charts()
    dim = region.dim
    heap: list[_BoxEntry] = []
    counter = 0
    evals = 0

    def push(chart, lo, hi):
        """Evaluate boxes (B, d) of one chart and queue them; return them."""
        nonlocal counter, evals
        vals, errs, axes = _eval_boxes(f, chart, lo, hi)
        evals += lo.shape[0] * 15**dim
        entries = []
        for b in range(lo.shape[0]):
            err = float(errs[b])
            entry = _BoxEntry(
                -err, counter, lo[b], hi[b], chart, complex(vals[b]), err, int(axes[b])
            )
            heapq.heappush(heap, entry)
            entries.append(entry)
            counter += 1
        return entries

    for chart in charts:
        push(chart, chart.lo[None, :], chart.hi[None, :])
    if not heap:
        return 0.0 + 0.0j, 0.0, 0

    value = sum(e.value for e in heap)
    err_total = sum(e.err for e in heap)
    refresh = 0
    while True:
        if refresh >= 512:
            # Resum to shed rounding drift of the incremental bookkeeping.
            value = sum(e.value for e in heap)
            err_total = sum(e.err for e in heap)
            refresh = 0
        if err_total <= tol * (1.0 + abs(value)):
            value = sum(e.value for e in heap)
            err_total = sum(e.err for e in heap)
            if err_total <= tol * (1.0 + abs(value)):
                return value, err_total, evals
        if evals + 2 * 15**dim > budget:
            raise BudgetExceeded(
                f"cubature budget {budget} exhausted at error {err_total:.3e}",
                value=value,
                error=err_total,
                evals=evals,
            )
        worst = heapq.heappop(heap)
        value -= worst.value
        err_total -= worst.err
        # Both halves of the worst box along its split axis, one call.
        d = worst.split_dim
        lo = np.stack([worst.lo, worst.lo])
        hi = np.stack([worst.hi, worst.hi])
        hi[0, d] = lo[1, d] = 0.5 * (worst.lo[d] + worst.hi[d])
        for entry in push(worst.chart, lo, hi):
            value += entry.value
            err_total += entry.err
        refresh += 1


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    region: Region,
    tol: float = 1e-8,
    budget: int = 10**7,
) -> complex:
    """Adaptive integral of ``f`` over ``region`` to relative tolerance."""
    value, _, _ = integrate_full(f, region, tol=tol, budget=budget)
    return value
