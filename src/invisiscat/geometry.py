"""Domain descriptors, boundary sampling, and K-curvature cap geometry.

A curvature cap is a boundary patch written as a graph
x_n = omega(x') over |x'| < b with

    omega(x') = K |x'|^2 + c3 |x'|^3,    b = sqrt(M)/K,  h = 1/K,

pinched between the paraboloids K-|x'|^2 and K+|x'|^2.  The spread
K+ - K- is controlled by the cubic perturbation through the constant

    c_n = sup_{|x'|=1} sum_{|beta|=3} x'^beta / beta!

and the admissibility budget f(K) <= min((M-1) K^2 / (c_n M^(3/2)),
L K^(2-delta) / (2 c_n sqrt(M))), where f(K) is the sup of the third
derivatives of the perturbation.

Scatterer supports are unions of components (balls, annuli, star-shaped
polar graphs, cap-bottomed bodies); every component knows how to test
membership, sample its boundary with outward normals, and produce
accurate volume quadrature nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.ndimage

from .quadrature import GraphCap, _bisect

__all__ = [
    "InadmissiblePerturbation",
    "ResolutionTooCoarse",
    "CurvatureCap",
    "compute_cn",
    "make_curvature_cap",
    "nesting_check",
    "NestingReport",
    "BallComponent",
    "AnnulusComponent",
    "BoxComponent",
    "StarComponent",
    "CappedComponent",
    "Domain",
    "connected_to_infinity",
]


class InadmissiblePerturbation(ValueError):
    """Cubic perturbation too large for the requested (K, L, M, delta)."""


class ResolutionTooCoarse(RuntimeError):
    """Connectivity grid cannot see the complement near the query point."""


def compute_cn(n: int) -> float:
    """Supremum over the unit sphere of sum_{|beta|=3} x^beta / beta!.

    The sum is homogeneous of degree 3, so the supremum over R^(n-1)
    of the ratio against |x'|^3 is attained on the unit sphere.
    """
    if n == 2:
        # Single variable: t^3/3! maximized at t = 1.
        return 1.0 / 6.0
    if n == 3:
        # Two variables: the sum is (x+y)^3/6, largest on the diagonal.
        return math.sqrt(2.0) / 3.0
    raise ValueError("dimensions 2 and 3 supported")


# Sup over unit directions of the third partials of |x'|^3, 6 for both n.
# n = 2: d^3/dt^3 |t|^3 = 6 sign t.  n = 3: d_xxx = 9c - 3c^3 (c = cos theta)
# peaks at 6 where c = 1, d_yyy likewise; |d_xxy| = 3|sin|^3, |d_xyy| = 3|c|^3.
_CUBIC_THIRD_DERIV_SUP = 6.0


@dataclass
class CurvatureCap:
    """Admissible curvature point data: graph, pinching paraboloids, scales."""

    K: float
    L: float
    M: float
    delta: float
    c3: float
    n: int
    b: float = field(init=False)
    h: float = field(init=False)
    K_minus: float = field(init=False)
    K_plus: float = field(init=False)

    def __post_init__(self):
        if self.K <= 0 or self.L <= 0 or self.delta <= 0 or self.M < 1.0:
            raise ValueError("need K, L, delta > 0 and M >= 1")
        if self.n not in (2, 3):
            raise ValueError("dimensions 2 and 3 supported")
        self.b = math.sqrt(self.M) / self.K
        self.h = 1.0 / self.K
        cn = compute_cn(self.n)
        f = abs(self.c3) * _CUBIC_THIRD_DERIV_SUP
        spread = cn * f * self.b
        self.K_minus = self.K - spread
        self.K_plus = self.K + spread

    # -- graph and its derivatives (|x'|-radial quadratic + cubic) ----------

    def omega(self, xp: np.ndarray) -> np.ndarray:
        xp = np.atleast_2d(xp)
        r2 = np.sum(xp * xp, axis=1)
        return self.K * r2 + self.c3 * r2 ** 1.5

    def omega_grad(self, xp: np.ndarray) -> np.ndarray:
        xp = np.atleast_2d(xp)
        r = np.sqrt(np.sum(xp * xp, axis=1))
        return 2.0 * self.K * xp + 3.0 * self.c3 * r[:, None] * xp

    def omega_laplacian(self, xp: np.ndarray) -> np.ndarray:
        xp = np.atleast_2d(xp)
        d = self.n - 1
        r = np.sqrt(np.sum(xp * xp, axis=1))
        return 2.0 * self.K * d + 3.0 * (d + 1) * self.c3 * r

    def as_graph_region(self) -> GraphCap:
        return GraphCap(
            self.omega,
            self.b,
            self.h,
            dim=self.n,
            K_bracket=(self.K_minus, self.K_plus),
        )

    @functools.cached_property
    def rim_radius(self) -> float:
        """Radius where omega reaches h (radial graph, so direction-free).

        The bracket's lower end has omega - h = -h < 0, so the bisection
        moves the upper end exactly where omega(mid) >= h.
        """
        pad = [0.0] * (self.n - 2)
        return _bisect(
            lambda r: float(self.omega(np.array([[r] + pad]))[0]) - self.h, 0.0, self.b
        )


def make_curvature_cap(
    K: float,
    cubic_coeff: float = 0.0,
    L: float = 1.0,
    M: float = 2.0,
    delta: float = 0.5,
    n: int = 2,
) -> CurvatureCap:
    """Build an admissible cap with perturbation cubic_coeff * |x'|^3.

    Raises ``InadmissiblePerturbation`` when the third-derivative
    budget f(K) <= min((M-1)K^2/(c_n M^(3/2)), L K^(2-delta)/(2 c_n sqrt M))
    fails.
    """
    if K < math.e:
        raise ValueError("curvature parameter must satisfy K >= e")
    cn = compute_cn(n)
    f = abs(cubic_coeff) * _CUBIC_THIRD_DERIV_SUP
    budget = min(
        (M - 1.0) * K * K / (cn * M**1.5),
        L * K ** (2.0 - delta) / (2.0 * cn * math.sqrt(M)),
    )
    if f > budget:
        raise InadmissiblePerturbation(
            f"third-derivative size {f:.4g} exceeds admissible budget {budget:.4g}"
        )
    cap = CurvatureCap(K=K, L=L, M=M, delta=delta, c3=cubic_coeff, n=n)
    # Hard invariants of the construction.
    assert cap.K_minus > 0
    assert 1.0 / M - 1e-12 <= cap.K_minus / K and cap.K_plus / K <= M + 1e-12
    assert cap.K_plus - cap.K_minus <= L * K ** (1.0 - delta) * (1 + 1e-12)
    if cap.h > cap.K_minus * cap.b * cap.b * (1 + 1e-12):
        raise InadmissiblePerturbation(
            "lid height exceeds K_- b^2; paraboloid would touch the cylinder wall"
        )
    return cap


@dataclass
class NestingReport:
    violations: int
    max_excess: float
    samples: int


def nesting_check(cap: CurvatureCap, samples: int = 10**4) -> NestingReport:
    """Grid check of K_-|x'|^2 <= omega(x') <= K_+|x'|^2 on |x'| < b.

    Equivalent to the inclusions
    {K_+|x'|^2 < x_n < h}  subset  Omega_{b,h}  subset  {K_-|x'|^2 < x_n < h}.
    """
    if cap.n == 2:
        t = np.linspace(-cap.b, cap.b, samples)[:, None]
        xp = t
    else:
        m = int(math.sqrt(samples))
        r = np.linspace(0.0, cap.b, m)
        th = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        rr, tt = np.meshgrid(r, th, indexing="ij")
        xp = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1)
    w = cap.omega(xp)
    r2 = np.sum(xp * xp, axis=1)
    slack = 1e-12 * (1.0 + np.abs(w))
    below = cap.K_minus * r2 - w
    above = w - cap.K_plus * r2
    excess = np.maximum(below, above)
    bad = excess > slack
    return NestingReport(
        violations=int(np.count_nonzero(bad)),
        max_excess=float(np.max(excess)),
        samples=int(xp.shape[0]),
    )


# ---------------------------------------------------------------------------
# Support components
# ---------------------------------------------------------------------------


def _gauss_legendre(npts: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


class Component:
    dim: int

    def inside(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_mesh(self, count: int):
        """(points, outward normals, surface weights)."""
        raise NotImplementedError

    def quad_nodes(self, target: int):
        """(points, weights) integrating smooth fields over the component."""
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


@dataclass
class BallComponent(Component):
    center: Sequence[float]
    radius: float
    dim: int = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)

    def inside(self, pts):
        return np.sum((pts - self.center) ** 2, axis=1) < self.radius**2

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def diameter(self):
        return 2.0 * self.radius

    def boundary_mesh(self, count=1024):
        if self.dim == 2:
            th = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            nrm = np.stack([np.cos(th), np.sin(th)], axis=-1)
            pts = self.center + self.radius * nrm
            w = np.full(count, 2.0 * math.pi * self.radius / count)
            return pts, nrm, w
        # Lat-long mesh with area weights.
        m = max(8, int(math.sqrt(count / 2)))
        th = np.linspace(0.0, 2.0 * math.pi, 2 * m, endpoint=False)
        ph = (np.arange(m) + 0.5) * math.pi / m
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        nrm = np.stack(
            [np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)], axis=-1
        ).reshape(-1, 3)
        pts = self.center + self.radius * nrm
        w = (
            self.radius**2
            * np.sin(pp).ravel()
            * (2.0 * math.pi / (2 * m))
            * (math.pi / m)
        )
        return pts, nrm, w

    def quad_nodes(self, target=32):
        if self.dim == 2:
            r, wr = _gauss_legendre(target, 0.0, self.radius)
            nth = 2 * target
            th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
            wth = 2.0 * math.pi / nth
            rr, tt = np.meshgrid(r, th, indexing="ij")
            pts = self.center + np.stack(
                [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1
            )
            w = (wr[:, None] * wth * rr).ravel()
            return pts, w
        r, wr = _gauss_legendre(target, 0.0, self.radius)
        cth, wc = np.polynomial.legendre.leggauss(target)  # cos(phi) nodes
        nth = 2 * target
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        wth = 2.0 * math.pi / nth
        rr, cc, tt = np.meshgrid(r, cth, th, indexing="ij")
        ss = np.sqrt(1.0 - cc * cc)
        pts = self.center + np.stack(
            [
                (rr * ss * np.cos(tt)).ravel(),
                (rr * ss * np.sin(tt)).ravel(),
                (rr * cc).ravel(),
            ],
            axis=-1,
        )
        w = (
            (wr[:, None, None] * wc[None, :, None] * wth) * rr**2
        ).ravel()
        return pts, w


@dataclass
class AnnulusComponent(Component):
    center: Sequence[float]
    r_inner: float
    r_outer: float
    dim: int = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.dim != 2:
            raise ValueError("annulus components are 2-d")
        if not (0 < self.r_inner < self.r_outer):
            raise ValueError("need 0 < r_inner < r_outer")

    def inside(self, pts):
        d2 = np.sum((pts - self.center) ** 2, axis=1)
        return (d2 > self.r_inner**2) & (d2 < self.r_outer**2)

    def bounding_box(self):
        return self.center - self.r_outer, self.center + self.r_outer

    def diameter(self):
        return 2.0 * self.r_outer

    def boundary_mesh(self, count=1024):
        half = count // 2
        th = np.linspace(0.0, 2.0 * math.pi, half, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = np.concatenate(
            [self.center + self.r_outer * ring, self.center + self.r_inner * ring]
        )
        nrm = np.concatenate([ring, -ring])
        w = np.concatenate(
            [
                np.full(half, 2.0 * math.pi * self.r_outer / half),
                np.full(half, 2.0 * math.pi * self.r_inner / half),
            ]
        )
        return pts, nrm, w

    def quad_nodes(self, target=32):
        r, wr = _gauss_legendre(target, self.r_inner, self.r_outer)
        nth = 2 * target
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        wth = 2.0 * math.pi / nth
        rr, tt = np.meshgrid(r, th, indexing="ij")
        pts = self.center + np.stack(
            [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1
        )
        w = (wr[:, None] * wth * rr).ravel()
        return pts, w


@dataclass
class BoxComponent(Component):
    """Axis-aligned box support; boundary meshes are 2-d only."""

    lo: Sequence[float]
    hi: Sequence[float]

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.dim = self.lo.size
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs lo < hi per axis")

    def inside(self, pts):
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def boundary_mesh(self, count=1024):
        if self.dim != 2:
            raise ValueError("box boundary meshes are 2-d")
        (x0, y0), (x1, y1) = self.lo, self.hi
        per = max(count // 4, 16)
        tx = np.linspace(x0, x1, per, endpoint=False) + (x1 - x0) / (2 * per)
        ty = np.linspace(y0, y1, per, endpoint=False) + (y1 - y0) / (2 * per)
        pts = np.concatenate(
            [
                np.stack([tx, np.full(per, y0)], axis=-1),
                np.stack([tx, np.full(per, y1)], axis=-1),
                np.stack([np.full(per, x0), ty], axis=-1),
                np.stack([np.full(per, x1), ty], axis=-1),
            ]
        )
        nrm = np.concatenate(
            [
                np.tile([0.0, -1.0], (per, 1)),
                np.tile([0.0, 1.0], (per, 1)),
                np.tile([-1.0, 0.0], (per, 1)),
                np.tile([1.0, 0.0], (per, 1)),
            ]
        )
        w = np.concatenate(
            [
                np.full(per, (x1 - x0) / per),
                np.full(per, (x1 - x0) / per),
                np.full(per, (y1 - y0) / per),
                np.full(per, (y1 - y0) / per),
            ]
        )
        return pts, nrm, w

    def quad_nodes(self, target=32):
        """Tensor Gauss-Legendre rule with ``target`` nodes per axis."""
        xs, ws = zip(*(_gauss_legendre(target, a, b) for a, b in zip(self.lo, self.hi)))
        mesh = np.meshgrid(*xs, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return pts, functools.reduce(np.multiply.outer, ws).ravel()


@dataclass
class StarComponent(Component):
    """Star-shaped planar body r < radial(theta) around a center."""

    center: Sequence[float]
    radial: Callable[[np.ndarray], np.ndarray]
    dim: int = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.dim != 2:
            raise ValueError("star components are 2-d")

    def inside(self, pts):
        d = pts - self.center
        r = np.sqrt(np.sum(d * d, axis=1))
        th = np.arctan2(d[:, 1], d[:, 0])
        return r < self.radial(th)

    def _rmax(self):
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        return float(np.max(self.radial(th)))

    def bounding_box(self):
        rm = self._rmax()
        return self.center - rm, self.center + rm

    def diameter(self):
        th = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        r = self.radial(th)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        # Star shapes here are mild; a rolled-shift scan is accurate enough.
        best = 0.0
        for shift in range(0, 1024, 8):
            diff = pts - np.roll(pts, shift, axis=0)
            best = max(best, float(np.max(np.sqrt(np.sum(diff**2, axis=1)))))
        return best

    def boundary_mesh(self, count=1024):
        th = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        r = self.radial(th)
        dth = th[1] - th[0]
        rp = (np.roll(r, -1) - np.roll(r, 1)) / (2.0 * dth)
        pts = self.center + np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        # Outward normal of r = f(theta): (f cos + f' sin, f sin - f' cos)/|.|
        nx = r * np.cos(th) + rp * np.sin(th)
        ny = r * np.sin(th) - rp * np.cos(th)
        nn = np.sqrt(nx * nx + ny * ny)
        nrm = np.stack([nx / nn, ny / nn], axis=-1)
        w = nn * dth
        return pts, nrm, w

    def quad_nodes(self, target=32):
        nth = 4 * target
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        wth = 2.0 * math.pi / nth
        rbound = self.radial(th)
        gl_x, gl_w = np.polynomial.legendre.leggauss(target)
        rr = 0.5 * rbound[None, :] * (gl_x[:, None] + 1.0)
        ww = 0.5 * rbound[None, :] * gl_w[:, None] * wth * rr
        pts = self.center + np.stack(
            [(rr * np.cos(th[None, :])).ravel(), (rr * np.sin(th[None, :])).ravel()],
            axis=-1,
        )
        return pts, ww.ravel()


@dataclass
class CappedComponent(Component):
    """Cap-bottomed body: graph lens glued under a cylindrical bulk.

    The body is { omega(x') < x_n < h } union { |x'| < bulk_width,
    h <= x_n < h + bulk_height }, apex at ``apex``.  Inside the
    admissibility cylinder B(0,b) x (-h,h) it coincides exactly with
    { omega < x_n < h }, so the apex is an admissible curvature point of
    the body whenever the cap itself is admissible.
    """

    cap: CurvatureCap
    bulk_width: float = 0.35
    bulk_height: float = 0.5
    apex: Sequence[float] | None = None

    def __post_init__(self):
        self.dim = self.cap.n
        if self.apex is None:
            self.apex = np.zeros(self.dim)
        self.apex = np.asarray(self.apex, dtype=float)
        if self.bulk_width <= self.cap.rim_radius:
            raise ValueError("bulk must cover the cap rim")

    def _local(self, pts):
        return pts - self.apex

    def inside(self, pts):
        q = self._local(pts)
        xp, xn = q[:, :-1], q[:, -1]
        w = self.cap.omega(xp)
        r = np.sqrt(np.sum(xp * xp, axis=1))
        lens = (xn > w) & (xn < self.cap.h)
        bulk = (
            (r < self.bulk_width)
            & (xn >= self.cap.h)
            & (xn < self.cap.h + self.bulk_height)
        )
        return lens | bulk

    def bounding_box(self):
        w = self.bulk_width
        lo = self.apex + np.array([-w] * (self.dim - 1) + [0.0])
        hi = self.apex + np.array(
            [w] * (self.dim - 1) + [self.cap.h + self.bulk_height]
        )
        return lo, hi

    def column_bounds(self, xp: np.ndarray):
        """Vertical extent (lo, hi) of the body above tangential points."""
        w = self.cap.omega(xp)
        r = np.sqrt(np.sum(xp * xp, axis=1))
        rim = self.cap.rim_radius
        lo = np.where(r < rim, w, self.cap.h)
        hi = np.full(xp.shape[0], self.cap.h + self.bulk_height)
        empty = r >= self.bulk_width
        return lo, hi, empty

    def boundary_mesh(self, count=1024):
        if self.dim == 2:
            rim = self.cap.rim_radius
            h, hw, hh = self.cap.h, self.bulk_width, self.bulk_height
            n_graph = count // 2
            n_rest = count - n_graph
            # graph part
            t = np.linspace(-rim, rim, n_graph)
            xp = t[:, None]
            wv = self.cap.omega(xp)
            g = self.cap.omega_grad(xp)[:, 0]
            nn = np.sqrt(1.0 + g * g)
            pts_g = np.stack([t, wv], axis=-1)
            nrm_g = np.stack([g / nn, -1.0 / nn], axis=-1)
            w_g = np.full(n_graph, 2.0 * rim / n_graph) * nn
            # shelf (downward), walls (sideways), lid (upward)
            per = n_rest // 4
            s = np.linspace(rim, hw, per, endpoint=False)
            shelf = np.concatenate(
                [np.stack([s, np.full(per, h)], axis=-1),
                 np.stack([-s, np.full(per, h)], axis=-1)]
            )
            nrm_shelf = np.tile([0.0, -1.0], (2 * per, 1))
            w_shelf = np.full(2 * per, (hw - rim) / per)
            z = np.linspace(h, h + hh, per, endpoint=False)
            walls = np.concatenate(
                [np.stack([np.full(per, hw), z], axis=-1),
                 np.stack([np.full(per, -hw), z], axis=-1)]
            )
            nrm_walls = np.concatenate(
                [np.tile([1.0, 0.0], (per, 1)), np.tile([-1.0, 0.0], (per, 1))]
            )
            w_walls = np.full(2 * per, hh / per)
            s2 = np.linspace(-hw, hw, n_rest - 4 * per + 1)[:-1] if n_rest > 4 * per else np.empty(0)
            lid = np.stack([s2, np.full(s2.size, h + hh)], axis=-1)
            nrm_lid = np.tile([0.0, 1.0], (s2.size, 1))
            w_lid = np.full(s2.size, 2.0 * hw / max(s2.size, 1))
            pts = np.concatenate([pts_g, shelf, walls, lid]) + self.apex
            nrm = np.concatenate([nrm_g, nrm_shelf, nrm_walls, nrm_lid])
            w = np.concatenate([w_g, w_shelf, w_walls, w_lid])
            return pts, nrm, w
        # 3-d: graph patch + shelf annulus + wall + lid, polar layout.
        rim = self.cap.rim_radius
        h, hw, hh = self.cap.h, self.bulk_width, self.bulk_height
        m = max(12, int(math.sqrt(count / 4)))
        nth = 2 * m
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        wth = 2.0 * math.pi / nth
        out = []
        # graph
        r = (np.arange(m) + 0.5) * rim / m
        rr, tt = np.meshgrid(r, th, indexing="ij")
        xp = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1)
        wv = self.cap.omega(xp)
        g = self.cap.omega_grad(xp)
        nn = np.sqrt(1.0 + np.sum(g * g, axis=1))
        pts = np.concatenate([xp, wv[:, None]], axis=-1)
        nrm = np.concatenate([g, -np.ones((g.shape[0], 1))], axis=-1) / nn[:, None]
        w = (rim / m) * wth * rr.ravel() * nn
        out.append((pts, nrm, w))
        # shelf
        r = rim + (np.arange(m) + 0.5) * (hw - rim) / m
        rr, tt = np.meshgrid(r, th, indexing="ij")
        pts = np.stack(
            [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel(),
             np.full(rr.size, h)], axis=-1
        )
        nrm = np.tile([0.0, 0.0, -1.0], (pts.shape[0], 1))
        w = ((hw - rim) / m) * wth * rr.ravel()
        out.append((pts, nrm, w))
        # wall
        z = h + (np.arange(m) + 0.5) * hh / m
        zz, tt = np.meshgrid(z, th, indexing="ij")
        ct, st = np.cos(tt).ravel(), np.sin(tt).ravel()
        pts = np.stack([hw * ct, hw * st, zz.ravel()], axis=-1)
        nrm = np.stack([ct, st, np.zeros_like(ct)], axis=-1)
        w = np.full(pts.shape[0], (hh / m) * wth * hw)
        out.append((pts, nrm, w))
        # lid
        r = (np.arange(m) + 0.5) * hw / m
        rr, tt = np.meshgrid(r, th, indexing="ij")
        pts = np.stack(
            [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel(),
             np.full(rr.size, h + hh)], axis=-1
        )
        nrm = np.tile([0.0, 0.0, 1.0], (pts.shape[0], 1))
        w = (hw / m) * wth * rr.ravel()
        out.append((pts, nrm, w))
        pts = np.concatenate([o[0] for o in out]) + self.apex
        nrm = np.concatenate([o[1] for o in out])
        w = np.concatenate([o[2] for o in out])
        return pts, nrm, w

    def quad_nodes(self, target=48):
        """Column quadrature: tangential midpoints x GL along each column.

        Column grids snap to the cap rim so every segment sees a smooth
        column height; the tangential error is then clean O(h^2).
        """
        hw = self.bulk_width
        rim = self.cap.rim_radius
        n_col = 4 * target
        n_gl = 12
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_gl)

        def radial_cells():
            # Two-point Gauss per cell on [0, rim] and [rim, hw]; the rim
            # kink sits on a cell boundary, so the rule is O(h^4) clean.
            per_len = n_col / (2.0 * hw)
            g = 0.5 / math.sqrt(3.0)
            nodes, wts = [], []
            for a, bnd in ((0.0, rim), (rim, hw)):
                m = max(8, int(math.ceil((bnd - a) * per_len)))
                edges = np.linspace(a, bnd, m + 1)
                mid = 0.5 * (edges[:-1] + edges[1:])
                dr = np.diff(edges)
                nodes.append(np.concatenate([mid - g * dr, mid + g * dr]))
                wts.append(np.concatenate([0.5 * dr, 0.5 * dr]))
            return np.concatenate(nodes), np.concatenate(wts)

        if self.dim == 2:
            r_mid, r_w = radial_cells()
            t = np.concatenate([-r_mid[::-1], r_mid])
            dxp = np.concatenate([r_w[::-1], r_w])
            xp = t[:, None]
        else:
            r_mid, r_w = radial_cells()
            nth = n_col
            th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
            rr, tt = np.meshgrid(r_mid, th, indexing="ij")
            ww = np.meshgrid(r_w, th, indexing="ij")[0]
            xp = np.stack(
                [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1
            )
            dxp = (ww * (2.0 * math.pi / nth) * rr).ravel()
        lo, hi, empty = self.column_bounds(xp)
        keep = ~empty
        xp, lo, hi, darea = xp[keep], lo[keep], hi[keep], dxp[keep]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xn = mid[:, None] + half[:, None] * gl_x[None, :]
        wq = darea[:, None] * half[:, None] * gl_w[None, :]
        cols = np.repeat(xp, n_gl, axis=0)
        pts = np.concatenate([cols, xn.reshape(-1, 1)], axis=-1) + self.apex
        return pts, wq.ravel()


@dataclass
class Domain:
    """Scatterer support: disjoint components with shared helpers.

    The components must be disjoint: ``quad_nodes`` joins their nodes, so
    an overlap would be integrated twice, while ``inside`` takes the set
    union.  ``scenes.load_domain`` rejects overlapping unions.
    """

    components: list
    well_separated: bool = False

    @property
    def dim(self):
        return self.components[0].dim

    def inside(self, pts):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for c in self.components:
            mask |= c.inside(pts)
        return mask

    def bounding_box(self, pad: float = 0.0):
        los, his = zip(*(c.bounding_box() for c in self.components))
        lo = np.min(np.stack(los), axis=0) - pad
        hi = np.max(np.stack(his), axis=0) + pad
        return lo, hi

    def diameter(self):
        if len(self.components) == 1:
            return self.components[0].diameter()
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def boundary_mesh(self, count=None):
        if count is None:
            count = 2**10 if self.dim == 2 else 2**14
        per = max(count // len(self.components), 64)
        pts, nrm, w = zip(*(c.boundary_mesh(per) for c in self.components))
        return np.concatenate(pts), np.concatenate(nrm), np.concatenate(w)

    def quad_nodes(self, target=32):
        pts, w = zip(*(c.quad_nodes(target) for c in self.components))
        return np.concatenate(pts), np.concatenate(w)

    def gap_ok(self, c1: float) -> bool:
        """Pairwise component gaps exceed 2*c1 (well-separated check)."""
        meshes = [c.boundary_mesh(256)[0] for c in self.components]
        for i in range(len(meshes)):
            for j in range(i + 1, len(meshes)):
                d = np.min(
                    np.sqrt(
                        np.sum(
                            (meshes[i][:, None, :] - meshes[j][None, :, :]) ** 2,
                            axis=-1,
                        )
                    )
                )
                if d <= 2.0 * c1:
                    return False
        return True


def connected_to_infinity(
    p: np.ndarray, domain: Domain, grid_resolution: int = 128
) -> bool:
    """Flood-fill connectivity of a near-boundary point to infinity.

    The complement of the domain is rasterized on a padded bounding-box
    grid with face adjacency; the query point must have a complement
    cell in its immediate neighbourhood, else ``ResolutionTooCoarse``.
    """
    p = np.asarray(p, dtype=float)
    lo, hi = domain.bounding_box()
    pad = 0.1 * float(np.max(hi - lo))
    lo, hi = lo - pad, hi + pad
    n = grid_resolution
    axes = [np.linspace(lo[d], hi[d], n) for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    occupied = domain.inside(pts).reshape([n] * domain.dim)
    complement = ~occupied
    structure = scipy.ndimage.generate_binary_structure(domain.dim, 1)
    labels, _ = scipy.ndimage.label(complement, structure=structure)
    outside_label = labels[(0,) * domain.dim]
    # Complement cells adjacent to p (within a 2-cell box).
    spacing = np.array([ax[1] - ax[0] for ax in axes])
    idx = np.round((p - lo) / spacing).astype(int)
    idx = np.clip(idx, 0, n - 1)
    rng = [
        slice(max(i - 2, 0), min(i + 3, n)) for i in idx
    ]
    patch = labels[tuple(rng)]
    free = patch[patch > 0]
    if free.size == 0:
        raise ResolutionTooCoarse(
            f"no complement cell within 2 cells of {p} at resolution {n}"
        )
    return bool(np.any(free == outside_label))
