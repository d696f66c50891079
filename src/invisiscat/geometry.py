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
membership, sample points on its boundary, produce accurate volume
quadrature nodes and give the fraction of each cell of a regular grid
that it covers (``Component.coverage``, which ``kernels.make_support_grid``
sums).  One coverage rule serves every shape: cells the boundary cannot
reach (``_cells``) count 1 or 0; the others integrate the exact vertical
extent (``_column``, 2-d) by 24 strips, else count an 8^n subsample.

The fixed node rules for cap windows, ``cap_window_columns`` and
``cap_lid_nodes``, are deliberately tied to a mesh spacing h, unlike the
adaptive oracle, so that discretization residuals scale predictably
(order 2 for the window columns); convergence studies refine h and
measure the observed order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .quadrature import GraphCap, _bisect, _leggauss

__all__ = [
    "InadmissiblePerturbation",
    "CurvatureCap",
    "compute_cn",
    "make_curvature_cap",
    "nesting_check",
    "NestingReport",
    "cap_window_columns",
    "cap_lid_nodes",
    "BallComponent",
    "AnnulusComponent",
    "BoxComponent",
    "StarComponent",
    "CappedComponent",
    "Domain",
    "sphere_directions",
]


class InadmissiblePerturbation(ConfigError):
    """Cubic perturbation too large for the requested (K, L, M, delta)."""


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
            raise ConfigError("need K, L, delta > 0 and M >= 1")
        if self.n not in (2, 3):
            raise ConfigError("dimensions 2 and 3 supported")
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
        return float(_bisect(
            lambda r: self.omega(np.array([[x] + pad for x in r])) - self.h, [0.0], [self.b]
        )[0])


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
    if not (math.isfinite(K) and K >= math.e):
        raise ConfigError(f"curvature parameter must be finite with K >= e, got {K!r}")
    cn = compute_cn(n)
    f = abs(cubic_coeff) * _CUBIC_THIRD_DERIV_SUP
    try:
        power = K ** (2.0 - delta)
    except OverflowError:
        raise ConfigError(f"curvature parameter K = {K!r} overflows K^(2 - delta)") from None
    try:
        m_power = M**1.5
    except OverflowError:
        raise ConfigError(f"pinching ratio M = {M!r} overflows M^(3/2)") from None
    budget = min(
        (M - 1.0) * K * K / (cn * m_power),
        L * power / (2.0 * cn * math.sqrt(M)),
    )
    if f > budget:
        raise InadmissiblePerturbation(
            f"third-derivative size {f:.4g} exceeds admissible budget {budget:.4g}"
        )
    cap = CurvatureCap(K=K, L=L, M=M, delta=delta, c3=cubic_coeff, n=n)
    # Hard invariants of the construction, which the budget above implies.
    if not (
        cap.K_minus > 0
        and 1.0 / M - 1e-12 <= cap.K_minus / K
        and cap.K_plus / K <= M + 1e-12
        and cap.K_plus - cap.K_minus <= L * K ** (1.0 - delta) * (1 + 1e-12)
    ):
        raise NumericalFailure(f"pinching curvatures break the admissibility bounds at K = {K!r}")
    if cap.h > cap.K_minus * cap.b * cap.b * (1 + 1e-12):
        raise InadmissiblePerturbation(
            "lid height exceeds K_- b^2; paraboloid would touch the cylinder wall"
        )
    return cap


# Points on which nesting_check compares omega with the two paraboloids.
_NESTING_SAMPLES = 10**4


@dataclass
class NestingReport:
    violations: int
    max_excess: float
    samples: int


def nesting_check(cap: CurvatureCap) -> NestingReport:
    """Grid check of K_-|x'|^2 <= omega(x') <= K_+|x'|^2 on |x'| < b.

    Equivalent to the inclusions
    {K_+|x'|^2 < x_n < h}  subset  Omega_{b,h}  subset  {K_-|x'|^2 < x_n < h}.
    """
    if cap.n == 2:
        xp = np.linspace(-cap.b, cap.b, _NESTING_SAMPLES)[:, None]
    else:
        m = int(math.sqrt(_NESTING_SAMPLES))
        xp = _polar(
            np.linspace(0.0, cap.b, m), np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        )
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


def _tangential_cells(rim: float, spacing: float, dim: int):
    """Midpoint cells covering {|x'| < rim}; returns (points, areas)."""
    m = max(4, int(math.ceil(rim / spacing)))
    edges = np.linspace(0.0, rim, m + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nth = max(8, int(math.ceil(2.0 * math.pi * rim / spacing)))
    return _tangential_layout(mid, np.diff(edges), dim, nth)


def cap_window_columns(cap: CurvatureCap, spacing: float):
    """Quadrature for the boundary window {|x'| < b, omega(x') < x_n < h}.

    Tangential midpoint cells (columns end at the rim where omega = h)
    with 8 Gauss-Legendre nodes along each column; O(h^2) overall.
    """
    xp, darea = _tangential_cells(cap.rim_radius, spacing, cap.n)
    return _columns(xp, cap.omega(xp), np.full(xp.shape[0], cap.h), darea, 8)


def cap_lid_nodes(cap: CurvatureCap, spacing: float):
    """Quadrature on the flat lid V = {omega < h} x {h} with its area weights."""
    xp, darea = _tangential_cells(cap.rim_radius, spacing, cap.n)
    pts = np.concatenate([xp, np.full((xp.shape[0], 1), cap.h)], axis=-1)
    return pts, darea


# ---------------------------------------------------------------------------
# Support components
# ---------------------------------------------------------------------------


# Most directions sphere_directions gives; far-field arrays are directions
# times quadrature nodes or grid lines, so past this they reach gigabytes.
_MAX_DIRECTIONS = 2**20


def sphere_directions(n: int, n_dirs: int):
    """Uniform angular grid on S^(n-1): (directions, weights, angles).

    In 2-d, ``n_dirs`` equispaced angles theta.  In 3-d, a latitude-longitude
    grid of m midpoint polar rings times 2m azimuths with
    m = max(4, int(sqrt(n_dirs / 2))) and sin(phi) area weights; the
    angles are (theta, phi) pairs, theta-major.  The weights sum to the
    measure of the sphere up to the midpoint rule's error.  A count
    outside 1 to ``_MAX_DIRECTIONS`` raises ConfigError.
    """
    if not 1 <= n_dirs <= _MAX_DIRECTIONS:
        raise ConfigError(f"need 1 to {_MAX_DIRECTIONS} directions, got {n_dirs!r}")
    if n == 2:
        th = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        w = np.full(n_dirs, 2.0 * math.pi / n_dirs)
        return dirs, w, th[:, None]
    m = max(4, int(math.sqrt(n_dirs / 2)))
    th = np.linspace(0.0, 2.0 * math.pi, 2 * m, endpoint=False)
    ph = (np.arange(m) + 0.5) * math.pi / m
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    dirs = np.stack(
        [np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)], axis=-1
    ).reshape(-1, 3)
    w = (np.sin(pp) * (math.pi / m) * (2.0 * math.pi / (2 * m))).ravel()
    angles = np.stack([tt.ravel(), pp.ravel()], axis=-1)
    return dirs, w, angles


def _gauss_legendre(npts: int, a: float, b: float):
    x, w = _leggauss(npts)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def _polar(r, th):
    """Points r (cos th, sin th) over the r x th product, r-major."""
    rr, tt = np.meshgrid(r, th, indexing="ij")
    return np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1)


def _disk_nodes(r, wr, nth: int):
    """Polar rule on a disk or planar shell around the origin.

    Radial nodes r with weights wr times ``nth`` equispaced angles;
    returns (offsets, weights).
    """
    th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    return _polar(r, th), np.repeat(wr * (2.0 * math.pi / nth) * r, nth)


def _tangential_layout(r, dr, dim: int, nth: int):
    """Tangential cells from radial nodes r of widths dr; returns (points, areas).

    In 2-d the radial nodes are mirrored onto the line; in 3-d they are
    swept over ``nth`` equispaced angles.
    """
    if dim == 2:
        return np.concatenate([-r[::-1], r])[:, None], np.concatenate([dr[::-1], dr])
    return _disk_nodes(r, dr, nth)


def _columns(xp, lo, hi, area, n_gl: int):
    """Gauss-Legendre nodes on the columns lo < x_n < hi above points xp."""
    gl_x, gl_w = _leggauss(n_gl)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xn = mid[:, None] + half[:, None] * gl_x[None, :]
    w = area[:, None] * half[:, None] * gl_w[None, :]
    cols = np.repeat(xp, n_gl, axis=0)
    return np.concatenate([cols, xn.reshape(-1, 1)], axis=-1), w.ravel()


def _ball_nodes(r, wr, n_cos: int, nth: int):
    """Spherical rule on a 3-d ball around the origin.

    Radial nodes r with weights wr, times ``n_cos`` Gauss-Legendre nodes
    in cos(phi), times ``nth`` equispaced azimuths; returns (offsets, weights).
    """
    c, wc = _leggauss(n_cos)
    th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    xy = _polar(np.outer(r, np.sqrt(1.0 - c * c)).ravel(), th)
    z = np.repeat(np.outer(r, c).ravel(), nth)
    w = (wr[:, None] * wc[None, :] * (2.0 * math.pi / nth)) * r[:, None] ** 2
    return np.column_stack([xy, z]), np.repeat(w.ravel(), nth)


def _coverage_subsample(region, centers: np.ndarray, h: float, sub: int = 8):
    """Fraction of each cell's sub^n midpoint subsample inside ``region``."""
    d = centers.shape[1]
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    mesh = np.meshgrid(*([offs] * d), indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=-1) * h
    frac = np.zeros(centers.shape[0])
    for off in offsets:
        frac += region.inside(centers + off)
    return frac / offsets.shape[0]


def _radial_cells(centers: np.ndarray, center, r_in: float, r_out: float, h: float):
    """(full, cut) for a boundary between radii r_in and r_out around ``center``.

    0.75 h sqrt(n) exceeds the reach of the 8^n subsample (7h/16 per axis).
    """
    margin = 0.75 * h * math.sqrt(centers.shape[1])
    d = np.sqrt(np.sum((centers - center) ** 2, axis=1))
    full = d <= r_in - margin
    return full, ~full & (d < r_out + margin)


class Component:
    dim: int
    _column = None  # 2-d: x -> (lo, hi, live), the exact vertical extent above x

    def inside(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cells(self, centers: np.ndarray, h: float):
        """(full, cut) masks; every cell may be cut unless a shape knows better."""
        return np.zeros(len(centers), dtype=bool), np.ones(len(centers), dtype=bool)

    def coverage(self, centers: np.ndarray, h: float) -> np.ndarray:
        """Fraction of each grid cell (``centers``, side h) inside the component.

        Uncut cells count 1 or 0.  A cut cell integrates the chord
        [max(y0, lo), min(y1, hi)] of its ``_column`` by the 24-point
        midpoint rule in x, or else counts its 8^n midpoint subsample.
        """
        full, cut = self._cells(centers, h)
        frac = np.where(full, 1.0, 0.0)
        if self.dim != 2 or self._column is None:
            frac[cut] = _coverage_subsample(self, centers[cut], h)
            return frac
        sub = 24
        x, y = centers[cut, 0], centers[cut, 1]
        x0, x1 = x - h / 2, x + h / 2
        # C order, so each row sums in the same (pairwise) order as a 1-d array.
        xs = np.ascontiguousarray(np.linspace(x0, x1, sub + 1, axis=1))
        lo, hi, live = self._column(0.5 * (xs[:, :-1] + xs[:, 1:]))
        lo = np.maximum((y - h / 2)[:, None], lo)
        hi = np.minimum((y + h / 2)[:, None], hi)
        chord = np.maximum(hi - lo, 0.0) * live
        frac[cut] = np.sum(chord, axis=1) * ((x1 - x0) / sub) / (h * h)
        return frac

    def boundary_points(self, count: int):
        """About ``count`` points sampled on the boundary, shape (m, dim)."""
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
        if self.center.shape != (self.dim,):
            raise ConfigError(
                f"ball centre must have {self.dim} coordinates, got {self.center.tolist()!r}"
            )
        if not self.radius > 0:
            raise ConfigError(f"ball radius must be positive, got {self.radius!r}")

    def inside(self, pts):
        return np.sum((pts - self.center) ** 2, axis=1) < self.radius**2

    def _cells(self, centers, h):
        return _radial_cells(centers, self.center, self.radius, self.radius, h)

    def _column(self, x):
        (cx, cy), R = self.center, self.radius
        d2 = R * R - (x - cx) ** 2
        s = np.sqrt(np.maximum(d2, 0.0))
        return cy - s, cy + s, d2 > 0

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def diameter(self):
        return 2.0 * self.radius

    def boundary_points(self, count=1024):
        return self.center + self.radius * sphere_directions(self.dim, count)[0]

    def quad_nodes(self, target=32):
        r, wr = _gauss_legendre(target, 0.0, self.radius)
        if self.dim == 2:
            pts, w = _disk_nodes(r, wr, 2 * target)
        else:
            pts, w = _ball_nodes(r, wr, target, 2 * target)
        return self.center + pts, w


@dataclass
class AnnulusComponent(Component):
    center: Sequence[float]
    r_inner: float
    r_outer: float
    dim = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (2,):
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

    def boundary_points(self, count=1024):
        ring = sphere_directions(2, count // 2)[0]
        return np.concatenate([self.center + r * ring for r in (self.r_outer, self.r_inner)])

    def quad_nodes(self, target=32):
        r, wr = _gauss_legendre(target, self.r_inner, self.r_outer)
        pts, w = _disk_nodes(r, wr, 2 * target)
        return self.center + pts, w


@dataclass
class BoxComponent(Component):
    """Axis-aligned box support; boundary points are 2-d only."""

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

    def _column(self, x):
        (x0, y0), (x1, y1) = self.lo, self.hi
        return y0, y1, (x > x0) & (x < x1)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def boundary_points(self, count=1024):
        if self.dim != 2:
            raise ValueError("box boundary points are 2-d")
        (x0, y0), (x1, y1) = self.lo, self.hi
        per = max(count // 4, 16)
        tx = np.linspace(x0, x1, per, endpoint=False) + (x1 - x0) / (2 * per)
        ty = np.linspace(y0, y1, per, endpoint=False) + (y1 - y0) / (2 * per)
        return np.concatenate(
            [
                np.stack([tx, np.full(per, y0)], axis=-1),
                np.stack([tx, np.full(per, y1)], axis=-1),
                np.stack([np.full(per, x0), ty], axis=-1),
                np.stack([np.full(per, x1), ty], axis=-1),
            ]
        )

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
    dim = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (2,):
            raise ValueError("star components are 2-d")
        r = self._radii()
        if not np.all((r > 0) & np.isfinite(r)):
            raise ConfigError("star radial function must be finite and positive at every angle")

    def inside(self, pts):
        d = pts - self.center
        r = np.sqrt(np.sum(d * d, axis=1))
        th = np.arctan2(d[:, 1], d[:, 0])
        return r < self.radial(th)

    def _radii(self):
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        return self.radial(th)

    def _cells(self, centers, h):
        # 4096 samples miss a mild star's extreme radii by far less than h/16.
        r = self._radii()
        return _radial_cells(centers, self.center, float(np.min(r)), float(np.max(r)), h)

    def bounding_box(self):
        rm = float(np.max(self._radii()))
        return self.center - rm, self.center + rm

    def _curve(self, count):
        th = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        r = self.radial(th)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def diameter(self):
        pts = self._curve(2048)
        # Star shapes here are mild; a rolled-shift scan is accurate enough.
        best = 0.0
        for shift in range(0, 1024, 8):
            diff = pts - np.roll(pts, shift, axis=0)
            best = max(best, float(np.max(np.sqrt(np.sum(diff**2, axis=1)))))
        return best

    def boundary_points(self, count=1024):
        return self.center + self._curve(count)

    def quad_nodes(self, target=32):
        nth = 4 * target
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        wth = 2.0 * math.pi / nth
        rbound = self.radial(th)
        gl_x, gl_w = _leggauss(target)
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

    The body is { |x'| < rim, omega(x') < x_n < h } union { |x'| < bulk_width,
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
        for name in ("bulk_width", "bulk_height"):
            size = getattr(self, name)
            if not (math.isfinite(size) and size > 0):
                raise ConfigError(f"{name} must be finite and positive, got {size!r}")
        if self.bulk_width <= self.cap.rim_radius:
            raise ConfigError("bulk must cover the cap rim")

    def inside(self, pts):
        q = pts - self.apex
        xp, xn = q[:, :-1], q[:, -1]
        w = self.cap.omega(xp)
        r = np.sqrt(np.sum(xp * xp, axis=1))
        lens = (r < self.cap.rim_radius) & (xn > w) & (xn < self.cap.h)
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

    def _column(self, x):
        ax, ay = self.apex
        lo, hi, empty = self.column_bounds((x - ax).reshape(-1, 1))
        return (lo + ay).reshape(x.shape), (hi + ay).reshape(x.shape), ~empty.reshape(x.shape)

    def _cells(self, centers, h):
        """(full, cut) from the columns at the cell's nearest and farthest |x'|.

        lo(|x'|) never falls (an admissible omega rises to h at the rim).
        """
        q = centers - self.apex
        a = np.abs(q[:, :-1])
        near = np.sqrt(np.sum(np.maximum(a - h / 2, 0.0) ** 2, axis=1))
        far = np.sqrt(np.sum((a + h / 2) ** 2, axis=1))
        lo_near, top, out_near = self.column_bounds(near[:, None])
        lo_far, _, out_far = self.column_bounds(far[:, None])
        y0, y1 = q[:, -1] - h / 2, q[:, -1] + h / 2
        full = ~out_far & (y0 > lo_far) & (y1 < top)
        return full, ~full & ~(out_near | (y1 <= lo_near) | (y0 >= top))

    def boundary_points(self, count=1024):
        rim = self.cap.rim_radius
        h, hw, hh = self.cap.h, self.bulk_width, self.bulk_height
        if self.dim == 2:
            n_graph = count // 2
            n_rest = count - n_graph
            t = np.linspace(-rim, rim, n_graph)
            graph = np.stack([t, self.cap.omega(t[:, None])], axis=-1)
            # two shelf halves, two walls and the lid, one fifth each
            per = n_rest // 5
            s = np.linspace(rim, hw, per, endpoint=False)
            z = np.linspace(h, h + hh, per, endpoint=False)
            s2 = np.linspace(-hw, hw, n_rest - 4 * per, endpoint=False)
            pts = np.concatenate(
                [
                    graph,
                    np.stack([s, np.full(per, h)], axis=-1),
                    np.stack([-s, np.full(per, h)], axis=-1),
                    np.stack([np.full(per, hw), z], axis=-1),
                    np.stack([np.full(per, -hw), z], axis=-1),
                    np.stack([s2, np.full(s2.size, h + hh)], axis=-1),
                ]
            )
            return pts + self.apex
        # 3-d: graph patch + shelf annulus + wall + lid, m rings x 2m angles.
        m = max(12, int(math.sqrt(count / 4)))
        th = np.linspace(0.0, 2.0 * math.pi, 2 * m, endpoint=False)
        mid = np.arange(m) + 0.5
        graph = _polar(mid * rim / m, th)
        pieces = [
            (graph, self.cap.omega(graph)),
            (_polar(rim + mid * (hw - rim) / m, th), h),
            (_polar(np.full(m, hw), th), np.repeat(h + mid * hh / m, th.size)),
            (_polar(mid * hw / m, th), h + hh),
        ]
        pts = np.concatenate(
            [np.column_stack([xp, np.broadcast_to(z, xp.shape[0])]) for xp, z in pieces]
        )
        return pts + self.apex

    def quad_nodes(self, target=48):
        """Column quadrature: tangential cells x 12-point Gauss along each column.

        Column grids snap to the cap rim so every segment sees a smooth
        column height; the tangential error is then clean O(h^2).
        """
        hw = self.bulk_width
        rim = self.cap.rim_radius
        n_col = 4 * target
        # Two-point Gauss per cell on [0, rim] and [rim, hw]; the rim kink
        # sits on a cell boundary, so the rule is O(h^4) clean.
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
        xp, area = _tangential_layout(np.concatenate(nodes), np.concatenate(wts), self.dim, n_col)
        lo, hi, _ = self.column_bounds(xp)
        pts, w = _columns(xp, lo, hi, area, 12)
        return pts + self.apex, w


@dataclass
class Domain:
    """Scatterer support: disjoint components with shared helpers.

    The components must be disjoint: ``quad_nodes`` joins their nodes, so
    an overlap would be integrated twice, while ``inside`` takes the set
    union.  Construction raises ConfigError when one component holds a
    quadrature node of another.
    """

    components: list

    def __post_init__(self):
        if len(self.components) > 1:
            for i, comp in enumerate(self.components):
                pts, _ = comp.quad_nodes()
                for j, other in enumerate(self.components):
                    if j != i and np.any(other.inside(pts)):
                        raise ConfigError(f"union components {i} and {j} overlap")

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

    def boundary_points(self, count=None):
        """Boundary samples of every component, about ``count`` in total.

        Each component gets max(count // components, 64) points; the
        default count is 2^10 in 2-d and 2^14 in 3-d.
        """
        if count is None:
            count = 2**10 if self.dim == 2 else 2**14
        per = max(count // len(self.components), 64)
        return np.concatenate([c.boundary_points(per) for c in self.components])

    def quad_nodes(self, target=32):
        pts, w = zip(*(c.quad_nodes(target) for c in self.components))
        return np.concatenate(pts), np.concatenate(w)

    def gap_ok(self, c1: float) -> bool:
        """Pairwise component gaps exceed 2*c1 (well-separated check)."""
        meshes = [c.boundary_points(256) for c in self.components]
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
