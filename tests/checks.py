"""Independent checks and fixtures that only the tests use.

Green-identity residuals with manufactured fields, the transmission
eigenfunction's vanishing near a high-curvature point, flood-fill
connectivity to infinity, the Mie series' total field and the inverse
of ``scenes.load_domain``.  No command, suite, demo or benchmark run
needs them, so they live here rather than in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.ndimage
from scipy.special import hankel1, jv

from invisiscat.cgo import curvature_estimate_rhs
from invisiscat.errors import NumericalFailure
from invisiscat.geometry import (
    AnnulusComponent,
    BallComponent,
    BoxComponent,
    CappedComponent,
    Domain,
)
from invisiscat.gridquad import cap_lid_nodes, cap_window_columns
from invisiscat.holder import PrecondViolated, SampledFunction, holder_norm
from invisiscat.manufactured import LensBump
from invisiscat.radial import mie_mode_coefficients, suggested_mode_count
from invisiscat.scenes import SceneError


# ---------------------------------------------------------------------------
# Harmonic test fields and the box bump
# ---------------------------------------------------------------------------


@dataclass
class ConstField:
    """u0 = const; trivially harmonic."""

    c: complex = 1.0

    def value(self, pts):
        return np.full(pts.shape[0], self.c, dtype=complex)

    def grad(self, pts):
        return np.zeros_like(pts, dtype=complex)


@dataclass
class CgoField:
    """u0 = exp(rho . x) with rho . rho = 0 (complex bilinear), so harmonic."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if abs(np.sum(self.rho * self.rho)) > 1e-10 * max(
            1.0, float(np.sum(np.abs(self.rho) ** 2))
        ):
            raise ValueError("rho . rho must vanish for a harmonic exponential")

    def value(self, pts):
        return np.exp(pts @ self.rho)

    def grad(self, pts):
        return self.value(pts)[:, None] * self.rho[None, :]


class BoxBump:
    """w = prod_d (x_d - a_d)^2 (b_d - x_d)^2, H^2_0 on the box."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def _uv(self, pts):
        return pts - self.lo, self.hi - pts

    def value(self, pts):
        u, v = self._uv(pts)
        return np.prod((u * v) ** 2, axis=1)

    def _q(self, u, v):
        q = (u * v) ** 2
        qp = 2.0 * u * v * (v - u)
        qpp = 2.0 * ((v - u) ** 2 - 2.0 * u * v)
        return q, qp, qpp

    def grad(self, pts):
        u, v = self._uv(pts)
        q, qp, _ = self._q(u, v)
        total = np.prod(q, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(q > 0, total[:, None] / q, 0.0) * qp
        # Fall back to explicit products where a factor vanishes.
        bad = np.any(q <= 0, axis=1)
        if np.any(bad):
            for i in np.nonzero(bad)[0]:
                for d in range(pts.shape[1]):
                    rest = np.prod(np.delete(q[i], d))
                    out[i, d] = qp[i, d] * rest
        return out

    def laplacian(self, pts):
        u, v = self._uv(pts)
        q, _, qpp = self._q(u, v)
        out = np.zeros(pts.shape[0])
        for d in range(pts.shape[1]):
            rest = np.prod(np.delete(q, d, axis=1), axis=1)
            out += qpp[:, d] * rest
        return out

    def phi(self, pts, k: float):
        return self.laplacian(pts) + k * k * self.value(pts)


# ---------------------------------------------------------------------------
# Green identity windows and residual
# ---------------------------------------------------------------------------


def mean_zero_check(f, domain, target: int = 48) -> float:
    """|integral of f over the domain| by component-accurate quadrature."""
    if isinstance(f, SampledFunction):
        if f.fn is None:
            if f.weights is None:
                raise ValueError("sampled function carries no quadrature weights")
            return float(abs(np.sum(f.weights * f.values)))
        fn = f.fn
    else:
        fn = f
    pts, w = domain.quad_nodes(target)
    return float(abs(np.sum(w * np.asarray(fn(pts)))))


def _simpson_axis(a: float, b: float, spacing: float):
    n = max(2, int(math.ceil((b - a) / spacing)))
    if n % 2 == 1:
        n += 1
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / n / 3.0
    return x, w


def simpson_box(lo, hi, spacing: float):
    """Composite Simpson tensor rule on a box; O(h^4) for smooth fields."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [_simpson_axis(lo[d], hi[d], spacing) for d in range(lo.size)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(pts.shape[0])
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    for g in wgrids:
        w = w * g.ravel()
    return pts, w


@dataclass
class BoxWindow:
    """Axis-aligned box with Simpson volume rule."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)

    def volume_nodes(self, spacing):
        return simpson_box(self.lo, self.hi, spacing)


@dataclass
class CapWindow:
    """Boundary window {|x'| < b, omega < x_n < h}; Gamma is the graph part."""

    cap: object

    def volume_nodes(self, spacing):
        return cap_window_columns(self.cap, spacing)

    def lid_nodes(self, spacing):
        return cap_lid_nodes(self.cap, spacing)


def _check_pde(w_field, k: float, pts: np.ndarray, spacing: float, tol: float | None):
    """Five-point FD check that (Delta + k^2) w matches w.phi."""
    h = spacing
    d = pts.shape[1]
    lap = -2.0 * d * np.asarray(w_field.value(pts), dtype=complex)
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = h
        lap += np.asarray(w_field.value(pts + e), dtype=complex)
        lap += np.asarray(w_field.value(pts - e), dtype=complex)
    lap /= h * h
    resid = lap + k * k * np.asarray(w_field.value(pts), dtype=complex)
    resid -= np.asarray(w_field.phi(pts, k), dtype=complex)
    scale = max(1.0, float(np.max(np.abs(w_field.phi(pts, k)))))
    limit = tol if tol is not None else 100.0 * h * h * scale + 1e-8
    worst = float(np.max(np.abs(resid)))
    if worst > limit:
        raise PrecondViolated(
            f"PDE residual {worst:.3e} exceeds tolerance {limit:.3e}"
        )


def green_identity_residual(
    w_field,
    u0_field,
    k: float,
    window,
    spacing: float,
    gamma: str = "all",
    precond_tol: float | None = None,
) -> complex:
    """Residual of int (phi - k^2 w) u0 dx = int_{bdry \\ Gamma} (u0 d_nu w - w d_nu u0).

    ``w_field`` supplies value/grad/phi analytically; ``u0_field`` is
    harmonic.  With ``gamma="all"`` the whole boundary carries the
    w = d_nu w = 0 condition and the right side vanishes.  The returned
    residual is pure quadrature error, O(spacing^2) or better.
    """
    pts, wts = window.volume_nodes(spacing)
    # Interior PDE precondition on a probe subset away from the boundary.
    probe = pts[:: max(1, pts.shape[0] // 64)]
    _check_pde(w_field, k, probe, 0.5 * spacing, precond_tol)

    vol = np.sum(
        wts
        * (
            np.asarray(w_field.phi(pts, k), dtype=complex)
            - k * k * np.asarray(w_field.value(pts), dtype=complex)
        )
        * np.asarray(u0_field.value(pts), dtype=complex)
    )
    if gamma == "all":
        return complex(vol)
    if isinstance(window, CapWindow):
        # Gamma = graph piece; the remaining boundary is the flat lid with
        # outward normal +e_n.
        lid_pts, lid_w = window.lid_nodes(spacing)
        nu = np.zeros(lid_pts.shape[1])
        nu[-1] = 1.0
        dnu_w = np.asarray(w_field.grad(lid_pts), dtype=complex) @ nu
        dnu_u0 = np.asarray(u0_field.grad(lid_pts), dtype=complex) @ nu
        u0v = np.asarray(u0_field.value(lid_pts), dtype=complex)
        wv = np.asarray(w_field.value(lid_pts), dtype=complex)
        surf = np.sum(lid_w * (u0v * dnu_w - wv * dnu_u0))
        return complex(vol - surf)
    raise ValueError("partial Gamma is implemented for cap windows only")


# ---------------------------------------------------------------------------
# Transmission eigenfunctions near a curvature point
# ---------------------------------------------------------------------------


def manufactured_itp_field(comp: CappedComponent, v0: complex, k: float):
    """Manufactured transmission-like pair on a cap-bottomed body.

    Given the H^2_0 difference d = (x_n - omega)^2 (h - x_n)^2 on the cap
    lens, the field u := -(Delta + k^2) d / (k^2 v0) and w := u - d
    satisfy (Delta + k^2) (u - w) = -k^2 V u with V = v0 chi_Omega, the
    defining identity consumed by the boundary diagnostics.
    """
    if v0 == 0:
        raise ValueError("contrast must be nonzero")
    bump = LensBump(comp.cap)

    def u_fn(pts):
        local = np.atleast_2d(pts) - comp.apex
        return -bump.phi(local, k) / (k * k * v0)

    return u_fn, bump


@dataclass
class CurvatureProbeReport:
    u_at_apex: float
    envelope: float
    norm_u: float

    @property
    def satisfied(self) -> bool:
        return self.u_at_apex <= self.envelope


def curvature_vanishing_probe(
    comp: CappedComponent,
    v0: complex,
    k: float,
    u_fn: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    calibration: float = 1.0,
    spacing: float | None = None,
) -> CurvatureProbeReport:
    """Compare |u(apex)| with the curvature envelope after normalization.

    u is normalized to unit discrete C^alpha norm over the cap window;
    the envelope is the four-term visibility bound scaled by
    |V|_Calpha / |V(apex)| (= 1 for constant contrast) and a frozen
    calibration constant.
    """
    cap = comp.cap
    if spacing is None:
        spacing = cap.h / 48.0
    pts, _ = cap_window_columns(cap, spacing)
    vals = np.asarray(u_fn(pts + comp.apex), dtype=complex)
    f = SampledFunction(points=pts, values=vals, spacing=spacing)
    norm = holder_norm(f, alpha)
    if norm == 0:
        return CurvatureProbeReport(0.0, math.inf, 0.0)
    u_apex = abs(complex(np.asarray(u_fn(comp.apex[None, :]))[0])) / norm
    env = calibration * curvature_estimate_rhs(
        cap.K, alpha, cap.delta, cap.L, cap.M, cap.n, k
    )
    return CurvatureProbeReport(u_at_apex=u_apex, envelope=env, norm_u=norm)


# ---------------------------------------------------------------------------
# Connectivity of the complement
# ---------------------------------------------------------------------------


class ResolutionTooCoarse(NumericalFailure):
    """Connectivity grid cannot see the complement near the query point."""


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


# ---------------------------------------------------------------------------
# Mie total field
# ---------------------------------------------------------------------------


def mie_total_field(
    k: float,
    R: float,
    v0: float,
    pts: np.ndarray,
    inc_angle: float = 0.0,
    m_max: int | None = None,
) -> np.ndarray:
    """Total field of the plane-wave scattering problem at given points."""
    if m_max is None:
        m_max = suggested_mode_count(k, R, v0)
    pts = np.atleast_2d(pts)
    r = np.sqrt(np.sum(pts * pts, axis=1))
    phi = np.arctan2(pts[:, 1], pts[:, 0]) - inc_angle
    k1 = k * math.sqrt(1.0 + v0)
    interior = r < R
    exterior = ~interior
    out = np.zeros(pts.shape[0], dtype=complex)
    direction = np.array([math.cos(inc_angle), math.sin(inc_angle)])
    out[exterior] = np.exp(1j * k * (pts[exterior] @ direction))
    for m in range(0, m_max + 1):
        a, c = mie_mode_coefficients(k, R, v0, m)
        g = 1j**m
        ang = np.cos(m * phi) * (2.0 if m > 0 else 1.0)
        out[interior] += g * a * jv(m, k1 * r[interior]) * ang[interior]
        out[exterior] += g * c * hankel1(m, k * r[exterior]) * ang[exterior]
    return out


# ---------------------------------------------------------------------------
# Scene round trip
# ---------------------------------------------------------------------------


def _component_spec(comp) -> dict:
    if isinstance(comp, BallComponent):
        return {
            "kind": "ball",
            "center": comp.center.tolist(),
            "radius": comp.radius,
        }
    if isinstance(comp, AnnulusComponent):
        return {
            "kind": "annulus",
            "center": comp.center.tolist(),
            "r_inner": comp.r_inner,
            "r_outer": comp.r_outer,
        }
    if isinstance(comp, BoxComponent):
        return {"kind": "box", "lo": comp.lo.tolist(), "hi": comp.hi.tolist()}
    if isinstance(comp, CappedComponent):
        return {
            "kind": "capped",
            "K": comp.cap.K,
            "cubic": comp.cap.c3,
            "L": comp.cap.L,
            "M": comp.cap.M,
            "delta": comp.cap.delta,
            "bulk_width": comp.bulk_width,
            "bulk_height": comp.bulk_height,
            "apex": comp.apex.tolist(),
        }
    raise SceneError(f"component {type(comp).__name__} has no JSON form")


def domain_to_spec(domain: Domain) -> dict:
    """Inverse of ``scenes.load_domain`` for the closed-form component kinds."""
    if len(domain.components) == 1 and not domain.well_separated:
        return _component_spec(domain.components[0])
    return {
        "kind": "union",
        "components": [_component_spec(c) for c in domain.components],
        "well_separated": domain.well_separated,
    }
