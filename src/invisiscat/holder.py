"""Discrete Hoelder norms, boundary suprema, and Green-identity residuals.

The discrete C^alpha norm is sup|f| plus a seminorm maximized over a
pair subsample: every pair closer than four grid spacings plus a fixed
seeded batch of long-range pairs.  Smooth fields attain their seminorm
at short range, so the subsampled value is a lower bound converging
under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.spatial

from .errors import ConfigError, NumericalFailure
from .gridquad import cap_lid_nodes, cap_window_columns, simpson_box
from .kernels import _coverage_subsample

__all__ = [
    "PrecondViolated",
    "SampledFunction",
    "sample_on_grid",
    "holder_norm",
    "boundary_sup",
    "mean_zero_check",
    "green_identity_residual",
    "BoxWindow",
    "CapWindow",
]

_PAIR_SEED = 20240901
_LONG_RANGE_PAIRS = 10**5


class PrecondViolated(NumericalFailure):
    """Input pair does not satisfy the PDE/boundary hypotheses."""


@dataclass
class SampledFunction:
    """Complex samples on points inside a domain, with spacing metadata."""

    points: np.ndarray
    values: np.ndarray
    spacing: float
    weights: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values)
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points/values length mismatch")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled values must be finite")


def sample_on_grid(domain, fn, spacing: float) -> SampledFunction:
    """Sample a callable on the regular grid nodes inside a domain.

    The quadrature weight of a node is its cell measure times the cell's
    coverage on the 6^n subsample of ``kernels._coverage_subsample``, so
    cut cells get fractional weight.
    """
    lo, hi = domain.bounding_box(pad=0.5 * spacing)
    axes = [np.arange(lo[d] + spacing / 2, hi[d], spacing) for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts_in = pts[domain.inside(pts)]
    return SampledFunction(
        points=pts_in,
        values=np.asarray(fn(pts_in)),
        spacing=spacing,
        weights=spacing**domain.dim * _coverage_subsample(domain, pts_in, spacing, sub=6),
        fn=fn,
    )


def _pair_indices(points: np.ndarray, spacing: float):
    n = points.shape[0]
    tree = scipy.spatial.cKDTree(points)
    near = tree.query_pairs(4.0 * spacing, output_type="ndarray")
    rng = np.random.default_rng(_PAIR_SEED)
    k = min(_LONG_RANGE_PAIRS, 4 * n * max(1, int(math.log2(max(n, 2)))))
    i = rng.integers(0, n, size=k)
    j = rng.integers(0, n, size=k)
    keep = i != j
    far = np.stack([i[keep], j[keep]], axis=-1)
    if near.size == 0:
        return far
    return np.concatenate([near, far], axis=0)


def holder_norm(f: SampledFunction, alpha: float) -> float:
    """Discrete C^alpha norm: sup|f| + subsampled Hoelder seminorm.

    A lower bound of the continuum norm that converges under grid
    refinement for alpha in (0, 1].
    """
    if not (0 < alpha <= 1):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha!r}")
    if f.points.shape[0] < 2:
        return float(np.max(np.abs(f.values))) if f.points.shape[0] else 0.0
    sup = float(np.max(np.abs(f.values)))
    pairs = _pair_indices(f.points, f.spacing)
    d = np.sqrt(
        np.sum((f.points[pairs[:, 0]] - f.points[pairs[:, 1]]) ** 2, axis=1)
    )
    good = d > 0
    num = np.abs(f.values[pairs[good, 0]] - f.values[pairs[good, 1]])
    semi = float(np.max(num / d[good] ** alpha)) if np.any(good) else 0.0
    return sup + semi


def boundary_sup(f: SampledFunction, domain, count: int | None = None) -> float:
    """sup of |f| on the domain's boundary points.

    Uses the generating callable when available; otherwise the nearest
    interior sample (O(spacing) interpolation error).
    """
    bpts = domain.boundary_points(count)
    if f.fn is not None:
        return float(np.max(np.abs(np.asarray(f.fn(bpts)))))
    tree = scipy.spatial.cKDTree(f.points)
    _, idx = tree.query(bpts, k=1)
    return float(np.max(np.abs(f.values[idx])))


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


# ---------------------------------------------------------------------------
# Green identity windows
# ---------------------------------------------------------------------------


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
