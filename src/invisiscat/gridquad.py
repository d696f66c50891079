"""Spacing-parameterized quadrature for identity and residual checks.

Unlike the adaptive oracle, these rules are deliberately tied to a mesh
spacing h so that discretization residuals scale predictably (order 2
for the graph-window columns, order 4 for Simpson boxes); convergence
studies refine h and measure the observed order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["simpson_box", "cap_window_columns", "cap_lid_nodes"]


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


def _tangential_cells(rim: float, spacing: float, dim: int):
    """Midpoint cells covering {|x'| < rim}; returns (points, areas)."""
    m = max(4, int(math.ceil(rim / spacing)))
    edges = np.linspace(0.0, rim, m + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    dr = np.diff(edges)
    if dim == 2:
        t = np.concatenate([-mid[::-1], mid])
        area = np.concatenate([dr[::-1], dr])
        return t[:, None], area
    nth = max(8, int(math.ceil(2.0 * math.pi * rim / spacing)))
    th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    rr, tt = np.meshgrid(mid, th, indexing="ij")
    darea = (np.meshgrid(dr, th, indexing="ij")[0] * (2.0 * math.pi / nth) * rr).ravel()
    xp = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1)
    return xp, darea


def cap_window_columns(cap, spacing: float, n_axial: int = 8):
    """Quadrature for the boundary window {|x'| < b, omega(x') < x_n < h}.

    Tangential midpoint cells (columns end at the rim where omega = h)
    with Gauss-Legendre nodes along each column; O(h^2) overall.
    """
    rim = cap.rim_radius
    xp, darea = _tangential_cells(rim, spacing, cap.n)
    lo = cap.omega(xp)
    hi = np.full(xp.shape[0], cap.h)
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_axial)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xn = mid[:, None] + half[:, None] * gl_x[None, :]
    w = darea[:, None] * half[:, None] * gl_w[None, :]
    cols = np.repeat(xp, n_axial, axis=0)
    pts = np.concatenate([cols, xn.reshape(-1, 1)], axis=-1)
    return pts, w.ravel()


def cap_lid_nodes(cap, spacing: float):
    """Quadrature on the flat lid V = {omega < h} x {h} with its area weights."""
    rim = cap.rim_radius
    xp, darea = _tangential_cells(rim, spacing, cap.n)
    pts = np.concatenate([xp, np.full((xp.shape[0], 1), cap.h)], axis=-1)
    return pts, darea
