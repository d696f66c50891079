"""Spacing-parameterized quadrature for identity and residual checks.

Unlike the adaptive oracle, these rules are deliberately tied to a mesh
spacing h so that discretization residuals scale predictably (order 2
for the graph-window columns); convergence studies refine h and measure
the observed order.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _leggauss

__all__ = ["cap_window_columns", "cap_lid_nodes"]


def _polar(r, th):
    """Points r (cos th, sin th) over the r x th product, r-major."""
    rr, tt = np.meshgrid(r, th, indexing="ij")
    return np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=-1)


def _tangential_layout(r, dr, dim: int, nth: int):
    """Tangential cells from radial nodes r of widths dr; returns (points, areas).

    In 2-d the radial nodes are mirrored onto the line; in 3-d they are
    swept over ``nth`` equispaced angles.
    """
    if dim == 2:
        return np.concatenate([-r[::-1], r])[:, None], np.concatenate([dr[::-1], dr])
    th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    return _polar(r, th), np.repeat(dr * (2.0 * math.pi / nth) * r, nth)


def _columns(xp, lo, hi, area, n_gl: int):
    """Gauss-Legendre nodes on the columns lo < x_n < hi above points xp."""
    gl_x, gl_w = _leggauss(n_gl)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xn = mid[:, None] + half[:, None] * gl_x[None, :]
    w = area[:, None] * half[:, None] * gl_w[None, :]
    cols = np.repeat(xp, n_gl, axis=0)
    return np.concatenate([cols, xn.reshape(-1, 1)], axis=-1), w.ravel()


def _tangential_cells(rim: float, spacing: float, dim: int):
    """Midpoint cells covering {|x'| < rim}; returns (points, areas)."""
    m = max(4, int(math.ceil(rim / spacing)))
    edges = np.linspace(0.0, rim, m + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nth = max(8, int(math.ceil(2.0 * math.pi * rim / spacing)))
    return _tangential_layout(mid, np.diff(edges), dim, nth)


def cap_window_columns(cap, spacing: float):
    """Quadrature for the boundary window {|x'| < b, omega(x') < x_n < h}.

    Tangential midpoint cells (columns end at the rim where omega = h)
    with 8 Gauss-Legendre nodes along each column; O(h^2) overall.
    """
    xp, darea = _tangential_cells(cap.rim_radius, spacing, cap.n)
    return _columns(xp, cap.omega(xp), np.full(xp.shape[0], cap.h), darea, 8)


def cap_lid_nodes(cap, spacing: float):
    """Quadrature on the flat lid V = {omega < h} x {h} with its area weights."""
    rim = cap.rim_radius
    xp, darea = _tangential_cells(rim, spacing, cap.n)
    pts = np.concatenate([xp, np.full((xp.shape[0], 1), cap.h)], axis=-1)
    return pts, darea
