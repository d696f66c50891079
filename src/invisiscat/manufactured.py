"""Manufactured cap bumps with analytic derivatives.

Polynomial-in-distance bumps vanishing to second order on the graph and
the lid of a curvature cap, with their exact gradients and Laplacians.
With phi := (Delta + k^2) w computed in closed form, integration-by-parts
identities hold exactly in the continuum and any computed residual
isolates pure quadrature error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CapBump", "LensBump"]


class CapBump:
    """w = (x_n - omega(x'))^2 (h - x_n)^2 on the cap window.

    Vanishes to second order on the graph {x_n = omega} and on the lid
    {x_n = h}; with r = x_n - omega and s = h - x_n,

        Lap w = s^2 (2(1+|grad omega|^2) - 2 r Lap omega) + 2 r^2 - 8 r s.
    """

    def __init__(self, cap):
        self.cap = cap

    def _split(self, pts):
        return pts[:, :-1], pts[:, -1]

    def value(self, pts):
        xp, xn = self._split(pts)
        r = xn - self.cap.omega(xp)
        s = self.cap.h - xn
        return (r * s) ** 2

    def grad(self, pts):
        xp, xn = self._split(pts)
        r = xn - self.cap.omega(xp)
        s = self.cap.h - xn
        gw = self.cap.omega_grad(xp)
        g_t = -2.0 * (r * s * s)[:, None] * gw
        g_n = 2.0 * r * s * s - 2.0 * r * r * s
        return np.concatenate([g_t, g_n[:, None]], axis=-1)

    def laplacian(self, pts):
        xp, xn = self._split(pts)
        r = xn - self.cap.omega(xp)
        s = self.cap.h - xn
        grad2 = 1.0 + np.sum(self.cap.omega_grad(xp) ** 2, axis=1)
        lap_om = self.cap.omega_laplacian(xp)
        return s * s * (2.0 * grad2 - 2.0 * r * lap_om) + 2.0 * r * r - 8.0 * r * s

    def phi(self, pts, k: float):
        return self.laplacian(pts) + k * k * self.value(pts)


class LensBump(CapBump):
    """CapBump extended by zero above the lid.

    As a field on a cap-bottomed body it lies in H^2_0: the second-order
    contact at x_n = h makes the zero extension C^1 with an L^infinity
    Laplacian, and phi restricted to the closed cap window stays smooth
    from below.
    """

    def _mask(self, pts):
        # Closed window: boundary values are the one-sided limits from
        # inside the lens, matching the restriction to the closure.
        xp, xn = self._split(pts)
        return (xn >= self.cap.omega(xp)) & (xn <= self.cap.h)

    def value(self, pts):
        m = self._mask(pts)
        out = np.zeros(pts.shape[0])
        if np.any(m):
            out[m] = super().value(pts[m])
        return out

    def grad(self, pts):
        m = self._mask(pts)
        out = np.zeros(pts.shape, dtype=float)
        if np.any(m):
            out[m] = super().grad(pts[m]).real
        return out

    def laplacian(self, pts):
        m = self._mask(pts)
        out = np.zeros(pts.shape[0])
        if np.any(m):
            out[m] = super().laplacian(pts[m])
        return out
