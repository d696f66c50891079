"""Medium scattering via the Lippmann-Schwinger equation.

The total field of an incident wave u^i hitting a compactly supported
contrast V = chi_Omega phi solves

    u = u^i - k^2 (Delta + k^2)^{-1} (V u),

discretized as a Nystroem system on a regular grid with the
FFT-applied, diagonal-corrected resolvent kernel.  The solver starts
the Picard/Neumann iteration from u^i and keeps it while each residual
is at most half the previous one, so the contraction it relies on is
the one it observes.  Otherwise, or after 200 steps, it switches to
restarted GMRES from zero and reports ``NotContractive`` if the
residual cannot be driven down.  ``estimate_c0`` (a power-iteration
lower bound of the resolvent norm C0 on a ball) is for reports only;
the solver never calls it.

The scattered far field is u^s_inf = -k^2 C_{n,k} F(V u)(k xhat),
evaluated by the grid's cell quadrature.  Every incident wave is a sum
of exponentials sum_q c_q exp(z_q . x) (``terms``), so both the incident
field on the grid and the far-field moments use the grid's separable
plane-wave sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .kernels import GridConvolver, SupportGrid, far_field_constant, make_support_grid
from .geometry import sphere_directions
from .source import FarField

__all__ = [
    "NotContractive",
    "PlaneWave",
    "HerglotzWave",
    "CgoIncident",
    "MediumScene",
    "LsSolution",
    "solve_ls",
    "estimate_c0",
    "scattered_far_field",
    "scatter_visibility_ratio",
]

# Most cells solve_ls may put on its grid: restarted GMRES keeps 101
# Krylov vectors, 1.6 kB per cell, so this bounds the basis near 6.5 GB.
_LS_MAX_CELLS = 4 * 10**6


class NotContractive(NumericalFailure):
    """Fixed-point residual stagnated above tolerance."""


@dataclass
class PlaneWave:
    """u^i(x) = exp(i k theta . x), |u^i| = 1."""

    direction: np.ndarray

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        nrm = float(np.linalg.norm(self.direction))
        if nrm == 0:
            raise ValueError("zero direction")
        self.direction = self.direction / nrm

    def value(self, pts: np.ndarray, k: float) -> np.ndarray:
        return np.exp(1j * k * (pts @ self.direction))

    def terms(self, k: float, n: int):
        """Exponents z (Q, n) and coefficients c (Q,) of sum_q c_q e^{z_q . x}."""
        return 1j * k * self.direction[None, :], np.ones(1)


@dataclass
class HerglotzWave:
    """Superposition of plane waves with an L^2 density on the sphere."""

    density: Callable[[np.ndarray], np.ndarray]
    n_quad: int = 256

    def value(self, pts: np.ndarray, k: float) -> np.ndarray:
        z, c = self.terms(k, pts.shape[1])
        return np.exp(pts @ z.T) @ c

    def terms(self, k: float, n: int):
        dirs, w, angles = sphere_directions(n, self.n_quad)
        g = np.asarray(self.density(angles.squeeze(-1) if n == 2 else angles))
        return 1j * k * dirs, w * g


@dataclass
class CgoIncident:
    """Harmonic exponential exp(rho . x); grows along -Re rho directions."""

    rho: np.ndarray

    def value(self, pts: np.ndarray, k: float) -> np.ndarray:
        return np.exp(pts @ np.asarray(self.rho, dtype=complex))

    def terms(self, k: float, n: int):
        return np.asarray(self.rho, dtype=complex)[None, :], np.ones(1)


@dataclass
class MediumScene:
    """Penetrable scatterer: support, contrast, wavenumber, incident field."""

    domain: object
    phi: Callable[[np.ndarray], np.ndarray] | complex
    k: float
    incident: object
    n: int = 2

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("wavenumber must be positive")
        if self.domain.dim != self.n:
            raise ValueError("domain dimension mismatch")

    def contrast(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.phi):
            vals = np.asarray(self.phi(pts), dtype=complex)
        else:
            vals = np.full(pts.shape[0], complex(self.phi))
        if np.any(vals.imag < -1e-12):
            raise ValueError("contrast must satisfy Im V >= 0")
        return vals

    def incident_values(self, pts: np.ndarray | SupportGrid) -> np.ndarray:
        """u^i at an (m, n) array of points, or at every node of a support grid."""
        if isinstance(pts, SupportGrid):
            return pts.plane_wave_sum(*self.incident.terms(self.k, self.n))
        return np.asarray(self.incident.value(pts, self.k), dtype=complex)


@dataclass
class LsSolution:
    grid: object
    u: np.ndarray
    u_incident: np.ndarray
    contrast_eff: np.ndarray
    residuals: list = field(default_factory=list)
    method: str = "picard"

    def convergence_ratios(self) -> np.ndarray:
        r = np.asarray(self.residuals)
        return r[1:] / r[:-1] if r.size > 1 else np.empty(0)


def default_spacing(scene: MediumScene) -> float:
    pts, _ = scene.domain.quad_nodes(16)
    vmax = float(np.max(np.abs(scene.contrast(pts))))
    lam_int = 2.0 * math.pi / (scene.k * math.sqrt(1.0 + max(vmax, 0.0)))
    return min(lam_int / 24.0, scene.domain.diameter() / 48.0)


def solve_ls(
    scene: MediumScene,
    tol: float = 1e-10,
    spacing: float | None = None,
) -> LsSolution:
    """Solve the Lippmann-Schwinger system on a support grid.

    Picard iteration from u^i with logged residuals, for as long as each
    residual is at most half the previous one and for at most 200 steps;
    otherwise restarted GMRES from zero, whose final residual is appended
    to the Picard ones.  Raises ``NotContractive`` when neither route
    reaches the tolerance, and NumericalFailure for a grid of more than
    ``_LS_MAX_CELLS`` cells.
    """
    if spacing is None:
        spacing = default_spacing(scene)
    grid = make_support_grid(scene.domain, spacing, pad=spacing, max_cells=_LS_MAX_CELLS)
    conv = GridConvolver(grid, scene.k)
    v_eff = scene.contrast(grid.points) * grid.coverage
    u_inc = scene.incident_values(grid)
    k2 = scene.k**2
    scale = float(np.linalg.norm(u_inc))
    if scale == 0.0:
        return LsSolution(grid, u_inc.copy(), u_inc, v_eff, [0.0], "picard")  # u = 0 exactly

    def apply_A(u):
        return u + k2 * conv.apply(v_eff * u)

    residuals = []
    u = u_inc.copy()
    for _ in range(200):
        # One convolution serves both the residual and the update.
        w = k2 * conv.apply(v_eff * u)
        res = float(np.linalg.norm(u + w - u_inc)) / scale
        residuals.append(res)
        if res <= tol:
            return LsSolution(grid, u, u_inc, v_eff, residuals, "picard")
        if len(residuals) > 1 and res > 0.5 * residuals[-2]:
            break  # Not halving per step: GMRES takes over.
        u = u_inc - w
    import scipy.sparse.linalg  # deferred: most solves end in Picard

    op = scipy.sparse.linalg.LinearOperator(
        (grid.points.shape[0],) * 2, matvec=apply_A, dtype=complex
    )
    u, info = scipy.sparse.linalg.gmres(
        op, u_inc, rtol=tol, atol=0.0, restart=100, maxiter=40
    )
    res = float(np.linalg.norm(apply_A(u) - u_inc)) / scale
    residuals.append(res)
    if info != 0 or res > 10.0 * tol:
        raise NotContractive(
            f"residual {res:.3e} above tolerance {tol:.1e} (gmres info {info})"
        )
    return LsSolution(grid, u, u_inc, v_eff, residuals, "gmres")


def estimate_c0(
    k: float,
    R_m: float,
    n: int = 2,
    n_probe: int = 10,
    resolution: int = 48,
    iterations: int = 25,
) -> float:
    """Power-iteration lower bound of |(Delta+k^2)^{-1}|_{L^2(B) -> L^2(B)}.

    The adjoint with respect to the coverage-weighted inner product is
    the conjugate kernel applied to the coverage-scaled density, which
    reduces to conjugated convolution.
    """
    if n_probe < 1:
        raise ValueError("need at least one probe")
    from .geometry import BallComponent, Domain

    dom = Domain([BallComponent([0.0] * n, R_m, dim=n)])
    grid = make_support_grid(dom, 2.0 * R_m / resolution)
    conv = GridConvolver(grid, k)
    cov = grid.coverage
    w = grid.weights

    def apply_a(f):
        return conv.apply(cov * f)

    def apply_at(g):
        return np.conj(conv.apply(cov * np.conj(g)))

    rng = np.random.default_rng(31415)
    best = 0.0
    for _ in range(n_probe):
        v = rng.normal(size=cov.size) + 1j * rng.normal(size=cov.size)
        v *= cov > 0
        for _ in range(iterations):
            av = apply_a(v)
            v_new = apply_at(av)
            nrm = math.sqrt(float(np.sum(w * np.abs(v_new) ** 2)))
            if nrm == 0:
                break
            v = v_new / nrm
        av = apply_a(v)
        num = float(np.sum(w * np.abs(av) ** 2))
        den = float(np.sum(w * np.abs(v) ** 2))
        if den > 0:
            best = max(best, math.sqrt(num / den))
    return best


def scattered_far_field(scene: MediumScene, sol: LsSolution, n_dirs: int = 64) -> FarField:
    """u^s_inf(xhat) = -k^2 C_{n,k} int e^{-ik xhat.y} V(y) u(y) dy."""
    dirs, w_dirs, angles = sphere_directions(scene.n, n_dirs)
    h_n = sol.grid.spacing**scene.n
    density = sol.contrast_eff * sol.u * h_n
    moments = sol.grid.plane_wave_moments(-1j * scene.k * dirs, density)
    vals = -scene.k**2 * far_field_constant(scene.n, scene.k) * moments
    return FarField(directions=dirs, values=vals, k=scene.k, weights=w_dirs, angles=angles)


def scatter_visibility_ratio(scene: MediumScene, alpha: float) -> float:
    """sup_bdry |phi u^i| / diam(Omega)^alpha, the visibility comparator."""
    bpts = scene.domain.boundary_points()
    vals = np.abs(scene.contrast(bpts) * scene.incident_values(bpts))
    return float(np.max(vals)) / scene.domain.diameter() ** alpha
