"""Medium scattering via the Lippmann-Schwinger equation.

The total field of an incident wave u^i hitting a compactly supported
contrast V = chi_Omega phi solves

    u = u^i - k^2 (Delta + k^2)^{-1} (V u),

discretized as a Nystroem system on a regular grid with the
FFT-applied, diagonal-corrected resolvent kernel.  ``estimate_c0`` (the
discrete resolvent norm on a ball, from ``scipy.sparse.linalg.svds``)
is for reports only; the solver never calls it.

Rounds.  The solver is one loop of iterative-refinement rounds, after
Moler (J. ACM 14, 1967) and Carson & Higham (SIAM J. Sci. Comput. 40,
2018).  Each round computes a correction for r/|r| in the working
precision and ends on a new complex128 residual r = u^i - (I + k^2 K V)
u.  The correction comes from Picard, the Neumann terms t_{j+1} =
-k^2 K(V t_j) of t_0 = r/|r|, while each logged residual is at most
half the previous one, so the contraction it relies on is the one it
observes; a round adds terms while the next is predicted to exceed its
target, tol/|r| and in complex64 at least 1e-5.  Otherwise the
correction is one GMRES(100) restart cycle, GMRES starting from u = 0.
The working precision starts as complex64, at about half the cost of a
complex128 FFT apply, unless k^2 V is beyond its range.  One rule
bounds every solve: a round that fails to halve the complex128 residual
moves the working precision to complex128, and in complex128 raises
``NotContractive``.

The scattered far field is u^s_inf = -k^2 C_{n,k} F(V u)(k xhat),
evaluated by the grid's cell quadrature.  An incident wave (also
``cgo.CgoVector``) is given only by its exponential sum sum_q c_q
exp(z_q . x) (``terms``): on a support grid the incident field and the
far-field moments use the grid's separable plane-wave sums, and at other
points the sum is evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalFailure
from .kernels import GridConvolver, SupportGrid, far_field_constant, make_support_grid
from .geometry import BallComponent, Domain, sphere_directions
from .source import FarField, _check_finite, _check_wavenumber

__all__ = [
    "NotContractive",
    "PlaneWave",
    "HerglotzWave",
    "MediumScene",
    "LsSolution",
    "solve_ls",
    "estimate_c0",
    "scattered_far_field",
    "scatter_visibility_ratio",
]


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

    def terms(self, k: float, n: int):
        """Exponents z (Q, n) and coefficients c (Q,) of sum_q c_q e^{z_q . x}."""
        return 1j * k * self.direction[None, :], np.ones(1)


@dataclass
class HerglotzWave:
    """Superposition of plane waves with an L^2 density on the sphere."""

    density: Callable[[np.ndarray], np.ndarray]
    n_quad: int = 256

    def terms(self, k: float, n: int):
        dirs, w, angles = sphere_directions(n, self.n_quad)
        g = np.asarray(self.density(angles.squeeze(-1) if n == 2 else angles))
        return 1j * k * dirs, w * g


@dataclass
class MediumScene:
    """Penetrable scatterer: support, contrast, wavenumber, incident field."""

    domain: object
    phi: Callable[[np.ndarray], np.ndarray] | complex
    k: float
    incident: object

    def __post_init__(self):
        _check_wavenumber(self.k)

    @property
    def n(self) -> int:
        return self.domain.dim

    def contrast(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.phi):
            vals = np.asarray(self.phi(pts), dtype=complex)
        else:
            vals = np.full(pts.shape[0], complex(self.phi))
        if np.any(vals.imag < -1e-12):
            raise ConfigError("contrast must satisfy Im V >= 0")
        return vals

    def incident_values(self, pts: np.ndarray | SupportGrid) -> np.ndarray:
        """u^i at an (m, n) array of points, or at every node of a support grid."""
        z, c = self.incident.terms(self.k, self.n)
        if isinstance(pts, SupportGrid):
            return pts.plane_wave_sum(z, c)
        return np.exp(pts @ z.T) @ c


@dataclass
class LsSolution:
    grid: object
    u: np.ndarray
    u_incident: np.ndarray
    contrast_eff: np.ndarray
    residuals: list
    method: str
    applies: dict  # {"complex64": n, "complex128": m}: convolutions run in each precision

    def convergence_ratios(self) -> np.ndarray:
        r = np.asarray(self.residuals)
        return r[1:] / r[:-1] if r.size > 1 else np.empty(0)


# Smallest relative residual one complex64 round is asked to reach: the
# complex64 rounding of its applies shows not far below this, and the
# round's complex128 residual takes over from there.
_ROUND_RTOL = 1e-5


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

    Rounds of iterative refinement (module docstring): Picard while each
    residual is at most half the previous one, otherwise GMRES from zero.
    ``residuals`` holds the Picard residuals, then GMRES's relative
    residual estimates (scaled to |u^i|) after each of its iterations and
    the final complex128 residual; ``applies`` counts the applies made in
    each precision.  A solve ends with a complex128 residual of at most
    ``tol`` (Picard) or ``10 tol`` (GMRES), or raises ``NotContractive``
    once a complex128 round fails to halve it.  Raises NumericalFailure
    for a grid of more than ``kernels._MAX_CELLS`` cells.  V is read only
    at the centres of the cells the support touches (coverage > 0) and
    u^i at every node; each must be finite where it is read, and so must
    the norm of u^i.  Otherwise, or where Im V < 0, ConfigError.
    """
    if spacing is None:
        spacing = default_spacing(scene)
    grid = make_support_grid(scene.domain, spacing, pad=spacing)
    v_eff = grid.on_support(scene.contrast)
    _check_finite(v_eff, "contrast")
    conv = GridConvolver(grid, scene.k)
    with np.errstate(over="ignore", invalid="ignore"):
        u_inc = scene.incident_values(grid)
        _check_finite(u_inc, "incident field")
        scale = float(np.linalg.norm(u_inc))
    if not math.isfinite(scale):
        raise ConfigError("the incident field's norm on the solver's nodes is not finite")
    k2 = scene.k**2
    applies = {"complex64": 0, "complex128": 0}
    if scale == 0.0:  # u = 0 exactly
        return LsSolution(grid, u_inc.copy(), u_inc, v_eff, [0.0], "picard", applies)
    # The rounds solve for u / |u^i|, each for its correction scaled to
    # |r| = 1, so that complex64 values stay near 1.
    b = u_inc / scale
    with np.errstate(over="ignore"):
        k2v_single = (k2 * v_eff).astype(np.complex64)
    # A k^2 V beyond complex64's range keeps every apply in complex128.
    dtype = np.complex64 if np.all(np.isfinite(k2v_single)) else np.complex128

    def k2_conv(x):
        """k^2 K(V x), in the precision of x."""
        applies[x.dtype.name] += 1
        if x.dtype == np.complex64:
            return conv.apply(k2v_single * x)
        return k2 * conv.apply(v_eff * x)

    residuals = []
    method, ratio = "picard", 1.0  # ratio: the last logged Picard residual over the one before
    u, r, res = np.zeros_like(b), b, 1.0
    while True:
        # One round: a correction d for r / res in dtype, then a new
        # complex128 residual.
        size = 1.0  # |t_j| of the last logged Picard term
        rtol = tol / res if dtype == np.complex128 else max(tol / res, _ROUND_RTOL)
        if method == "picard":
            # Neumann terms t_{j+1} = -k^2 K(V t_j) from t_0 = r / res, while
            # the next one is predicted to matter.
            d = r / res
            t = d.astype(dtype)
            while size * ratio > rtol:
                t = -k2_conv(t)
                new = float(np.linalg.norm(t))
                d += t
                if res * new <= tol:
                    break  # the round's complex128 residual is logged in its place
                residuals.append(res * new)
                if len(residuals) > 1 and not residuals[-1] <= 0.5 * residuals[-2]:
                    method = "gmres"
                    break
                ratio, size = new / size, new
            if method == "gmres":  # not halving per step: GMRES, from zero
                del d, t  # before GMRES builds its basis
                u, r, res = np.zeros_like(b), b, 1.0
                continue
        else:
            import scipy.sparse.linalg  # deferred: most solves end in Picard

            op = scipy.sparse.linalg.LinearOperator(
                (b.size,) * 2, matvec=lambda x: x + k2_conv(x), dtype=dtype
            )
            d, _ = scipy.sparse.linalg.gmres(
                op, (r / res).astype(dtype), rtol=rtol, atol=0.0, restart=100, maxiter=1,
                callback=lambda est: residuals.append(est * res), callback_type="pr_norm",
            )
        u += res * d
        r = b - u - k2_conv(u)
        new = float(np.linalg.norm(r))
        done = new <= (tol if method == "picard" else 10.0 * tol)
        if method == "picard" or done:
            residuals.append(new)
        if done:
            return LsSolution(grid, scale * u, u_inc, v_eff, residuals, method, applies)
        if not new <= 0.5 * res:
            if dtype == np.complex128:
                raise NotContractive(
                    f"residual {new:.3e} above tolerance {tol:.1e}: "
                    f"a complex128 {method} round did not halve it"
                )
            dtype = np.complex128  # complex64 applies that no longer halve it
        ratio, res = new / (res * size), new


def estimate_c0(k: float, R_m: float, n: int = 2, resolution: int = 48) -> float:
    """Discrete |(Delta+k^2)^{-1}|_{L^2(B) -> L^2(B)} on the ball B(0, R_m).

    The largest singular value, from ``scipy.sparse.linalg.svds``, of the
    grid resolvent on the live cells in the coverage-weighted L^2 norm:
    x -> s * conv(s * x) with s = sqrt(coverage), the cell measure being
    folded into the kernel table.  The kernel is symmetric, so the
    adjoint is the conjugated operator.  ConfigError for ``resolution``
    below 2, which leaves a single live cell.
    """
    _check_wavenumber(k)
    if not resolution >= 2:
        raise ConfigError(f"need resolution >= 2 cells across the ball, got {resolution!r}")
    import scipy.sparse.linalg  # deferred: only reports need C0

    dom = Domain([BallComponent([0.0] * n, R_m, dim=n)])
    grid = make_support_grid(dom, 2.0 * R_m / resolution)
    conv = GridConvolver(grid, k)
    live = np.flatnonzero(grid.coverage)
    s = np.sqrt(grid.coverage[live])

    def matvec(x):
        f = np.zeros(grid.coverage.size, dtype=complex)
        f[live] = s * np.ravel(x)
        return s * conv.apply(f)[live]

    op = scipy.sparse.linalg.LinearOperator(
        (live.size,) * 2, matvec=matvec, rmatvec=lambda y: np.conj(matvec(np.conj(y))),
        dtype=complex,
    )
    sigma = scipy.sparse.linalg.svds(
        op, k=1, return_singular_vectors=False, v0=np.ones(live.size, dtype=complex)
    )
    return float(sigma[0])


def scattered_far_field(scene: MediumScene, sol: LsSolution, n_dirs: int = 64) -> FarField:
    """u^s_inf(xhat) = -k^2 C_{n,k} int e^{-ik xhat.y} V(y) u(y) dy."""
    if n_dirs < 1:
        raise ConfigError(f"need at least one far-field direction, got {n_dirs!r}")
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
