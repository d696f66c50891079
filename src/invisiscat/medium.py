"""Medium scattering via the Lippmann-Schwinger equation.

The total field of an incident wave u^i hitting a compactly supported
contrast V = chi_Omega phi solves

    u = u^i - k^2 (Delta + k^2)^{-1} (V u),

discretized as a Nystroem system on a regular grid with the
FFT-applied, diagonal-corrected resolvent kernel.  ``estimate_c0`` (the
discrete resolvent norm on a ball, from ``scipy.sparse.linalg.svds``)
is for reports only; the solver never calls it.

Rounds.  The solver is one loop of complex128 iterative-refinement
rounds, after Moler (J. ACM 14, 1967).  Each round computes a
correction d for r/|r| and ends on a new residual r = u^i - (I + k^2 K
V) u.  K is symmetric, its kernel depending on |offset| only, and V is
diagonal, so with S = sqrt(k^2 V) (principal branch) the correction
comes from the complex symmetric system (I + S K S) w = S r/|r| on the
cells where V != 0, and d = r/|r| - K(S w).  Conjugate orthogonal CG
(COCG; van der Vorst & Melissen, IEEE Trans. Magn. 26, 1990) solves it
with four live-cell vectors and no restart, as the discrete dipole
approximation solves its Toeplitz system (Draine & Flatau, J. Opt. Soc.
Am. A 11, 1994).  The correction's own residual is -K S g for COCG's
residual g, not g.  Since g = p - beta p_prev, K S g is the iteration's
apply K S p less beta times the previous one; a round stops once
|K S g| reaches tol/|r|, so its last apply only confirms the stop.
One rule bounds every solve: a round of at most ``_ROUND_APPLIES`` COCG
applies that fails to halve the residual raises ``NotContractive``.
Besides the kernel transform and the apply's own work array, a solve
holds at most eight grid-sized complex128 arrays: V, u^i, u^i/|u^i|, u,
r and S p throughout, and either a COCG round's last two applies or,
once the round has returned and freed them, the apply and the one
temporary of a residual refresh.

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
from .holder import boundary_sup
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
        if not (math.isfinite(nrm) and nrm > 0):
            raise ConfigError(
                "plane-wave direction must have a finite, nonzero norm, "
                f"got {self.direction.tolist()!r}"
            )
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
    applies: int  # FFT convolutions run


# Most COCG applies in a refinement round, which then adds two more.
_ROUND_APPLIES = 200


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

    Rounds of complex128 iterative refinement, each a COCG solve on the
    live cells (module docstring).  ``residuals`` holds, round by round,
    the correction's residual |K S g| at each COCG apply, scaled by the
    round's |r|, then the round's new residual |r|, all relative to
    |u^i|; ``applies`` counts the FFT applies.  A solve ends with a
    complex128 residual of at most ``tol``, or raises ``NotContractive``
    once a round fails to halve it.  A zero incident field or a zero
    contrast returns u = u^i with no apply.  Raises NumericalFailure
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
    with np.errstate(over="ignore", invalid="ignore"):
        u_inc = scene.incident_values(grid)
        _check_finite(u_inc, "incident field")
        scale = float(np.linalg.norm(u_inc))
    if not math.isfinite(scale):
        raise ConfigError("the incident field's norm on the solver's nodes is not finite")
    live = np.flatnonzero(v_eff)
    if scale == 0.0 or live.size == 0:  # u = u^i exactly
        return LsSolution(grid, u_inc.copy(), u_inc, v_eff, [0.0], "cocg", 0)
    # The rounds solve for u / |u^i|, each for its correction scaled to |r| = 1.
    b = u_inc / scale
    conv = GridConvolver(grid, scene.k)
    k2 = scene.k**2
    s = np.sqrt(k2 * v_eff[live])
    f = np.zeros_like(b)  # S p on the grid; zero off the live cells
    applies = 0
    residuals = []
    u, r, res = np.zeros_like(b), b, 1.0
    while True:
        w, sizes = _cocg_round(conv, live, s, f, s * r[live] / res, tol / res)
        applies += len(sizes)
        residuals.extend(res * size for size in sizes)
        f[live] = s * w
        u += r - res * conv.apply(f)  # res d, with d = r/res - K(S w)
        r = b - u  # frees the old r before the apply
        r -= k2 * conv.apply(v_eff * u)
        applies += 2
        new = float(np.linalg.norm(r))
        residuals.append(new)
        if new <= tol:
            return LsSolution(grid, scale * u, u_inc, v_eff, residuals, "cocg", applies)
        if not new <= 0.5 * res:
            raise NotContractive(
                f"residual {new:.3e} above tolerance {tol:.1e}: "
                f"a round of at most {_ROUND_APPLIES} COCG applies did not halve it"
            )
        res = new


def _cocg_round(conv, live, s, f, g, tol):
    """COCG for (I + S K S) w = g from w = 0; returns w and |K S g| at each apply.

    Residual g, direction p, y = K S p.  z = K S g, the correction's
    residual up to sign, is y less beta times the previous y, since
    g = p - beta p_prev.  ``f`` is the grid array that carries S p to the
    apply, zero off the live cells.  Its own function, so that the round's
    grid-sized y and z are freed before the round's residual is refreshed.
    """
    w = np.zeros(live.size, dtype=complex)
    p, gg, beta = g.copy(), g @ g, 0.0
    z = np.zeros_like(f)
    sizes = []
    for _ in range(_ROUND_APPLIES):
        f[live] = s * p
        y = conv.apply(f)
        z *= -beta
        z += y
        size = float(np.linalg.norm(z))
        sizes.append(size)
        if size <= tol:
            break
        q = p + s * y[live]
        alpha = gg / (p @ q)
        w += alpha * p
        g -= alpha * q
        gg_old, gg = gg, g @ g
        beta = gg / gg_old
        p = g + beta * p
        z = y
    return w, sizes


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
    dirs, w_dirs, angles = sphere_directions(scene.n, n_dirs)
    h_n = sol.grid.spacing**scene.n
    density = sol.contrast_eff * sol.u * h_n
    moments = sol.grid.plane_wave_moments(-1j * scene.k * dirs, density)
    vals = -scene.k**2 * far_field_constant(scene.n, scene.k) * moments
    return FarField(directions=dirs, values=vals, k=scene.k, weights=w_dirs, angles=angles)


def scatter_visibility_ratio(scene: MediumScene, alpha: float) -> float:
    """sup_bdry |phi u^i| / diam(Omega)^alpha, the visibility comparator.

    ConfigError unless alpha lies in (0, 1], the Hoelder exponents.
    """
    if not 0 < alpha <= 1:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha!r}")
    sup = boundary_sup(lambda p: scene.contrast(p) * scene.incident_values(p), scene.domain)
    return sup / scene.domain.diameter() ** alpha
