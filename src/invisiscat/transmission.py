"""Interior transmission eigenproblem for radially symmetric scenes.

For a ball of radius R with constant contrast v0 (interior wavenumber
k1 = k sqrt(1 + v0)), separation of variables reduces the eigenproblem
to the per-mode matching determinant

    d_m(k) = det [ J_m(kR)      J_m(k1 R)     ]
                 [ k J_m'(kR)   k1 J_m'(k1 R) ]

(spherical Bessel functions j_m in three dimensions); zeros of d_m are
transmission eigenvalues, and the null vector of the matching matrix
assembles the eigenfunction pair (w, u) with equal Cauchy data at
r = R.  Scaling the ball by 1/R scales every eigenvalue by R.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import jv, jvp, spherical_jn

from .errors import NumericalFailure
from .holder import SampledFunction, holder_norm
from .quadrature import _bisect

__all__ = [
    "NoneFound",
    "RadialITP",
    "EigenPair",
    "itp_determinant",
    "find_eigenvalues",
    "boundary_vanishing_ratio",
    "eigen_incident_density",
]


class NoneFound(NumericalFailure):
    """No determinant sign change below the requested wavenumber."""


@dataclass
class RadialITP:
    """Radial transmission problem: ball radius, constant contrast, dimension."""

    R: float
    v0: float
    n: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError("radius must be finite and positive")
        if not math.isfinite(self.v0):
            raise ValueError("contrast v0 must be finite")
        if 1.0 + self.v0 <= 0:
            raise ValueError("refractive index 1 + v0 must be positive")
        if self.v0 == 0:
            raise ValueError("v0 = 0 degenerates the matching determinant")
        if self.n not in (2, 3):
            raise ValueError("dimensions 2 and 3 supported")

    @property
    def index_ratio(self) -> float:
        return math.sqrt(1.0 + self.v0)


def _radial_fns(n: int, m):
    if n == 2:
        return (lambda x: jv(m, x)), (lambda x: jvp(m, x))
    return (lambda x: spherical_jn(m, x)), (lambda x: spherical_jn(m, x, derivative=True))


def itp_determinant(itp: RadialITP, k, mode=0):
    """Matching determinant d_m(k) at a wavenumber or an array of them.

    ``mode`` is the angular mode m; it may also be an integer array
    that broadcasts against ``k``, as in a (modes, 1) column against a
    row of wavenumbers, or one mode per wavenumber.  Every element is
    computed as the scalar call would compute it.  Zeros are
    transmission eigenvalues.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("wavenumber must be positive")
    jm, jmp = _radial_fns(itp.n, mode)
    k1 = k * itp.index_ratio
    return jm(k * itp.R) * k1 * jmp(k1 * itp.R) - jm(k1 * itp.R) * k * jmp(
        k * itp.R
    )


@dataclass
class EigenPair:
    """Eigenvalue with matched radial profiles and mode metadata."""

    k_eig: float
    mode: int
    itp: RadialITP
    w: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    u: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    w_deriv: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    u_deriv: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def matching_defect(self) -> float:
        R = self.itp.R
        r = np.array([R])
        val = abs(self.u(r)[0] - self.w(r)[0])
        der = abs(self.u_deriv(r)[0] - self.w_deriv(r)[0])
        return float(val + der)


def _assemble_pair(itp: RadialITP, k: float, m: int) -> EigenPair:
    jm, jmp = _radial_fns(itp.n, m)
    k1 = k * itp.index_ratio
    R = itp.R
    # Null vector of the matching matrix, taken from the better row.
    row0 = (jm(k * R), jm(k1 * R))
    row1 = (k * jmp(k * R), k1 * jmp(k1 * R))
    c_u, c_w = (row0 if max(map(abs, row0)) >= max(map(abs, row1)) else row1)
    scale = max(abs(c_u), abs(c_w))
    c_u, c_w = c_u / scale, c_w / scale

    def w_fn(r):
        return c_w * jm(k * np.atleast_1d(r))

    def u_fn(r):
        return c_u * jm(k1 * np.atleast_1d(r))

    def wp_fn(r):
        return c_w * k * jmp(k * np.atleast_1d(r))

    def up_fn(r):
        return c_u * k1 * jmp(k1 * np.atleast_1d(r))

    return EigenPair(k_eig=k, mode=m, itp=itp, w=w_fn, u=u_fn, w_deriv=wp_fn, u_deriv=up_fn)


def find_eigenvalues(
    itp: RadialITP,
    k_max: float,
    modes=(0,),
    scan_steps: int = 2048,
):
    """All determinant roots below k_max for each distinct mode, sorted by (k, mode).

    One determinant call scans every mode on a (modes, scan_steps) grid
    of wavenumbers; then every bracket with a sign change, of every mode,
    is bisected in lockstep to the last bit, one determinant call per
    halving step.  A mode listed twice is scanned once.  Raises
    ``NoneFound`` when no mode has a root below k_max.
    """
    if not (math.isfinite(k_max) and k_max > 0):
        raise ValueError("k_max must be finite and positive")
    try:
        modes = sorted({operator.index(m) for m in modes})
    except TypeError:
        raise ValueError("angular modes must be integers") from None
    if modes and modes[0] < 0:
        raise ValueError("angular mode must be nonnegative")
    ks = np.linspace(k_max / scan_steps, k_max, scan_steps)
    mode_col = np.array(modes, dtype=int)[:, None]
    vals = itp_determinant(itp, ks, mode_col)
    row, col = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0)
    if not row.size:
        raise NoneFound(f"no transmission eigenvalue below k_max = {k_max}")
    bracket_modes = mode_col[row, 0]
    roots = _bisect(
        lambda k, m: itp_determinant(itp, k, m),
        ks[col], ks[col + 1], bracket_modes, f_lo=vals[row, col],
    )
    pairs = [_assemble_pair(itp, k, m) for k, m in zip(roots.tolist(), bracket_modes.tolist())]
    pairs.sort(key=lambda p: (p.k_eig, p.mode))
    return pairs


def _sample_mode_on_ball(pair: EigenPair, spacing: float) -> SampledFunction:
    R = pair.itp.R
    n = pair.itp.n
    ax = np.arange(-R + spacing / 2, R, spacing)
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    r = np.sqrt(np.sum(pts * pts, axis=1))
    keep = r < R
    pts, r = pts[keep], r[keep]
    vals = pair.u(r).astype(complex)
    if pair.mode > 0:
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        vals = vals * np.exp(1j * pair.mode * theta)
    return SampledFunction(points=pts, values=vals, spacing=spacing)


def boundary_vanishing_ratio(
    pair: EigenPair, alpha: float, spacing: float | None = None
) -> float:
    """|u(R)| over (2R)^alpha |V|_Calpha / inf|V| after C^alpha normalization.

    R is the radius of the pair's own problem, ``pair.itp``.
    """
    R = pair.itp.R
    if spacing is None:
        spacing = R / 24.0
    f = _sample_mode_on_ball(pair, spacing)
    norm = holder_norm(f, alpha)
    u_R = abs(pair.u(np.array([R]))[0]) / norm
    # Constant contrast: |V|_Calpha / inf |V| = 1.
    return u_R / (2.0 * R) ** alpha


def eigen_incident_density(pair: EigenPair):
    """Herglotz density reproducing the entire eigen-wave w (mode 0, n=2).

    w(x) = c J_0(k r) = c (1/2pi) int_{S^1} e^{i k theta . x} dtheta.
    """
    if pair.mode != 0 or pair.itp.n != 2:
        raise ValueError("entire extension implemented for the planar mode 0")
    c = pair.w(np.array([1e-14]))[0]

    def density(angles):
        return np.full(np.atleast_1d(angles).shape[0], c / (2.0 * math.pi))

    return density
