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

Every determinant call and every eigenfunction profile reads its Bessel
values from one table (``_radial_table``): a single ``jv`` or
``spherical_jn`` call on each order the modes need, with the derivatives
formed by scipy's own recurrences, so a scan of several modes evaluates
each order once per wavenumber and every value keeps the bits of ``jvp``
and ``spherical_jn(derivative=True)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import jv, spherical_jn

from .errors import NumericalFailure
from .geometry import BallComponent, Domain, _sq_norm
from .holder import holder_norm, sample_on_grid
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


def _radial_table(n: int, modes, x: np.ndarray) -> dict:
    """{m: (f_m(x), f_m'(x))} for the integer ``modes``: f_m = J_m in 2-D, j_m in 3-D.

    One ``jv`` or ``spherical_jn`` call evaluates each order the modes
    need (m - 1, m and m + 1; mode 0 needs 0 and 1) once at each point of
    ``x``, and each f_m is a view of that table.  The derivatives repeat
    the arithmetic of scipy's ``jvp`` and ``spherical_jn(derivative=True)``,
    so each value has their bits:

        J_m' = (J_{m-1} - J_{m+1}) / 2,      J_0' = -J_1  (J_{-1} = -J_1),
        j_m' = j_{m-1} - ((m + 1) j_m) / x,  j_0' = -j_1,

    and j_m'(0) is 1/3 for m = 1 and 0 for m > 1, as scipy sets it.
    ``x`` must be at least 1-d.
    """
    orders = sorted({o for m in modes for o in ((m - 1, m, m + 1) if m else (0, 1))})
    fn = jv if n == 2 else spherical_jn
    table = dict(zip(orders, fn(np.reshape(orders, (-1,) + (1,) * x.ndim), x)))
    out = {}
    for m in modes:
        if m == 0:
            fp = -table[1]
        elif n == 2:
            fp = (table[m - 1] - table[m + 1]) / 2.0
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                fp = table[m - 1] - ((m + 1) * table[m]) / x
            fp[x == 0] = 1.0 / 3.0 if m == 1 else 0.0  # scipy's exact values at the origin
        out[m] = (table[m], fp)
    return out


def itp_determinant(itp: RadialITP, k, mode=0):
    """Matching determinant d_m(k) at a wavenumber or an array of them.

    ``mode`` is the angular mode m; it may also be an integer array
    that broadcasts against ``k``, as in a (modes, 1) column against a
    row of wavenumbers, or one mode per wavenumber.  Every element is
    computed as the scalar call would compute it: each distinct mode's
    determinant is formed on all of ``k`` from one ``_radial_table`` of
    the arguments kR and k1R, and written where ``mode`` equals it.
    Zeros are transmission eigenvalues.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("wavenumber must be positive")
    mode = np.asarray(mode)
    k1 = k * itp.index_ratio
    # The distinct modes by set, not np.unique, whose first call adds 0.25 MB RSS.
    modes = sorted(set(mode.ravel().tolist()))
    table = _radial_table(itp.n, modes, np.stack((k * itp.R, k1 * itp.R)))
    out = np.empty(np.broadcast_shapes(mode.shape, k.shape))
    for m, (f, fp) in table.items():
        # f(kR) k1 f'(k1R) - f(k1R) k f'(kR), in place: fewer temporaries.
        d = f[0] * k1
        d *= fp[1]
        e = f[1] * k
        e *= fp[0]
        d -= e
        np.copyto(out, d, where=mode == m)
    return out[()]


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


def _assemble_pair(itp: RadialITP, k: float, m: int) -> EigenPair:
    def radial(x):
        return _radial_table(itp.n, (m,), x)[m]

    k1 = k * itp.index_ratio
    R = itp.R
    f, fp = radial(np.array([k * R, k1 * R]))
    # Null vector of the matching matrix, taken from the better row.
    row0 = (f[0], f[1])
    row1 = (k * fp[0], k1 * fp[1])
    c_u, c_w = (row0 if max(map(abs, row0)) >= max(map(abs, row1)) else row1)
    scale = max(abs(c_u), abs(c_w))
    c_u, c_w = c_u / scale, c_w / scale

    def w_fn(r):
        return c_w * radial(k * np.atleast_1d(r))[0]

    def u_fn(r):
        return c_u * radial(k1 * np.atleast_1d(r))[0]

    def wp_fn(r):
        return c_w * k * radial(k * np.atleast_1d(r))[1]

    def up_fn(r):
        return c_u * k1 * radial(k1 * np.atleast_1d(r))[1]

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


def boundary_vanishing_ratio(
    pair: EigenPair, alpha: float, spacing: float | None = None
) -> float:
    """|u(R)| over (2R)^alpha |V|_Calpha / inf|V| after C^alpha normalization.

    R is the radius of the pair's own problem, ``pair.itp``; the norm
    samples u(|x|) e^{i m theta} on the grid nodes of that ball.
    """
    R = pair.itp.R
    if spacing is None:
        spacing = R / 24.0

    def mode(pts):
        r = np.sqrt(_sq_norm(pts))
        return pair.u(r) * np.exp(1j * pair.mode * np.arctan2(pts[:, 1], pts[:, 0]))

    ball = Domain([BallComponent(np.zeros(pair.itp.n), R, dim=pair.itp.n)])
    norm = holder_norm(sample_on_grid(ball, mode, spacing), alpha)
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
