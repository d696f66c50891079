"""Independent references for the benchmark's correctness checks.

Every closed form here is evaluated with ``scipy.special`` and never with
``invisiscat.specfun``, so that a change to the program's special
functions cannot vouch for its own output.  All of these run outside the
timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

ROOT_BRACKET = 1e-9  # relative half-width around a root that must hold a sign change


def disk_source_far_field_sup(k: float, r: float) -> float:
    """sup |u_inf| of a unit constant source on a disk of radius r.

    |u_inf| = |C_{2,k}| |F chi_disk| with |C_{2,k}| = 1 / sqrt(8 pi k), and the
    Fourier transform of the disk indicator at |xi| = k is 2 pi r J_1(k r) / k
    in every direction.
    """
    return 2.0 * math.pi * r * abs(float(special.jv(1, k * r))) / (k * math.sqrt(8.0 * math.pi * k))


def disk_source_field(k: float, R: float, pts: np.ndarray) -> np.ndarray:
    """u(x) = int_{|y|<R} G_k(x - y) dy for G_k = -(i/4) H_0(k|x - y|).

    Graf's addition theorem leaves only the m = 0 term after the angular
    integral:
      |x| >= R:  u = -(i pi / 2) H_0(k r) R J_1(k R) / k
      |x| <  R:  u = -(i pi / 2) [H_0(k r) r J_1(k r) + J_0(k r) (R H_1(k R) - r H_1(k r))] / k
    """
    r = np.sqrt(np.sum(np.asarray(pts, dtype=float) ** 2, axis=1))
    if np.any(r == 0.0):
        raise ValueError("closed form evaluated at the disk centre")
    h0 = special.hankel1(0, k * r)
    out = np.where(
        r >= R,
        h0 * R * special.jv(1, k * R),
        h0 * r * special.jv(1, k * r)
        + special.jv(0, k * r) * (R * special.hankel1(1, k * R) - r * special.hankel1(1, k * r)),
    )
    return -0.5j * math.pi * out / k


def mie_disk_far_field(k: float, R: float, v0: float, angles: np.ndarray, inc_angle: float) -> np.ndarray:
    """Plane-wave far field of a constant-index disk by separation of variables."""
    k1 = k * math.sqrt(1.0 + v0)
    x = k * R * max(1.0, math.sqrt(abs(1.0 + v0)))
    m = np.arange(0, int(math.ceil(x + 12.0 + 4.05 * x ** (1.0 / 3.0))) + 1)
    ji, jpi = special.jv(m, k1 * R), special.jvp(m, k1 * R)
    jo, jpo = special.jv(m, k * R), special.jvp(m, k * R)
    ho, hpo = special.hankel1(m, k * R), special.h1vp(m, k * R)
    c = (ji * k * jpo - jo * k1 * jpi) / (-ji * k * hpo + ho * k1 * jpi)
    weight = np.where(m > 0, 2.0, 1.0)
    phase = np.cos(np.outer(np.asarray(angles, dtype=float) - inc_angle, m))
    return math.sqrt(2.0 / (math.pi * k)) * np.exp(-0.25j * math.pi) * (phase @ (weight * c))


def itp_determinant(R: float, v0: float, n: int, mode: int, k: np.ndarray) -> np.ndarray:
    """Radial transmission matching determinant d_m(k), vectorised over k."""
    k = np.asarray(k, dtype=float)
    k1 = k * math.sqrt(1.0 + v0)
    if n == 2:
        f, fp = (lambda x: special.jv(mode, x)), (lambda x: special.jvp(mode, x))
    else:
        f = lambda x: special.spherical_jn(mode, x)
        fp = lambda x: special.spherical_jn(mode, x, derivative=True)
    return f(k * R) * k1 * fp(k1 * R) - f(k1 * R) * k * fp(k * R)


def brackets_root(R: float, v0: float, n: int, mode: int, k: float) -> bool:
    """True when d_m changes sign between k (1 - 1e-9) and k (1 + 1e-9)."""
    lo, hi = itp_determinant(R, v0, n, mode, np.array([k * (1 - ROOT_BRACKET), k * (1 + ROOT_BRACKET)]))
    return bool(lo * hi <= 0.0)


def root_count(R: float, v0: float, n: int, mode: int, k_max: float, steps: int = 16384) -> int:
    """Number of sign changes of d_m on (0, k_max] on a fine uniform scan."""
    vals = itp_determinant(R, v0, n, mode, np.linspace(k_max / steps, k_max, steps))
    return int(np.count_nonzero(vals[:-1] * vals[1:] < 0))
