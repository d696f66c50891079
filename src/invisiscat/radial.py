"""Separation-of-variables oracle for the constant-index disk.

For a disk of radius R with contrast v0 (refractive index 1 + v0) and
interior wavenumber k1 = k sqrt(1 + v0), each angular mode satisfies a
2x2 matching system at r = R:

    a_m J_m(k1 R) - c_m H_m(k R) = g_m J_m(k R)
    a_m k1 J_m'(k1 R) - c_m k H_m'(k R) = g_m k J_m'(k R)

with g_m = i^m e^{-i m beta} for a plane wave from angle beta, or a
single unit g_m for a pure Bessel-mode incident wave.  The scattered
far field in the convention u^s ~ e^{ikr} r^{-1/2} u_inf is

    u_inf(phi) = sqrt(2/(pi k)) e^{-i pi/4} sum_m c_m (-i)^m e^{i m phi}.

This series shares nothing with the Lippmann-Schwinger grid solver
but ``scipy.special``, which makes it the independent cross-check for
medium scattering.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp

__all__ = [
    "mie_mode_coefficients",
    "mie_disk_far_field",
    "suggested_mode_count",
]


def suggested_mode_count(k: float, R: float, v0: float) -> int:
    x = k * R * max(1.0, math.sqrt(abs(1.0 + v0)))
    return int(math.ceil(x + 8.0 + 4.05 * x ** (1.0 / 3.0)))


def mie_mode_coefficients(k: float, R: float, v0: float, m: int):
    """(interior, scattered) coefficients for a unit J_m incident mode."""
    if 1.0 + v0 <= 0 or v0 == 0:
        raise ValueError("need refractive index 1 + v0 > 0 and v0 != 0")
    k1 = k * math.sqrt(1.0 + v0)
    jm_in = jv(m, k1 * R)
    jmp_in = jvp(m, k1 * R)
    jm = jv(m, k * R)
    jmp = jvp(m, k * R)
    hm = hankel1(m, k * R)
    hmp = h1vp(m, k * R)
    # [[J_m(k1R), -H_m(kR)], [k1 J'_m(k1R), -k H'_m(kR)]] (a, c) = rhs
    det = jm_in * (-k * hmp) - (-hm) * (k1 * jmp_in)
    rhs0, rhs1 = jm, k * jmp
    a = (rhs0 * (-k * hmp) - (-hm) * rhs1) / det
    c = (jm_in * rhs1 - rhs0 * k1 * jmp_in) / det
    return a, c


def mie_disk_far_field(
    k: float,
    R: float,
    v0: float,
    obs_angles: np.ndarray,
    inc_angle: float = 0.0,
    m_max: int | None = None,
) -> np.ndarray:
    """Scattered far field of a plane wave hitting the disk."""
    if m_max is None:
        m_max = suggested_mode_count(k, R, v0)
    obs_angles = np.asarray(obs_angles, dtype=float)
    out = np.zeros(obs_angles.shape, dtype=complex)
    pref = math.sqrt(2.0 / (math.pi * k)) * np.exp(-1j * math.pi / 4.0)
    for m in range(0, m_max + 1):
        _, c = mie_mode_coefficients(k, R, v0, m)
        g = 1j**m
        term = g * c * (-1j) ** m * np.exp(1j * m * (obs_angles - inc_angle))
        if m > 0:
            # Negative mode mirrors the positive one.
            term = term + g * c * (-1j) ** m * np.exp(
                -1j * m * (obs_angles - inc_angle)
            )
        out += term
    return pref * out
