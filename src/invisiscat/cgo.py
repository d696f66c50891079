"""Closed-form harmonic-exponential integrals over paraboloid regions.

The test field is u0(x) = exp(rho . x) with rho in C^n, rho . rho = 0
(complex bilinear product), canonically rho = i tau e_1 - tau e_n.  Its
integral over the region above a paraboloid has the exact value

    int_{x_n > K|x'|^2} e^{rho.x} dx
        = (1/-rho_n) (pi / (-rho_n K))^((n-1)/2) exp(-rho'.rho' / (4 rho_n K)),

which for the canonical vector reduces to
tau^{-(n+1)/2} (pi/K)^((n-1)/2) exp(-tau/(4K)).  The companion results
are an upper bound for the tail above a cut height, the exact integral
over the shell between two nested paraboloids (via the lower incomplete
gamma function), and a weighted-cap upper bound that holds for every
tau.  Every constant left generic in the derivations is instantiated
here with the sharpest value the argument yields and regression-locked
in the tests:

    tail:         C_n = max(1, 2^((n+1)/2 - 2)) max(Gamma((n+1)/2), 1)
                        sigma(S^(n-2)) / (n-1)
    weighted cap: C_{n,s} = sigma(S^(n-2)) / (1 + s/2)

``identity_split_terms`` assembles the integration-by-parts split of
phi(0) * (paraboloid integral) into tail + shell-swap + Hoelder + lid
terms for a manufactured field on a curvature cap, and
``curvature_estimate_rhs(K, alpha, delta, n)`` evaluates the resulting
four-term visibility bound at the parameter choice tau = 4 K ln(K^gamma),
gamma = min(alpha, delta)/2, beta = 1 - min(alpha, delta); of the cap it
reads K and delta alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .errors import ConfigError
from .geometry import _polar, cap_lid_nodes, cap_window_columns
from .holder import PrecondViolated
from .quadrature import ParaboloidCap, integrate, sphere_measure

__all__ = [
    "CgoVector",
    "cgo_over_parabola",
    "cgo_tail_bound",
    "cgo_sliced",
    "cgo_weighted_cap_bound",
    "identity_split_terms",
    "curvature_estimate_rhs",
]


@dataclass
class CgoVector:
    """Harmonic exponential exp(rho . x), rho . rho = 0, Re rho_n < 0; also an incident wave."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        scale = float(np.sum(np.abs(self.rho) ** 2))
        if abs(np.sum(self.rho * self.rho)) > 1e-10 * max(scale, 1.0):
            raise ValueError("rho . rho must vanish (complex bilinear product)")
        if self.rho[-1].real >= 0:
            raise ValueError("need Re rho_n < 0 for integrability over the cap")

    @classmethod
    def canonical(cls, tau: float, n: int) -> "CgoVector":
        if tau <= 0:
            raise ValueError("tau must be positive")
        rho = np.zeros(n, dtype=complex)
        rho[0] = 1j * tau
        rho[-1] = -tau
        return cls(rho)

    @property
    def tau(self) -> float:
        return -float(self.rho[-1].real)

    @property
    def n(self) -> int:
        return self.rho.size

    def terms(self, k: float, n: int):
        """exp(rho . x) as an incident wave: exponent rho, coefficient 1."""
        return self.rho[None, :], np.ones(1)

    def field(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(pts @ self.rho)


def cgo_over_parabola(rho, K: float) -> complex:
    """Exact integral of exp(rho . x) over {x_n > K |x'|^2}."""
    if isinstance(rho, CgoVector):
        vec = rho.rho
    else:
        vec = np.asarray(rho, dtype=complex)
    n = vec.size
    if vec[-1].real >= 0:
        raise ValueError("integral diverges unless Re rho_n < 0")
    if K <= 0:
        raise ValueError("paraboloid coefficient must be positive")
    rho_n = complex(vec[-1])
    rp2 = complex(np.sum(vec[:-1] * vec[:-1]))
    return (
        (1.0 / (-rho_n))
        * (math.pi / (-rho_n * K)) ** ((n - 1) / 2.0)
        * cmath.exp(-rp2 / (4.0 * rho_n * K))
    )


def _tail_constant(n: int) -> float:
    return (
        max(1.0, 2.0 ** ((n + 1) / 2.0 - 2.0))
        * max(math.gamma((n + 1) / 2.0), 1.0)
        * sphere_measure(n - 2)
        / (n - 1)
    )


def cgo_tail_bound(tau: float, K: float, h: float, n: int) -> float:
    """Upper bound for int over {x_n > max(h, K|x'|^2)} of exp(-tau x_n).

    A tau, K or h that is not positive (NaN included) raises ``ConfigError``.
    """
    if not (tau > 0 and K > 0 and h > 0):
        raise ConfigError(f"tau, K, h must be positive, got {tau!r}, {K!r}, {h!r}")
    return (
        _tail_constant(n)
        * (1.0 + (tau * h) ** ((n - 1) / 2.0))
        / (tau ** ((n + 1) / 2.0) * K ** ((n - 1) / 2.0))
        * math.exp(-tau * h)
    )


def cgo_sliced(tau: float, K_minus: float, K_plus: float, h: float, n: int) -> float:
    """Exact integral of exp(-tau x_n) over the inter-paraboloid shell.

    The slice at height t is the annulus sqrt(t/K_+) < |x'| < sqrt(t/K_-),
    giving sigma(S^(n-2))/(n-1) (K_-^{-(n-1)/2} - K_+^{-(n-1)/2})
    tau^{-(n+1)/2} gamma(tau h, (n+1)/2).
    """
    if not (0 < K_minus <= K_plus):
        raise ValueError("need 0 < K_- <= K_+")
    if tau <= 0 or h <= 0:
        raise ValueError("tau and h must be positive")
    geom = K_minus ** (-(n - 1) / 2.0) - K_plus ** (-(n - 1) / 2.0)
    a = (n + 1) / 2.0
    # Lower incomplete gamma(tau h, a) = Gamma(a) P(a, tau h).
    return (
        sphere_measure(n - 2)
        / (n - 1)
        * geom
        * tau ** (-a)
        * (math.gamma(a) * float(gammainc(a, tau * h)))
    )


def cgo_weighted_cap_bound(K: float, h: float, s: float, n: int) -> float:
    """Upper bound for int over {K|x'|^2 < x_n < h} of exp(-tau x_n) |x|^s.

    The exponential is at most one, so the bound holds for every tau > 0
    and takes no tau.  A K or h that is not positive, or an s that is not
    nonnegative (NaN included), raises ``ConfigError``.
    """
    if not (K > 0 and h > 0 and s >= 0):
        raise ConfigError(f"need K, h > 0 and s >= 0, got {K!r}, {h!r}, {s!r}")
    cns = sphere_measure(n - 2) / (1.0 + s / 2.0)
    return (
        cns
        * (h + 1.0 / K) ** (s / 2.0)
        * h ** ((n + s + 1) / 2.0)
        * K ** (-(n - 1) / 2.0)
    )


# ---------------------------------------------------------------------------
# Integration-by-parts split over a curvature cap window
# ---------------------------------------------------------------------------

# Cubature tolerance of the tail and paraboloid integrals, and the bound
# on |w| (its square root on |grad w|) along the graph piece.
_SPLIT_TOL = 1e-10


def identity_split_terms(
    w_field,
    cap,
    rho: CgoVector,
    k: float,
    spacing: float | None = None,
):
    """Split phi(0) * int_{x_n > K|x'|^2} e^{rho.x} into four pieces.

    Returns (lhs, I1, I2, I3, I4) with
      lhs = phi(0) * closed-form paraboloid integral,
      I1  = integral over the tail {x_n > max(h, K|x'|^2)},
      I2  = integral over {K|x'|^2 < x_n < h} minus over the window,
      I3  = -int_window e^{rho.x} (phi - phi(0) - k^2 (w - w(0))),
      I4  = lid integral of (e^{rho.x} d_n w - w d_n e^{rho.x}).

    The identity lhs = phi(0)(I1+I2) + I3 + I4 holds exactly in the
    continuum; the returned terms carry O(spacing^2) quadrature error.
    """
    n = cap.n
    if rho.n != n:
        raise ValueError("dimension mismatch between rho and cap")
    if spacing is None:
        spacing = cap.h / 64.0
    tau = rho.tau

    # Preconditions: w and its normal derivative vanish on the graph piece.
    rim = cap.rim_radius
    if n == 2:
        t = np.linspace(-rim, rim, 200)[:, None]
        xp = t
    else:
        xp = _polar(np.linspace(0.0, rim, 24), np.linspace(0.0, 2 * math.pi, 24, endpoint=False))
    graph_pts = np.concatenate([xp, cap.omega(xp)[:, None]], axis=-1)
    wv = np.asarray(w_field.value(graph_pts))
    gv = np.asarray(w_field.grad(graph_pts))
    if float(np.max(np.abs(wv))) > _SPLIT_TOL or float(np.max(np.abs(gv))) > math.sqrt(_SPLIT_TOL):
        raise PrecondViolated("w or grad w fails to vanish on the graph piece")

    phi0 = complex(np.asarray(w_field.phi(np.zeros((1, n)), k))[0])
    lhs = phi0 * cgo_over_parabola(rho, cap.K)

    tail = ParaboloidCap(cap.K, floor=cap.h, dim=n, decay_rate=tau)
    i1 = integrate(rho.field, tail, tol=_SPLIT_TOL)
    cap_region = ParaboloidCap(cap.K, cap.h, dim=n)
    over_parab = integrate(rho.field, cap_region, tol=_SPLIT_TOL)

    wpts, wq = cap_window_columns(cap, spacing)
    e_w = rho.field(wpts)
    over_window = complex(np.sum(wq * e_w))
    i2 = over_parab - over_window

    w0 = complex(np.asarray(w_field.value(np.zeros((1, n))))[0])
    integrand = (
        np.asarray(w_field.phi(wpts, k), dtype=complex)
        - phi0
        - k * k * (np.asarray(w_field.value(wpts), dtype=complex) - w0)
    )
    i3 = -complex(np.sum(wq * e_w * integrand))

    lid_pts, lid_w = cap_lid_nodes(cap, spacing)
    e_l = rho.field(lid_pts)
    dn_w = np.asarray(w_field.grad(lid_pts), dtype=complex)[:, -1]
    w_l = np.asarray(w_field.value(lid_pts), dtype=complex)
    i4 = complex(np.sum(lid_w * (e_l * dn_w - w_l * rho.rho[-1] * e_l)))

    return lhs, i1, i2, i3, i4


def curvature_estimate_rhs(K: float, alpha: float, delta: float, n: int) -> float:
    """Four-term visibility bound at tau = 4 K ln(K^gamma).

    With mu = min(alpha, delta), gamma = mu/2, beta = 1 - mu, the bound is

        (ln K)^((n-1)/2) K^(-3 gamma) + K^(gamma - delta)
        + (ln K)^(3/2) K^(1 - n/2 - alpha + gamma)
        + (ln K)^((n+3)/2) K^(1 - beta - 3 gamma)

    with no norm factor: the caller scales, as ``run_curvature_source``
    does by dividing the apex intensity by max(1, |phi|_Calpha).  The
    trailing term equals (ln K)^((n+3)/2) K^(-mu/2), so the bound tends
    to zero as K -> infinity but is not monotone near K = e.  For n >= 2 it is
    strictly decreasing for ln K >= (n+3)/mu: each term (ln K)^p K^(-q)
    with q > 0 decreases once ln K > p/q, and those turning points are
    (n-1)/(3 mu), none for t2, at most 3/mu and (n+3)/mu.

    No term depends on the cap's L and M or on the wavenumber, so the
    bound takes none of them.  A K that is not finite and >= e (the cap's
    own rule), an alpha outside (0, 1) or a delta that is not positive
    raises ``ConfigError``.
    """
    if not (math.isfinite(K) and K >= math.e):
        raise ConfigError(f"bound is stated for finite K >= e, got {K!r}")
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    mu = min(alpha, delta)
    gamma = mu / 2.0
    beta = 1.0 - mu
    ln_k = math.log(K)
    t1 = ln_k ** ((n - 1) / 2.0) * K ** (-3.0 * gamma)
    t2 = K ** (gamma - delta)
    t3 = ln_k**1.5 * K ** (1.0 - n / 2.0 - alpha + gamma)
    t4 = ln_k ** ((n + 3) / 2.0) * K ** (1.0 - beta - 3.0 * gamma)
    return t1 + t2 + t3 + t4
