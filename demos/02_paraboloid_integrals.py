"""Closed-form harmonic-exponential integrals over paraboloid regions.

The canonical test field exp(i tau x_1 - tau x_n) integrates over the
region above x_n = K |x'|^2 to the exact value
tau^{-(n+1)/2} (pi/K)^((n-1)/2) exp(-tau/(4K)).  This script pits the
formula, the tail bound above a cut height, the exact inter-paraboloid
shell integral, and the weighted cap bound against blind adaptive
cubature.
"""

import numpy as np

from invisiscat.cgo import (
    CgoVector,
    cgo_over_parabola,
    cgo_sliced,
    cgo_tail_bound,
    cgo_weighted_cap_bound,
)
from invisiscat.quadrature import AnnularParaboloid, ParaboloidCap, integrate

print("Closed form vs adaptive cubature, canonical field:")
print(f"{'n':>3} {'tau':>7} {'K':>7} {'closed form':>24} {'rel err':>10}")
rng = np.random.default_rng(7)
for n in (2, 3):
    for _ in range(4):
        K = float(rng.uniform(0.5, 40.0))
        tau = float(rng.uniform(0.5, min(30.0, 15.0 * K)))
        vec = CgoVector.canonical(tau, n)
        want = cgo_over_parabola(vec, K)
        got = integrate(
            vec.field,
            ParaboloidCap(K, dim=n, decay_rate=tau),
            tol=max(1e-9 * abs(want) / (1 + abs(want)), 1e-13),
        )
        rel = abs(got - want) / abs(want)
        print(f"{n:3d} {tau:7.3f} {K:7.3f} {want:24.6e} {rel:10.2e}")

print("\nTail above the cut height h = 1/K vs its analytic bound:")
print(f"{'n':>3} {'tau':>7} {'K':>7} {'tail':>13} {'bound':>13} {'ratio':>7}")
for n in (2, 3):
    for K in (2.0, 10.0):
        tau, h = 4.0, 1.0 / K
        tail = abs(
            integrate(
                lambda p: np.exp(-tau * p[:, -1]),
                ParaboloidCap(K, floor=h, dim=n, decay_rate=tau),
                tol=1e-10,
            )
        )
        bound = cgo_tail_bound(tau, K, h, n)
        print(f"{n:3d} {tau:7.2f} {K:7.2f} {tail:13.4e} {bound:13.4e} {bound/tail:7.2f}")

print("\nShell between nested paraboloids: exact value vs cubature:")
for n in (2, 3):
    km, kp, tau, h = 1.0, 2.0, 1.0, 1.0
    want = cgo_sliced(tau, km, kp, h, n)
    got = integrate(
        lambda p: np.exp(-tau * p[:, -1]),
        AnnularParaboloid(km, kp, h, dim=n),
        tol=1e-11,
    )
    print(f"  n={n}: exact {want:.12f}, cubature {got.real:.12f}")

print("\nWeighted cap bound dominates the |x|^s-weighted integral:")
for s in (0.0, 0.5, 1.5):
    tau, K, h, n = 1.0, 4.0, 0.25, 2
    val = abs(
        integrate(
            lambda p, s=s: np.exp(-tau * p[:, -1])
            * np.sum(p * p, axis=1) ** (s / 2),
            ParaboloidCap(K, h, dim=n),
            tol=1e-9,
        )
    )
    bound = cgo_weighted_cap_bound(K, h, s, n)
    print(f"  s={s}: integral {val:.5e} <= bound {bound:.5e}")
