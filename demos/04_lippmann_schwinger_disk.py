"""Medium scattering from a penetrable disk, two ways.

The Lippmann-Schwinger grid solver knows nothing about radial symmetry;
the separation-of-variables series knows nothing about grids.  Their
far fields agree to solver accuracy, the Picard iteration contracts at
the predicted geometric rate, and for a real contrast the optical
theorem ties the total scattered power to the forward amplitude.
"""

import math

import numpy as np

from invisiscat.geometry import BallComponent, Domain
from invisiscat.medium import (
    MediumScene,
    PlaneWave,
    estimate_c0,
    scattered_far_field,
    solve_ls,
)
from invisiscat.radial import mie_disk_far_field

k, v0, R = 0.5, 1.0, 1.0
dom = Domain([BallComponent([0.0, 0.0], R)])
scene = MediumScene(dom, v0, k, PlaneWave([1.0, 0.0]))

c0 = estimate_c0(k, R, 2, resolution=40)
print(f"resolvent norm estimate C0 = {c0:.4f}")
print(f"contraction number k^2 C0 |V| = {k*k*c0*v0:.4f}")

sol = solve_ls(scene, tol=1e-11, spacing=2.2 / 256)
print(f"solver route: {sol.method}, residual history:")
for i, r in enumerate(sol.residuals[:8]):
    print(f"  iter {i}: {r:.3e}")

ff = scattered_far_field(scene, sol, 72)
mie = mie_disk_far_field(k, R, v0, ff.angles[:, 0])
rel = float(np.max(np.abs(ff.values - mie)) / np.max(np.abs(mie)))
print(f"\nfar-field mismatch vs separation-of-variables series: {rel:.2e}")

print("\nscattering pattern |u_inf(theta)| (every 6th direction):")
for ang, grid_val, series_val in list(zip(ff.angles[:, 0], ff.values, mie))[::6]:
    print(f"  theta = {ang:6.3f}: grid {abs(grid_val):.6f}  series {abs(series_val):.6f}")

gentle = MediumScene(dom, 0.4, k, PlaneWave([1.0, 0.0]))
sol2 = solve_ls(gentle, tol=1e-12, spacing=2.2 / 256)
ff2 = scattered_far_field(gentle, sol2, 256)
lhs = ff2.l2_norm() ** 2
rhs = -math.sqrt(8.0 * math.pi / k) * (np.exp(1j * math.pi / 4) * ff2.values[0]).real
print("\noptical theorem for a real contrast:")
print(f"  total power    {lhs:.6e}")
print(f"  forward terms  {rhs:.6e}")
print(f"  relative gap   {abs(lhs-rhs)/lhs:.2%}")
