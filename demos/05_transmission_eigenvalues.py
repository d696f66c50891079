"""Interior transmission eigenvalues and non-scattering incident waves.

For the unit disk with contrast 15 (refractive index 4), the per-mode
matching determinant vanishes precisely at the transmission
eigenvalues.  Feeding the corresponding entire eigen-wave back into the
forward solver at the eigen-wavenumber produces no measurable far
field; detuning the wavenumber by a few percent lights the pattern up
again.
"""

from invisiscat.geometry import BallComponent, Domain
from invisiscat.medium import HerglotzWave, MediumScene, scattered_far_field, solve_ls
from invisiscat.transmission import (
    RadialITP,
    boundary_vanishing_ratio,
    eigen_incident_density,
    find_eigenvalues,
)

itp = RadialITP(R=1.0, v0=15.0)
print("Transmission eigenvalues of the unit disk, contrast 15:")
print(f"{'mode':>5} {'index':>6} {'k_eig':>16} {'|u(R)|/norm':>12}")
pairs = find_eigenvalues(itp, 3.0, modes=[0, 1, 2])
counts = {}
for p in pairs:
    counts[p.mode] = counts.get(p.mode, 0) + 1
    ratio = boundary_vanishing_ratio(p, alpha=0.5)
    print(f"{p.mode:5d} {counts[p.mode]:6d} {p.k_eig:16.12f} {ratio:12.5f}")

print("\nScaling law: eigenvalues of radius R are 1/R times those of radius 1:")
for R in (0.5, 0.25):
    k_scaled = find_eigenvalues(RadialITP(R=R, v0=15.0), 1.2 / R)[0].k_eig
    print(f"  R = {R}: k_1 = {k_scaled:.12f}  (x R = {k_scaled * R:.12f})")

pair = find_eigenvalues(itp, 1.2)[0]
dom = Domain([BallComponent([0.0, 0.0], itp.R)])
wave = HerglotzWave(eigen_incident_density(pair), n_quad=128)
print(f"\nNon-scattering check at k = {pair.k_eig:.6f}:")
for detune in (1.0, 1.05, 1.15):
    scene = MediumScene(dom, itp.v0, pair.k_eig * detune, wave)
    sol = solve_ls(scene, tol=1e-11, spacing=2.2 / 384)
    sup = scattered_far_field(scene, sol, 64).sup_norm()
    tag = "(eigen-wave: silent)" if detune == 1.0 else ""
    print(f"  k/k_eig = {detune:.2f}: far-field sup = {sup:.3e} {tag}")
