"""Source scattering: far fields, radiationless balls, field asymptotics."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import hankel1
from scipy.special import jv as bessel_j
from scipy.special import spherical_jn, spherical_yn

from invisiscat import source
from invisiscat.errors import NumericalFailure
from invisiscat.geometry import AnnulusComponent, BallComponent, BoxComponent, Domain
from invisiscat.kernels import far_field_constant, make_support_grid
from invisiscat.source import (
    FarField,
    SourceScene,
    far_field,
    radiationless_radius,
    solve_field,
    visibility_ratio,
)


def ball_scene(radius, k=1.0, phi=1.0, center=(0.0, 0.0)):
    return SourceScene(Domain([BallComponent(list(center), radius)]), phi, k, 2)


class TestFarField:
    def test_zero_intensity(self):
        ff = far_field(ball_scene(1.0, phi=0.0), 32)
        assert ff.sup_norm() == 0.0

    def test_ball_transform_is_bessel(self):
        # |u_inf| = |C_{n,k}| 2 pi r0 |J_1(k r0)| / k, uniform over directions.
        k, r0 = 1.3, 0.9
        ff = far_field(ball_scene(r0, k=k), 48)
        want = abs(far_field_constant(2, k)) * 2.0 * math.pi * r0 * abs(
            bessel_j(1.0, k * r0)
        ) / k
        assert np.allclose(np.abs(ff.values), want, rtol=1e-9)

    def test_translation_covariance(self):
        k, r0 = 1.0, 0.7
        a = np.array([0.35, -0.2])
        f0 = far_field(ball_scene(r0), 40)
        f1 = far_field(ball_scene(r0, center=a), 40)
        shift = np.exp(-1j * k * (f0.directions @ a))
        assert np.allclose(f1.values, f0.values * shift, rtol=1e-9, atol=1e-14)

    def test_linearity_in_phi(self):
        f1 = far_field(ball_scene(0.8, phi=1.0), 32)
        f2 = far_field(ball_scene(0.8, phi=2.0 - 1.0j), 32)
        assert np.allclose(f2.values, (2.0 - 1.0j) * f1.values, rtol=1e-12)

    def test_requires_enough_directions(self):
        with pytest.raises(ValueError):
            far_field(ball_scene(1.0), 4)

    def test_ball_transform_3d_closed_form(self):
        # int_{B_R} e^{-i xi.y} dy = 4 pi (sin(|xi|R) - |xi|R cos(|xi|R)) / |xi|^3
        k, R = 1.2, 0.8
        dom = Domain([BallComponent([0.0, 0.0, 0.0], R, dim=3)])
        scene = SourceScene(dom, 1.0, k, 3)
        ff = far_field(scene, 128)
        want = (
            abs(far_field_constant(3, k))
            * 4.0
            * math.pi
            * abs(math.sin(k * R) - k * R * math.cos(k * R))
            / k**3
        )
        assert np.allclose(np.abs(ff.values), want, rtol=1e-7)

    def test_radiationless_ball_3d(self):
        # First zero of J_{3/2} (tan x = x branch) silences the 3-d ball.
        k = 1.0
        r0 = radiationless_radius(k, 3, 1)
        assert abs(math.tan(r0) - r0) < 1e-6 * max(1.0, abs(math.tan(r0)))
        dom = Domain([BallComponent([0.0, 0.0, 0.0], r0, dim=3)])
        silent = far_field(SourceScene(dom, 1.0, k, 3), 128).sup_norm()
        half = Domain([BallComponent([0.0, 0.0, 0.0], r0 / 2, dim=3)])
        loud = far_field(SourceScene(half, 1.0, k, 3), 128).sup_norm()
        assert silent < 1e-9 * loud

    def test_union_matches_support_grid_moments(self):
        # Concatenated component quad_nodes against the coverage-weighted
        # grid sum of the same oscillatory integral, O(h^2) at h = 0.02.
        k, h = 1.3, 0.02
        dom = Domain(
            [
                BallComponent([-1.2, 0.0], 0.5),
                AnnulusComponent([0.6, 0.3], 0.3, 0.7),
                BoxComponent([-0.5, -1.4], [0.4, -0.8]),
            ]
        )
        ff = far_field(SourceScene(dom, 1.0, k, 2), 32)
        grid = make_support_grid(dom, h)
        want = far_field_constant(2, k) * grid.plane_wave_moments(
            -1j * k * ff.directions, grid.coverage * h**2
        )
        assert np.max(np.abs(ff.values - want)) < 2e-4 * np.max(np.abs(want))


class TestRadiationlessRadius:
    def test_first_zero_j1(self):
        r0 = radiationless_radius(1.0, 2, 1)
        assert abs(r0 - 3.8317059702) < 1e-9

    def test_wavenumber_scaling(self):
        assert abs(
            radiationless_radius(2.0, 2, 1) - 0.5 * radiationless_radius(1.0, 2, 1)
        ) < 1e-12

    def test_far_field_dip(self):
        r0 = radiationless_radius(1.0, 2, 1)
        silent = far_field(ball_scene(r0), 48).sup_norm()
        loud = far_field(ball_scene(r0 / 2.0), 48).sup_norm()
        assert loud > 1e-3
        assert silent < 1e-6 * loud

    def test_second_branch(self):
        r1 = radiationless_radius(1.0, 2, 2)
        assert abs(bessel_j(1.0, r1)) < 1e-9
        assert r1 > radiationless_radius(1.0, 2, 1)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [0.3, 1.0, 2.0])
    def test_matches_mpmath_zeros(self, n, k):
        with mpmath.workdps(30):
            for m in range(1, 7):
                want = float(mpmath.besseljzero(mpmath.mpf(n) / 2, m) / k)
                assert radiationless_radius(k, n, m) == pytest.approx(want, rel=4e-16, abs=0)

    @pytest.mark.parametrize("branch_index", [10**9, 10**400])
    def test_huge_branch_index_fails_fast(self, branch_index):
        # The scan stops at 1000 whatever the branch asked for.
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="zero scan exhausted"):
            radiationless_radius(1.0, 2, branch_index)
        assert time.perf_counter() - start < 1.0


class TestSolveField:
    def test_zero_source(self):
        pts = np.array([[2.0, 0.0], [0.0, 0.1]])
        u = solve_field(ball_scene(0.8, phi=0.0), pts)
        assert np.all(u == 0)

    def test_point_like_source_matches_kernel(self):
        # Mass m concentrated near zero radiates ~ G(|x|) m.
        from invisiscat.kernels import green_kernel

        eps, k = 0.04, 1.0
        scene = ball_scene(eps, k=k)
        pts = np.array([[1.5, 0.3], [0.0, -2.0]])
        u = solve_field(scene, pts)
        mass = math.pi * eps * eps
        for i, x in enumerate(pts):
            want = green_kernel(2, k, np.array([np.linalg.norm(x)]))[0] * mass
            assert abs(u[i] - want) < 0.01 * abs(want)

    def test_interior_residual(self):
        # Discrete (Delta + k^2) u - f = O(h^2) away from the boundary.
        k = 1.0
        scene = ball_scene(1.0, k=k)
        h_fd = 0.02
        x0 = np.array([0.1, -0.05])
        stencil = np.array(
            [[0.0, 0.0], [h_fd, 0.0], [-h_fd, 0.0], [0.0, h_fd], [0.0, -h_fd]]
        )
        pts = x0[None, :] + stencil
        u = solve_field(scene, pts, spacing=0.01)
        lap = (np.sum(u[1:]) - 4.0 * u[0]) / h_fd**2
        resid = lap + k * k * u[0] - 1.0
        assert abs(resid) < 0.02

    def test_far_field_asymptotics(self):
        # u(x) |x|^((n-1)/2) e^{-ik|x|} matches u_inf within 2 percent at
        # 50 wavelengths.
        k = 1.0
        scene = ball_scene(0.8, k=k)
        R = 50.0 * 2.0 * math.pi / k
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-math.sqrt(0.5), math.sqrt(0.5)]])
        u = solve_field(scene, R * dirs)
        ff = far_field(scene, 64)
        want = abs(ff.values[0])
        got = np.abs(u) * math.sqrt(R)
        assert np.all(np.abs(got - want) < 0.02 * want)

    def test_rellich_consistency(self):
        # Radiationless ball: exterior field must vanish (relative to mass).
        k = 1.0
        r0 = radiationless_radius(k, 2, 1)
        scene = ball_scene(r0, k=k)
        mass = math.pi * r0 * r0
        pts = np.array([[r0 + 2.0, 0.0], [0.0, -r0 - 3.0], [r0 + 5.0, r0]])
        u = solve_field(scene, pts, spacing=0.02)
        assert np.max(np.abs(u)) < 1e-5 * mass

    def test_constant_ball_3d_closed_form(self):
        # (Delta + k^2) u = 1 on B(0, a): u = 1/k^2 + A j0(kr) inside and
        # B h0(kr) outside, matched C^1 at r = a (Wronskian j0 y0' - j0' y0
        # = 1/x^2 gives A = i a^2 h0'(ka), B = i a^2 j0'(ka)).  Targets
        # within r_cut of the support use the polar near-field rule.
        k, a = 1.0, 0.5
        ka = k * a
        h0p = spherical_jn(0, ka, True) + 1j * spherical_yn(0, ka, True)
        A, B = 1j * a * a * h0p, 1j * a * a * spherical_jn(0, ka, True)
        scene = SourceScene(Domain([BallComponent([0.0, 0.0, 0.0], a, dim=3)]), 1.0, k, 3)
        pts = np.array([[0.1, 0.05, 0.0], [0.0, 0.48, 0.0], [0.0, 0.0, 0.51], [1.2, 0.3, -0.4]])
        u = solve_field(scene, pts, spacing=0.04)
        kr = k * np.linalg.norm(pts, axis=1)
        want = np.where(
            kr < ka,
            1.0 / k**2 + A * spherical_jn(0, kr),
            B * (spherical_jn(0, kr) + 1j * spherical_yn(0, kr)),
        )
        assert np.all(np.abs(u - want) < 5e-3 * np.abs(want))

    def test_batched_targets_match_single_calls(self):
        # 40 targets in blocks of 9 (2^14 entries over ~1,800 live cells):
        # interior, near the circle on both sides (polar correction) and far
        # outside.
        scene = ball_scene(0.5, k=2.0, phi=lambda p: 1.0 + p[:, 0] - 0.5j * p[:, 1])
        th = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = np.concatenate([0.2 * ring, 0.49 * ring, 0.53 * ring, 3.0 * ring])
        block = source._BLOCK_ENTRIES // np.count_nonzero(
            make_support_grid(scene.domain, 1.0 / 48.0).coverage
        )
        assert 1 < block < len(pts)
        u = solve_field(scene, pts)
        single = np.array([solve_field(scene, pts[i : i + 1])[0] for i in range(len(pts))])
        assert np.all(np.abs(u - single) <= 1e-14 * np.abs(single))


def disk_field(k, R, pts):
    """u = int_{|y|<R} G_k(x - y) dy by Graf's addition theorem (m = 0 term)."""
    r = np.linalg.norm(pts, axis=1)
    inner = hankel1(0, k * r) * r * bessel_j(1, k * r) + bessel_j(0, k * r) * (
        R * hankel1(1, k * R) - r * hankel1(1, k * r)
    )
    outer = hankel1(0, k * r) * R * bessel_j(1, k * R)
    return -0.5j * math.pi * np.where(r >= R, outer, inner) / k


class TestSolveFieldAccuracy:
    """Unit disk at k = 2 against Graf's closed form on a 16 x 16 target grid.

    Errors are max |u - u_exact| over the subset, relative to max |u_exact|
    over all targets.  Measured: 2.2e-3 inside (r < 0.9) and 1.3e-4 outside
    (r > 1.1) at the default h = 1/24; 6.8e-4 and 3.3e-5 at h/2.
    """

    def test_errors_and_observed_order(self):
        k = 2.0
        axis = np.linspace(-1.5, 1.5, 16)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        r = np.linalg.norm(pts, axis=1)
        want = disk_field(k, 1.0, pts)
        scene = ball_scene(1.0, k=k)
        errs = {}
        for h in (1.0 / 24.0, 1.0 / 48.0):
            err = np.abs(solve_field(scene, pts, spacing=h) - want) / np.max(np.abs(want))
            errs[h] = np.array([np.max(err[r < 0.9]), np.max(err[r > 1.1])])
        coarse, fine = errs[1.0 / 24.0], errs[1.0 / 48.0]
        assert np.all(coarse < [3e-3, 2e-4])
        assert np.all(fine < [1e-3, 5e-5])
        assert np.all(np.log2(coarse / fine) >= 1.0)


class TestVisibilityRatio:
    def test_constant_on_ball(self):
        scene = ball_scene(0.5)
        got = visibility_ratio(scene, 0.5)
        assert abs(got - 1.0 / math.sqrt(1.0)) < 0.02  # (2R)^alpha = 1

    def test_vanishing_on_boundary(self):
        R = 1.0
        dom = Domain([BallComponent([0.0, 0.0], R)])
        scene = SourceScene(
            dom, lambda p: R * R - np.sum(p * p, axis=1), 1.0, 2
        )
        assert visibility_ratio(scene, 0.5) < 0.02

    def test_bessel_ball_family_lower_bound(self):
        # Radiationless balls: diam^alpha >= C * (sup/norm) with C frozen
        # at the first branch.
        alpha = 0.5
        ratios = []
        for m in range(1, 6):
            r0 = radiationless_radius(1.0, 2, m)
            scene = ball_scene(r0)
            sup_over_norm = visibility_ratio(scene, alpha) * (2 * r0) ** alpha
            ratios.append((2.0 * r0) ** alpha / sup_over_norm)
        C = ratios[0]
        assert all(r >= C * (1 - 1e-9) for r in ratios)


class TestFarFieldSerialization:
    def test_csv_json_roundtrip(self, tmp_path):
        ff = far_field(ball_scene(0.6), 16)
        csv_path = tmp_path / "ff.csv"
        json_path = tmp_path / "ff.json"
        ff.to_csv(csv_path)
        ff.to_json(json_path)
        import csv as csvmod
        import json as jsonmod

        with open(csv_path) as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["theta", "re", "im"]
        assert len(rows) == 17
        got = complex(float(rows[1][1]), float(rows[1][2]))
        assert abs(got - ff.values[0]) < 1e-15
        with open(json_path) as fh:
            payload = jsonmod.load(fh)
        assert payload["wavenumber"] == 1.0
        assert len(payload["re"]) == 16

    def test_csv_idempotent(self, tmp_path):
        ff = far_field(ball_scene(0.6), 16)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ff.to_csv(p1)
        ff.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_field_grid_budget():
    """solve_field takes a 1.0e6-cell grid and refuses a 2.5e7-cell one unbuilt."""
    scene = ball_scene(0.5)
    target = np.array([[2.0, 0.0]])
    assert np.all(np.isfinite(solve_field(scene, target, spacing=1e-3)))
    with pytest.raises(NumericalFailure, match="cells"):
        solve_field(scene, target, spacing=2e-4)
