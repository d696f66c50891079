"""Source scattering: far fields, radiationless balls, field asymptotics."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import hankel1
from scipy.special import jv as bessel_j
from scipy.special import spherical_jn, spherical_yn

from checks import direct_far_field

from invisiscat import source
from invisiscat.errors import ConfigError, NumericalFailure
from invisiscat.geometry import (
    AnnulusComponent,
    BallComponent,
    BoxComponent,
    Domain,
    StarComponent,
    _antipodes,
    _ball_nodes,
    _disk_nodes,
    _gauss_legendre,
    sphere_directions,
)
from invisiscat.kernels import far_field_constant, green_kernel, make_support_grid
from invisiscat.source import (
    FarField,
    SourceScene,
    far_field,
    radiationless_radius,
    solve_field,
    visibility_ratio,
    write_csv,
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


def _off_centre_scene(n, k):
    # A ball and a box, neither centred at the origin, with complex intensity.
    if n == 2:
        comps = [BallComponent([0.4, -0.3], 0.5), BoxComponent([-0.9, 0.2], [-0.3, 0.7])]
    else:
        comps = [BallComponent([0.3, -0.2, 0.1], 0.4, dim=3)]
    return SourceScene(Domain(comps), 2.0 - 1.0j, k, n)


class TestAntipodalFarField:
    """The antipodal real-arithmetic sum against the direct complex-exponential sum."""

    CASES = [(2, 64), (2, 63), (2, 9), (3, 128), (3, 50)]

    @pytest.mark.parametrize("k", [0.5, 7.0])
    @pytest.mark.parametrize("n, n_dirs", CASES)
    def test_far_field_matches_direct_sum(self, n, n_dirs, k):
        scene = _off_centre_scene(n, k)
        pts, w = scene.domain.quad_nodes(scene.quad_target())
        want = direct_far_field(pts, w * scene.intensity(pts), k, n, n_dirs)
        ff = far_field(scene, n_dirs)
        assert np.max(np.abs(ff.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [0.5, 7.0])
    @pytest.mark.parametrize("n, n_dirs", CASES)
    def test_point_far_field_matches_direct_sum(self, n, n_dirs, k):
        rng = np.random.default_rng(n_dirs)
        pts = rng.uniform(-0.5, 1.5, (400, n))
        weighted = (2.0 - 1.0j) * rng.uniform(0.0, 1.0, 400)
        want = direct_far_field(pts, weighted, k, n, n_dirs)
        ff = source._point_far_field(pts, weighted, k, n, n_dirs)
        assert np.max(np.abs(ff.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, n_dirs", CASES)
    def test_grid_is_sphere_directions(self, n, n_dirs):
        ff = far_field(_off_centre_scene(n, 0.5), n_dirs)
        dirs, weights, angles = sphere_directions(n, n_dirs)
        assert np.array_equal(ff.directions, dirs)
        assert np.array_equal(ff.weights, weights)
        assert np.array_equal(ff.angles, angles)

    def test_pairs_are_antipodes(self):
        # Every even 2-d count up to 512 (past it, the rounding of the angles
        # 2 pi j / n alone reaches 1.01e-15 at n = 690, 758 and 786).
        counts = [(2, c) for c in range(8, 513, 2)] + [(2, c) for c in (9, 63, 511)]
        counts += [(3, c) for c in (8, 32, 50, 128, 200, 1000, 4096, 20000)]
        for n, n_dirs in counts:
            dirs, _, _ = sphere_directions(n, n_dirs)
            rep, anti = _antipodes(n, n_dirs)
            assert np.array_equal(np.sort(np.concatenate([rep, anti])), np.arange(len(dirs)))
            # Every direction of an even 2-d count and of a 3-d grid has its antipode.
            assert anti.size == (0 if n_dirs % 2 and n == 2 else rep.size), (n, n_dirs)
            assert np.max(np.abs(dirs[anti] + dirs[rep[: anti.size]]), initial=0.0) <= 1e-15


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
        scene = SourceScene(Domain([BallComponent([0.0, 0.0, 0.0], a, dim=3)]), 1.0, k, 3)
        pts = np.array([[0.1, 0.05, 0.0], [0.0, 0.48, 0.0], [0.0, 0.0, 0.51], [1.2, 0.3, -0.4]])
        u = solve_field(scene, pts, spacing=0.04)
        want = ball_field(k, a, pts)
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


    @pytest.mark.parametrize(
        "pts",
        [
            np.array([[np.nan, 0.0]]),
            np.array([[0.1, 0.2], [np.inf, 0.0]]),
            np.zeros((3, 3)),
            np.zeros((2, 1)),
            np.array([]),
            np.zeros((2, 2, 2)),
        ],
    )
    def test_rejects_unusable_points(self, pts):
        # Unchecked, NaN read exactly 0+0j and the shapes raised numpy's
        # broadcasting ValueError.
        with pytest.raises(ConfigError, match="evaluation points"):
            solve_field(ball_scene(0.5), pts)

    def test_no_points_no_values(self):
        assert solve_field(ball_scene(0.5), np.zeros((0, 2))).shape == (0,)


def _field_by_difference_array(scene, eval_points, spacing):
    """solve_field as first written: the full (targets, cells, n) difference
    array reduced by np.sum, and the polar correction one target at a time."""
    grid = make_support_grid(scene.domain, spacing)
    f_grid = grid.on_support(scene.intensity)
    live = np.flatnonzero(f_grid)
    cells, f_live = grid.points[live], f_grid[live]
    w_cell = grid.spacing**scene.n
    r_cut = source._NEAR_RADIUS_CELLS * grid.spacing
    out = np.empty(eval_points.shape[0], dtype=complex)
    r, wr = _gauss_legendre(12, 0.0, r_cut)
    offs, wq = _disk_nodes(r, wr, 16) if scene.n == 2 else _ball_nodes(r, wr, 8, 16)
    ker_w = wq * green_kernel(scene.n, scene.k, np.sqrt(np.sum(offs**2, axis=1)))
    block = max(1, source._BLOCK_ENTRIES // max(1, live.size))
    for start in range(0, eval_points.shape[0], block):
        x = eval_points[start : start + block]
        d = np.sqrt(np.sum((x[:, None, :] - cells[None, :, :]) ** 2, axis=-1))
        far = d > r_cut
        g = np.zeros(d.shape, dtype=complex)
        g[far] = green_kernel(scene.n, scene.k, d[far])
        out[start : start + block] = (g @ f_live) * w_cell
        for i in np.flatnonzero(~np.all(far, axis=1)):
            vals = scene.source_values(x[i : i + 1] + offs)
            out[start + i] += complex(np.sum(ker_w * vals))
    return out


def _shells(center, radii, dirs):
    return np.concatenate([np.asarray(center) + rad * dirs for rad in radii])


class TestSolveFieldBits:
    """solve_field equals the difference-array formula bit for bit, for
    targets inside, within r_cut of the boundary on both sides, and far out."""

    def _check(self, scene, pts, spacing):
        assert pts.shape[0] > source._BLOCK_ENTRIES // np.count_nonzero(
            make_support_grid(scene.domain, spacing).coverage
        )
        got = solve_field(scene, pts, spacing=spacing)
        assert np.array_equal(got, _field_by_difference_array(scene, pts, spacing))

    def test_disk_with_variable_intensity(self):
        c, R, h = (0.3, -0.2), 0.6, 0.6 / 24
        scene = ball_scene(
            R, k=7.0, center=c, phi=lambda p: 1.0 + p[:, 0] * p[:, 1] + p[:, 0] - 0.5j * p[:, 1]
        )
        th = np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = _shells(c, [0.2 * R, R - 1.5 * h, R - 0.3 * h, R + 0.4 * h, R + 1.9 * h, 5.0], ring)
        self._check(scene, pts, h)

    def test_ball_3d(self):
        c, R, h = np.array([0.2, -0.1, 0.3]), 0.5, 1.0 / 16
        scene = SourceScene(
            Domain([BallComponent(c, R, dim=3)]),
            lambda p: 2.0 + p[:, 0] * p[:, 1] - 1j * p[:, 2],
            2.0,
            3,
        )
        dirs, _, _ = sphere_directions(3, 14)
        pts = _shells(c, [0.3 * R, R - 1.2 * h, R - 0.4 * h, R + 0.5 * h, R + 1.8 * h, 4.0], dirs)
        self._check(scene, pts, h)

    def test_two_components(self):
        h = 1.0 / 40

        def radial(th):
            return 0.3 * (1.0 + 0.1 * np.cos(th) + 0.05 * np.cos(2 * th))

        dom = Domain([BallComponent([-0.6, 0.0], 0.3), StarComponent([0.5, 0.1], radial)])
        scene = SourceScene(dom, lambda p: np.exp(1j * p[:, 0]) * (1.0 + p[:, 1] ** 2), 3.0, 2)
        th = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        star_r = radial(th)[:, None]
        pts = np.concatenate(
            [
                _shells([-0.6, 0.0], [0.1, 0.3 - 0.7 * h, 0.3 + 1.5 * h], ring),
                np.concatenate([[0.5, 0.1] + f * star_r * ring for f in (0.4, 0.95, 1.05)]),
                4.0 * ring,
            ]
        )
        self._check(scene, pts, h)

    def test_many_near_targets_over_few_cells(self):
        # About 20 live cells: a block holds 800+ targets, more than the
        # 85 whose 192 polar nodes fit in _BLOCK_ENTRIES, so a block's near
        # targets are corrected in several calls.
        h = 0.02
        scene = ball_scene(0.05, k=4.0, phi=lambda p: 1.0 + 3.0 * p[:, 0] + 2j * p[:, 1])
        axis = np.linspace(-0.09, 0.09, 31)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        live = np.count_nonzero(make_support_grid(scene.domain, h).coverage)
        assert source._BLOCK_ENTRIES // live > source._BLOCK_ENTRIES // 192
        self._check(scene, pts, h)


def disk_field(k, R, pts):
    """u = int_{|y|<R} G_k(x - y) dy by Graf's addition theorem (m = 0 term)."""
    r = np.linalg.norm(pts, axis=1)
    inner = hankel1(0, k * r) * r * bessel_j(1, k * r) + bessel_j(0, k * r) * (
        R * hankel1(1, k * R) - r * hankel1(1, k * r)
    )
    outer = hankel1(0, k * r) * R * bessel_j(1, k * R)
    return -0.5j * math.pi * np.where(r >= R, outer, inner) / k


def ball_field(k, a, pts):
    """u = int_{|y|<a} G_k(x - y) dy in 3-D: the closed form of ``test_constant_ball_3d_closed_form``."""
    ka = k * a
    h0p = spherical_jn(0, ka, True) + 1j * spherical_yn(0, ka, True)
    A, B = 1j * a * a * h0p, 1j * a * a * spherical_jn(0, ka, True)
    kr = k * np.linalg.norm(pts, axis=1)
    return np.where(
        kr < ka,
        1.0 / k**2 + A * spherical_jn(0, kr),
        B * (spherical_jn(0, kr) + 1j * spherical_yn(0, kr)),
    )


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


class TestSolveFieldOnNodes:
    """A target exactly on a live grid node, and one beside it inside r_cut.

    The cell sum evaluates G_k at every (target, cell) pair, inf or nan at
    distance 0; such entries lie in the polar rule's ball and are zeroed,
    so the field is finite, warns nothing, and meets the closed form at
    ``TestSolveFieldAccuracy``'s interior tolerance (3e-3 of max |u|).
    """

    @staticmethod
    def solve(scene, spacing, near, offset):
        grid = make_support_grid(scene.domain, spacing)
        live = grid.points[grid.coverage > 0]
        node = live[np.argmin(np.sum((live - near) ** 2, axis=1))]
        pts = np.array([node, node + spacing * np.asarray(offset)])
        assert np.linalg.norm(pts[1] - node) < source._NEAR_RADIUS_CELLS * spacing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = solve_field(scene, pts, spacing=spacing)
        assert np.all(np.isfinite(u))
        return pts, u

    def test_disk(self):
        k = 2.0
        pts, u = self.solve(ball_scene(1.0, k=k), 1.0 / 24.0, [0.3, 0.2], [0.3, -0.2])
        want = disk_field(k, 1.0, pts)
        assert np.max(np.abs(u - want)) < 3e-3 * np.max(np.abs(want))

    def test_ball(self):
        k, a = 1.0, 0.5
        scene = SourceScene(Domain([BallComponent([0.0, 0.0, 0.0], a, dim=3)]), 1.0, k, 3)
        pts, u = self.solve(scene, 0.04, [0.1, 0.05, 0.0], [0.25, -0.25, 0.125])
        want = ball_field(k, a, pts)
        assert np.max(np.abs(u - want)) < 3e-3 * np.max(np.abs(want))


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

    def test_numpy_floats_written_as_plain_floats(self, tmp_path):
        """np.float64 angles, values and cells read back as Python float reprs."""
        theta = np.array([np.float64(0.25), np.float64(2.5)])
        ff = FarField(
            directions=np.stack([np.cos(theta), np.sin(theta)], axis=1),
            values=np.array([1.5 - 0.5j, -2.0 + 0.125j]),
            k=np.float64(1.0),
            weights=np.full(2, np.pi),
            angles=theta[:, None],
        )
        path = tmp_path / "ff.csv"
        ff.to_csv(path)
        text = path.read_text()
        assert "np." not in text
        assert text.splitlines() == ["theta,re,im", "0.25,1.5,-0.5", "2.5,-2.0,0.125"]
        write_csv(path, ["a", "b", "c", "d"], [[np.float64(1.5), 2, None, True]])
        assert path.read_text().splitlines() == ["a,b,c,d", "1.5,2,None,True"]


def test_field_grid_budget():
    """solve_field takes a 1.0e6-cell grid and refuses a 2.5e7-cell one unbuilt."""
    scene = ball_scene(0.5)
    target = np.array([[2.0, 0.0]])
    assert np.all(np.isfinite(solve_field(scene, target, spacing=1e-3)))
    with pytest.raises(NumericalFailure, match="cells"):
        solve_field(scene, target, spacing=2e-4)
