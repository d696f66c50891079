"""Lippmann-Schwinger solver against the separation-of-variables oracle."""

import math

import numpy as np
import pytest
import scipy.fft

from invisiscat import geometry, kernels, medium
from invisiscat.cgo import CgoVector
from invisiscat.errors import ConfigError, NumericalFailure
from invisiscat.geometry import (
    BallComponent,
    CappedComponent,
    Domain,
    _coverage_subsample,
    make_curvature_cap,
)
from invisiscat.kernels import (
    GridConvolver,
    far_field_constant,
    green_cell_integral,
    green_kernel,
    make_support_grid,
)
from invisiscat.medium import (
    HerglotzWave,
    MediumScene,
    PlaneWave,
    estimate_c0,
    scatter_visibility_ratio,
    scattered_far_field,
    solve_ls,
)
from invisiscat.quadrature import integrate
from invisiscat.radial import mie_disk_far_field

from checks import mie_total_field


def disk_scene(v0=0.1, k=0.5, R=1.0, theta=0.0):
    dom = Domain([BallComponent([0.0, 0.0], R)])
    return MediumScene(dom, v0, k, PlaneWave([math.cos(theta), math.sin(theta)]))


class TestSolveLs:
    def test_zero_contrast_one_iteration(self):
        scene = disk_scene(v0=0.0)
        sol = solve_ls(scene)
        assert sol.method == "picard"
        assert len(sol.residuals) == 1
        assert np.allclose(sol.u, sol.u_incident)

    def test_contractive_ratio(self):
        k, v0 = 0.5, 0.1
        c0 = estimate_c0(k, 1.0, 2, resolution=40)
        scene = disk_scene(v0=v0, k=k)
        sol = solve_ls(scene, tol=1e-11)
        ratios = sol.convergence_ratios()
        bound = k * k * c0 * v0
        assert bound <= 0.5
        assert np.all(ratios[:-1] <= bound * 1.1)

    def test_l2_bound_from_contraction(self):
        # |u|_L2 <= 2 |u^i|_L2 in the contraction regime.
        scene = disk_scene(v0=0.1, k=0.5)
        sol = solve_ls(scene)
        w = sol.grid.weights
        nu = math.sqrt(float(np.sum(w * np.abs(sol.u) ** 2)))
        ni = math.sqrt(float(np.sum(w * np.abs(sol.u_incident) ** 2)))
        assert nu <= 2.0 * ni

    def test_total_field_matches_mie(self):
        k, v0, R = 0.5, 1.0, 1.0
        scene = disk_scene(v0=v0, k=k, R=R)
        sol = solve_ls(scene, spacing=2.2 / 256)
        mie = mie_total_field(k, R, v0, sol.grid.points)
        mask = sol.grid.coverage > 0.999  # full interior cells
        err = np.max(np.abs(sol.u - mie)[mask]) / np.max(np.abs(mie[mask]))
        assert err < 1e-3
        # Scattered part alone meets the tighter radial cross-check.
        us_grid = (sol.u - sol.u_incident)[mask]
        us_mie = (mie - sol.u_incident)[mask]
        err_s = np.max(np.abs(us_grid - us_mie)) / np.max(np.abs(us_mie))
        assert err_s < 1e-4

    def test_zero_incident_exact_zero(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        wave = HerglotzWave(lambda th: np.zeros(th.shape[0]))
        scene = MediumScene(dom, 1.0, 0.5, wave)
        sol = solve_ls(scene)
        assert sol.method == "picard"
        assert sol.residuals == [0.0]
        assert not np.any(sol.u)
        assert scattered_far_field(scene, sol, 16).sup_norm() == 0.0

    def test_imaginary_contrast_sign_rejected(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        scene = MediumScene(
            dom, lambda p: np.full(p.shape[0], -0.1j), 0.5, PlaneWave([1, 0])
        )
        with pytest.raises(ValueError):
            solve_ls(scene)


class TestObservedSwitch:
    """Picard or GMRES is chosen from the logged residuals alone.

    ``estimate_c0`` raises in every test here, so each solve also shows
    that neither route needs it.
    """

    @pytest.fixture(autouse=True)
    def refuse_estimate_c0(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ls must not call estimate_c0")

        monkeypatch.setattr(medium, "estimate_c0", refuse)

    def test_expanding_picard_switches_to_gmres(self):
        tol = 1e-10
        sol = solve_ls(disk_scene(v0=15.0, k=1.0), tol=tol, spacing=2.2 / 64)
        assert sol.method == "gmres"
        # Two Picard steps, one entry per GMRES iteration, the true residual.
        first, second, *history, final = sol.residuals
        assert second > 0.5 * first
        assert 0 < len(history) <= 100  # all in the first restart cycle
        assert np.all(np.diff(history) <= 0.0)
        assert final <= 10.0 * tol

    def test_halving_residuals_stay_picard(self):
        sol = solve_ls(disk_scene(v0=0.1, k=0.5))
        assert sol.method == "picard"
        assert len(sol.residuals) > 1
        assert np.all(sol.convergence_ratios() <= 0.5)


def recorded_applies(monkeypatch):
    """Wrap GridConvolver.apply; the list it returns gets each apply's input dtype."""
    calls = []
    apply = GridConvolver.apply

    def recording(self, density):
        calls.append(density.dtype.name)
        return apply(self, density)

    monkeypatch.setattr(GridConvolver, "apply", recording)
    return calls


def complex128_residual(scene, sol):
    """|u^i - (I + k^2 K V) u| / |u^i|, recomputed here in complex128."""
    conv = GridConvolver(sol.grid, scene.k)
    r = sol.u_incident - sol.u - scene.k**2 * conv.apply(sol.contrast_eff * sol.u)
    return float(np.linalg.norm(r) / np.linalg.norm(sol.u_incident))


def complex128_reference(scene, sol):
    """u on the solve's own grid by complex128 GMRES at rtol 1e-14."""
    import scipy.sparse.linalg

    conv = GridConvolver(sol.grid, scene.k)
    n = sol.u.size
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: x + scene.k**2 * conv.apply(sol.contrast_eff * x), dtype=complex
    )
    u, info = scipy.sparse.linalg.gmres(op, sol.u_incident, rtol=1e-14, atol=0.0, restart=200)
    assert info == 0
    return u


PICARD_SCENE = dict(v0=0.1, k=0.5)  # contraction about 0.02 per step
MIE_SCENE = dict(v0=1.0, k=0.5)  # contraction about 0.22 per step
GMRES_SCENE = dict(v0=15.0, k=1.0)  # Picard expands


class TestMixedPrecision:
    """complex64 applies under complex128 residuals keep every tolerance."""

    @pytest.mark.parametrize("params", [PICARD_SCENE, MIE_SCENE])
    def test_picard_ends_on_complex128_residual_within_tol(self, params, monkeypatch):
        calls = recorded_applies(monkeypatch)
        scene, tol = disk_scene(**params), 1e-10
        sol = solve_ls(scene, tol=tol, spacing=2.2 / 64)
        monkeypatch.undo()
        assert sol.method == "picard"
        assert sol.residuals[-1] <= tol
        assert complex128_residual(scene, sol) <= tol
        assert rel_err(sol.u, complex128_reference(scene, sol)) <= 1e-9
        # Refreshes replace steps: at most one apply more than residuals logged.
        assert sol.applies == {"complex64": calls.count("complex64"),
                               "complex128": calls.count("complex128")}
        assert len(calls) <= len(sol.residuals) + 1
        assert sol.applies["complex64"] > sol.applies["complex128"]
        assert calls[-1] == "complex128"  # the residual that ends the solve

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_picard_ends_on_a_refresh_at_any_tol(self, tol, monkeypatch):
        # Tolerances that the tracked residual reaches between the refreshes
        # of its 1e-5 schedule: the solve still ends on a complex128 residual.
        calls = recorded_applies(monkeypatch)
        scene = disk_scene(**MIE_SCENE)
        sol = solve_ls(scene, tol=tol, spacing=2.2 / 64)
        monkeypatch.undo()
        assert sol.method == "picard"
        assert calls[-1] == "complex128"
        assert complex128_residual(scene, sol) <= tol
        assert len(calls) <= len(sol.residuals) + 1

    def test_gmres_ends_on_complex128_residual_within_ten_tol(self, monkeypatch):
        calls = recorded_applies(monkeypatch)
        scene, tol = disk_scene(**GMRES_SCENE), 1e-10
        sol = solve_ls(scene, tol=tol, spacing=2.2 / 64)
        monkeypatch.undo()
        assert sol.method == "gmres"
        assert complex128_residual(scene, sol) <= 10.0 * tol
        assert math.isclose(sol.residuals[-1], complex128_residual(scene, sol), rel_tol=1e-6)
        assert rel_err(sol.u, complex128_reference(scene, sol)) <= 1e-9
        assert sol.applies == {"complex64": calls.count("complex64"),
                               "complex128": calls.count("complex128")}
        assert sol.applies["complex64"] > sol.applies["complex128"]
        assert calls[-1] == "complex128"

    @pytest.mark.parametrize("params, method", [(MIE_SCENE, "picard"), (GMRES_SCENE, "gmres")])
    def test_noisy_complex64_applies_still_reach_tol(self, params, method, monkeypatch):
        # Relative noise of 1e-3 on every complex64 apply: the complex128
        # residuals see it and the refinement absorbs it.
        apply, rng = GridConvolver.apply, np.random.default_rng(3)

        def noisy(self, density):
            out = apply(self, density)
            if out.dtype == np.complex64:
                out *= (1.0 + 1e-3 * rng.standard_normal(out.size)).astype(np.float32)
            return out

        monkeypatch.setattr(GridConvolver, "apply", noisy)
        scene, tol = disk_scene(**params), 1e-10
        sol = solve_ls(scene, tol=tol, spacing=2.2 / 64)
        monkeypatch.undo()
        assert sol.method == method
        bound = tol if method == "picard" else 10.0 * tol
        assert complex128_residual(scene, sol) <= bound

    def test_useless_complex64_applies_fall_back_to_complex128(self, monkeypatch):
        # complex64 applies off by 100% stop halving the complex128 residual,
        # and complex128 GMRES finishes the solve.
        calls, apply, rng = [], GridConvolver.apply, np.random.default_rng(3)

        def garbled(self, density):
            calls.append(density.dtype.name)
            out = apply(self, density)
            if out.dtype == np.complex64:
                out *= (1.0 + rng.standard_normal(out.size)).astype(np.float32)
            return out

        monkeypatch.setattr(GridConvolver, "apply", garbled)
        scene, tol = disk_scene(**GMRES_SCENE), 1e-10
        sol = solve_ls(scene, tol=tol, spacing=2.2 / 64)
        monkeypatch.undo()
        assert sol.method == "gmres"
        assert complex128_residual(scene, sol) <= 10.0 * tol
        # The fallback's GMRES iterations: the solve ends on a run of
        # complex128 applies, where a refinement round ends on one.
        tail = len(calls) - max(i for i, dt in enumerate(calls) if dt == "complex64") - 1
        assert tail > 2

    def test_incident_amplitude_scales_out(self):
        # The iterations run on u / |u^i|: a 1e-30 incident wave takes the
        # same steps as a unit one, with no complex64 underflow.
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        sols = [solve_ls(MediumScene(dom, 1.0, 0.5, HerglotzWave(lambda th, a=a: np.full(th.shape[0], a))),
                         spacing=2.2 / 64) for a in (1.0, 1e-30)]
        assert sols[1].applies == sols[0].applies
        assert np.allclose(sols[1].residuals, sols[0].residuals, rtol=1e-9, atol=1e-14)
        assert rel_err(sols[1].u * 1e30, sols[0].u) <= 1e-12

    def test_contrast_beyond_complex64_range_runs_in_complex128(self, monkeypatch):
        # k^2 V = 1e39 overflows complex64: no apply runs in it.
        calls = recorded_applies(monkeypatch)
        dom = Domain([BallComponent([0.0, 0.0], 0.4)])
        with pytest.raises(medium.NotContractive):
            solve_ls(MediumScene(dom, 1e39, 1.0, PlaneWave([1.0, 0.0])), spacing=0.1)
        assert calls and set(calls) == {"complex128"}


def two_disk_grid():
    """A non-square 2-D grid: two disjoint disks side by side.

    30 x 15 nodes embed at 60 x 30, so each axis has a zero slot between
    the positive offsets and the wrapped negative ones.
    """
    dom = Domain([BallComponent([-0.5, 0.0], 0.4), BallComponent([0.5, 0.0], 0.4)])
    grid = make_support_grid(dom, 0.065)
    assert grid.shape == (30, 15)
    return dom, grid


def cube_grid():
    """An 8^3 grid around a ball."""
    dom = Domain([BallComponent([0.0, 0.0, 0.0], 0.55, dim=3)])
    grid = make_support_grid(dom, 0.2)
    assert grid.shape == (8, 8, 8)
    return dom, grid


def disk_grid():
    """An 8 x 8 grid, embedded at the odd length 15 on both axes."""
    dom = Domain([BallComponent([0.0, 0.0], 0.55)])
    grid = make_support_grid(dom, 0.2)
    assert grid.shape == (8, 8)
    return dom, grid


def ball_grid():
    """A 12^3 grid, embedded at the even length 24 on every axis."""
    dom = Domain([BallComponent([0.0, 0.0, 0.0], 0.5, dim=3)])
    grid = make_support_grid(dom, 0.1)
    assert grid.shape == (12, 12, 12)
    return dom, grid


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestGridConvolverOracle:
    """FFT convolution against the direct O(N^2) Nystroem sum."""

    @pytest.mark.parametrize("make_grid", [two_disk_grid, cube_grid])
    def test_complex64_density_applies_in_complex64(self, make_grid):
        _, grid = make_grid()
        conv = GridConvolver(grid, 1.7)
        rng = np.random.default_rng(7)
        density = rng.normal(size=grid.points.shape[0]) + 1j * rng.normal(size=grid.points.shape[0])
        want = conv.apply(density)
        assert want.dtype == np.complex128
        got = conv.apply(density.astype(np.complex64))
        assert got.dtype == np.complex64
        assert rel_err(got, want) <= 1e-6

    @pytest.mark.parametrize("make_grid", [two_disk_grid, cube_grid])
    def test_matches_direct_sum(self, make_grid):
        _, grid = make_grid()
        n, h, k = len(grid.shape), grid.spacing, 1.7
        pts = grid.points
        r = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        off = ~np.eye(len(pts), dtype=bool)
        matrix = np.zeros(r.shape, dtype=complex)
        matrix[off] = green_kernel(n, k, r[off]) * h**n
        np.fill_diagonal(matrix, green_cell_integral(n, k, h))
        rng = np.random.default_rng(5)
        density = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
        got = GridConvolver(grid, k).apply(density)
        assert rel_err(got, matrix @ density) < 1e-12

    @pytest.mark.parametrize("make_grid", [two_disk_grid, disk_grid, cube_grid, ball_grid])
    def test_pruned_transforms_match_full_transform(self, make_grid):
        # Embeddings: 60 x 30 and 24^3 (even), 15^2 and 15^3 (odd).
        _, grid = make_grid()
        conv = GridConvolver(grid, 1.7)
        rng = np.random.default_rng(11)
        density = rng.normal(size=grid.points.shape[0]) + 1j * rng.normal(size=grid.points.shape[0])
        spec = scipy.fft.fftn(density.reshape(grid.shape), s=conv._fft_shape) * conv._kernel_hat
        want = scipy.fft.ifftn(spec)[tuple(slice(0, s) for s in grid.shape)].ravel()
        assert rel_err(conv.apply(density), want) <= 1e-14


def strip_overlap(cx, cy, R, x0, x1, y0, y1, sub=24):
    """Area of the disk inside one cell by the 24-strip midpoint rule, one cell at a time."""
    xs = np.linspace(x0, x1, sub + 1)
    xm = 0.5 * (xs[:-1] + xs[1:])
    d2 = R * R - (xm - cx) ** 2
    s = np.sqrt(np.maximum(d2, 0.0))
    chord = np.maximum(np.minimum(y1, cy + s) - np.maximum(y0, cy - s), 0.0) * (d2 > 0)
    return float(np.sum(chord) * ((x1 - x0) / sub))


class TestSupportGridCoverage:
    """Disk coverage against the per-cell strip rule, and the disk's area."""

    @pytest.mark.parametrize("center, R", [((0.0, 0.0), 1.0), ((0.3, -0.17), 0.61)])
    @pytest.mark.parametrize("h", [0.1, 0.05, 0.037])
    def test_matches_scalar_strip_rule(self, center, R, h):
        grid = make_support_grid(Domain([BallComponent(list(center), R)]), h)
        (cx, cy), band = np.asarray(center), 0.75 * h * math.sqrt(2.0)
        want = np.zeros(len(grid.points))
        for i, (x, y) in enumerate(grid.points):
            d = math.sqrt((x - cx) ** 2 + (y - cy) ** 2)
            if d <= R - band:
                want[i] = 1.0
            elif d < R + band:
                area = strip_overlap(cx, cy, R, x - h / 2, x + h / 2, y - h / 2, y + h / 2)
                want[i] = area / (h * h)
        np.testing.assert_array_equal(grid.coverage, np.clip(want, 0.0, 1.0))
        # The midpoint rule's error comes from the square-root ends of the
        # chord at x = cx -/+ R, O(sqrt(R) (h/24)^(3/2)) in all.
        area = np.sum(grid.coverage) * h * h
        assert abs(area - math.pi * R * R) < math.sqrt(R) * (h / 24) ** 1.5


class TestBallCoverage3d:
    """3-d balls run the subsample on the cells the sphere may cut only."""

    @pytest.mark.parametrize("h", [0.05, 0.031])
    def test_matches_full_subsample(self, h):
        comp = BallComponent([0.13, -0.07, 0.21], 0.37, dim=3)
        grid = make_support_grid(Domain([comp]), h)
        want = _coverage_subsample(comp, grid.points, h)
        assert 0 < np.count_nonzero((want > 0) & (want < 1)) < len(want) // 2
        np.testing.assert_array_equal(grid.coverage, want)


class TestCappedCoverage2d:
    """2-d cap-bottomed bodies: 24 strips with the exact vertical extent."""

    def test_area_converges_to_oracle(self):
        cap = make_curvature_cap(10.0, 0.2, n=2)
        comp = CappedComponent(cap, apex=[0.013, -0.021])
        lens = integrate(lambda p: np.ones(p.shape[0]), cap.as_graph_region(), tol=1e-12).real
        want = lens + 2.0 * comp.bulk_width * comp.bulk_height
        for h in (0.03, 0.015):
            grid = make_support_grid(Domain([comp]), h)
            assert abs(np.sum(grid.coverage) * h * h - want) <= 1e-6, h


class TestCappedCoverage3d:
    """3-d cap-bottomed bodies run the subsample on the cells they may cut only."""

    def test_matches_full_subsample(self, monkeypatch):
        comp, h = CappedComponent(make_curvature_cap(10.0, 0.2, n=3)), 0.04
        seen = []

        def counted(region, centers, spacing):
            seen.append(centers.shape[0])
            return _coverage_subsample(region, centers, spacing)

        monkeypatch.setattr(geometry, "_coverage_subsample", counted)
        grid = make_support_grid(Domain([comp]), h)
        want = _coverage_subsample(comp, grid.points, h)
        # 1,037 of the 6,800 cells are cut; 1,348 are subsampled.
        cut = np.count_nonzero((want > 0) & (want < 1))
        assert 0 < cut <= sum(seen) <= min(1.5 * cut, 0.2 * len(want))
        np.testing.assert_array_equal(grid.coverage, want)


class TestSeparableSums:
    """Plane-wave sums on the grid's axes against the dense exp(pts @ z.T)."""

    @pytest.mark.parametrize("make_grid", [two_disk_grid, cube_grid])
    def test_sum_and_moments_match_dense(self, make_grid):
        _, grid = make_grid()
        rng = np.random.default_rng(11)
        q, n = 9, len(grid.shape)
        z = 0.3 * rng.normal(size=(q, n)) + 3j * rng.normal(size=(q, n))
        c = rng.normal(size=q) + 1j * rng.normal(size=q)
        rho = rng.normal(size=grid.points.shape[0]) + 1j * rng.normal(size=grid.points.shape[0])
        dense = np.exp(grid.points @ z.T)
        assert rel_err(grid.plane_wave_sum(z, c), dense @ c) < 1e-13
        assert rel_err(grid.plane_wave_moments(z, rho), rho @ dense) < 1e-13

    def test_exponent_dimension_checked(self):
        _, grid = two_disk_grid()
        with pytest.raises(ValueError):
            grid.plane_wave_sum(np.ones((1, 3)), np.ones(1))

    @pytest.mark.parametrize("make_grid", [two_disk_grid, cube_grid])
    def test_incident_on_grid_matches_pointwise(self, make_grid):
        dom, grid = make_grid()
        n = len(grid.shape)
        density = (lambda t: np.cos(2.0 * t) + 0.5j) if n == 2 else (lambda a: np.cos(a[:, 1]))
        rho = np.zeros(n, dtype=complex)
        rho[0], rho[-1] = 1.5j, -1.5
        k, pts = 1.3, grid.points
        direction = np.arange(1.0, n + 1.0)
        herglotz = HerglotzWave(density, n_quad=64)
        z, c = herglotz.terms(k, n)
        for incident, want in (
            (herglotz, np.exp(pts @ z.T) @ c),
            (PlaneWave(direction), np.exp(1j * k * pts @ (direction / np.linalg.norm(direction)))),
            (CgoVector(rho), np.exp(pts @ rho)),
        ):
            scene = MediumScene(dom, 0.2, k, incident)
            assert rel_err(scene.incident_values(grid), want) < 1e-13
            assert rel_err(scene.incident_values(pts), want) < 1e-13

    @pytest.mark.parametrize("make_grid", [two_disk_grid, cube_grid])
    def test_far_field_matches_dense(self, make_grid):
        dom, grid = make_grid()
        n, k = len(grid.shape), 1.1
        direction = np.eye(n)[0]
        scene = MediumScene(dom, 0.3, k, PlaneWave(direction))
        sol = solve_ls(scene, spacing=grid.spacing)
        ff = scattered_far_field(scene, sol, 40)
        density = sol.contrast_eff * sol.u * sol.grid.spacing**n
        phase = np.exp(-1j * k * (ff.directions @ sol.grid.points.T))
        want = -(k**2) * far_field_constant(n, k) * (phase @ density)
        assert rel_err(ff.values, want) < 1e-13


class TestEstimateC0:
    @pytest.mark.parametrize("n, resolution", [(2, 8), (3, 6)])
    def test_matches_dense_svd(self, n, resolution):
        k, R = 0.5, 1.0
        dom = Domain([BallComponent([0.0] * n, R, dim=n)])
        grid = make_support_grid(dom, 2.0 * R / resolution)
        conv = GridConvolver(grid, k)
        live = np.flatnonzero(grid.coverage)
        cols = []
        for cell in live:
            e = np.zeros(grid.coverage.size, dtype=complex)
            e[cell] = 1.0
            cols.append(conv.apply(e)[live])
        kernel = np.column_stack(cols)
        assert np.allclose(kernel, kernel.T, rtol=0.0, atol=1e-15)
        s = np.sqrt(grid.coverage[live])
        want = np.linalg.svd(s[:, None] * kernel * s[None, :], compute_uv=False)[0]
        assert estimate_c0(k, R, n, resolution=resolution) == pytest.approx(want, rel=1e-12)

    def test_suite_value_pinned(self):
        # medium_visibility's call, behind its contraction column k^2 C0 |V|.
        c0 = estimate_c0(0.4, 1.0, 2, resolution=32)
        assert c0 == pytest.approx(0.973587884961861, rel=1e-14)

    @pytest.mark.parametrize("resolution", [1.9, 1, 0, -2, float("nan")])
    def test_resolution_below_two_rejected(self, resolution):
        with pytest.raises(ConfigError, match="resolution"):
            estimate_c0(0.5, 1.0, 2, resolution=resolution)

    def test_grid_consistency(self):
        a = estimate_c0(0.5, 1.0, 2, resolution=32)
        b = estimate_c0(0.5, 1.0, 2, resolution=64)
        assert abs(a - b) <= 0.1 * max(a, b)

    def test_grid_within_cell_budget(self, monkeypatch):
        # resolution 32 puts 34^2 = 1156 cells on the grid.
        monkeypatch.setattr(kernels, "_MAX_CELLS", 1000, raising=False)
        with pytest.raises(NumericalFailure):
            estimate_c0(0.5, 1.0, 2, resolution=32)

    def test_monotone_in_radius(self):
        small = estimate_c0(0.5, 0.5, 2, resolution=40)
        big = estimate_c0(0.5, 1.5, 2, resolution=40)
        assert big > small

    def test_l2_below_h2_mapping_norm(self):
        # Ordering only: for the L2-maximizing probe, the discrete H2
        # quotient of the image dominates the L2 quotient, so the L2
        # operator norm sits below the L2 -> H2 mapping norm.
        k, R = 0.5, 1.0
        dom = Domain([BallComponent([0.0, 0.0], R)])
        grid = make_support_grid(dom, 2.0 * R / 40)
        conv = GridConvolver(grid, k)
        cov = grid.coverage
        w = grid.weights
        h = grid.spacing
        rng = np.random.default_rng(7)
        v = rng.normal(size=cov.size) + 1j * rng.normal(size=cov.size)
        v *= cov > 0
        for _ in range(25):
            av = conv.apply(cov * v)
            v_new = np.conj(conv.apply(cov * np.conj(av)))
            v = v_new / math.sqrt(float(np.sum(w * np.abs(v_new) ** 2)))
        g = conv.apply(cov * v)
        denom = math.sqrt(float(np.sum(w * np.abs(v) ** 2)))
        l2_quotient = math.sqrt(float(np.sum(w * np.abs(g) ** 2))) / denom
        gg = g.reshape(grid.shape)
        dx = np.gradient(gg, h, axis=0)
        dy = np.gradient(gg, h, axis=1)
        dxx = np.gradient(dx, h, axis=0)
        dyy = np.gradient(dy, h, axis=1)
        dxy = np.gradient(dx, h, axis=1)
        h2_quotient = math.sqrt(
            float(
                np.sum(
                    w
                    * (
                        np.abs(g) ** 2
                        + np.abs(dx.ravel()) ** 2
                        + np.abs(dy.ravel()) ** 2
                        + np.abs(dxx.ravel()) ** 2
                        + np.abs(dyy.ravel()) ** 2
                        + 2 * np.abs(dxy.ravel()) ** 2
                    )
                )
            )
        ) / denom
        assert l2_quotient <= h2_quotient


class TestScatteredFarField:
    def test_zero_contrast_zero_far_field(self):
        scene = disk_scene(v0=0.0)
        sol = solve_ls(scene)
        ff = scattered_far_field(scene, sol, 32)
        assert ff.sup_norm() < 1e-14

    def test_matches_mie_series(self):
        k, v0, R = 0.5, 1.0, 1.0
        scene = disk_scene(v0=v0, k=k, R=R)
        sol = solve_ls(scene, spacing=2.2 / 256)
        ff = scattered_far_field(scene, sol, 72)
        mie = mie_disk_far_field(k, R, v0, ff.angles[:, 0])
        err = np.max(np.abs(ff.values - mie)) / np.max(np.abs(mie))
        assert err < 1e-3

    def test_born_regime_first_order(self):
        # Against the Born term with error O((k^2 C0 |V|)^2).
        k, v0, R = 0.5, 0.05, 1.0
        scene = disk_scene(v0=v0, k=k, R=R)
        sol = solve_ls(scene)
        ff = scattered_far_field(scene, sol, 48)
        h2 = sol.grid.spacing**2
        born_density = sol.contrast_eff * sol.u_incident * h2
        phase = np.exp(-1j * k * (ff.directions @ sol.grid.points.T))
        born = -(k**2) * far_field_constant(2, k) * (phase @ born_density)
        small = k * k * 0.9 * v0
        num = np.max(np.abs(ff.values - born))
        assert num <= 2.0 * small * np.max(np.abs(born)) + 1e-12

    def test_reciprocity(self):
        # u_inf(xhat; theta) = u_inf(-theta; -xhat) holds for the discrete
        # system exactly (symmetric kernel), so to solver tolerance.
        k, v0, R = 0.5, 0.8, 1.0
        ang_in = 0.4
        ang_out = 2.1
        ff_sup = []
        vals = []
        for a, b in ((ang_in, ang_out), (ang_out + math.pi, ang_in + math.pi)):
            dom = Domain([BallComponent([0.0, 0.0], R)])
            scene = MediumScene(
                dom, v0, k, PlaneWave([math.cos(a), math.sin(a)])
            )
            sol = solve_ls(scene, tol=1e-12, spacing=2.2 / 128)
            h2 = sol.grid.spacing**2
            xhat = np.array([[math.cos(b), math.sin(b)]])
            phase = np.exp(-1j * k * (xhat @ sol.grid.points.T))
            val = -(k**2) * far_field_constant(2, k) * (
                phase @ (sol.contrast_eff * sol.u * h2)
            )
            vals.append(complex(val[0]))
            ff_sup.append(float(np.abs(val[0])))
        assert abs(vals[0] - vals[1]) <= 1e-6 * max(ff_sup)

    def test_optical_theorem_2d(self):
        # For real contrast: int |u_inf|^2 dphi = -sqrt(8 pi / k)
        # Re(e^{i pi/4} u_inf(theta)), checked to 5 percent.
        k, v0, R = 0.5, 0.4, 1.0
        scene = disk_scene(v0=v0, k=k, R=R)
        sol = solve_ls(scene, spacing=2.2 / 256, tol=1e-12)
        ff = scattered_far_field(scene, sol, 256)
        lhs = ff.l2_norm() ** 2
        forward = ff.values[0]  # direction = incident direction (angle 0)
        rhs = -math.sqrt(8.0 * math.pi / k) * (
            np.exp(1j * math.pi / 4.0) * forward
        ).real
        assert abs(lhs - rhs) <= 0.05 * abs(lhs)


class TestHerglotz:
    def test_constant_density_is_bessel_mode(self):
        from scipy.special import jv as bessel_j

        wave = HerglotzWave(lambda th: np.full(th.shape[0], 1.0 / (2 * math.pi)))
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, -1.0]])
        k = 1.3
        scene = MediumScene(Domain([BallComponent([0.0, 0.0], 1.0)]), 0.0, k, wave)
        got = scene.incident_values(pts)
        want = np.array(
            [bessel_j(0, k * np.linalg.norm(p)) for p in pts], dtype=complex
        )
        assert np.max(np.abs(got - want)) < 1e-12


class TestVisibilityComparator:
    def test_plane_wave_constant_contrast(self):
        scene = disk_scene(v0=0.3, k=0.5, R=0.5)
        got = scatter_visibility_ratio(scene, 0.5)
        assert abs(got - 0.3 / 1.0) < 1e-9  # diam = 1

    def test_shrinking_disks_ratio_grows(self):
        ratios = []
        sups = []
        for R in (1.0, 0.5, 0.25, 0.125):
            scene = disk_scene(v0=0.1, k=0.5, R=R)
            ratios.append(scatter_visibility_ratio(scene, 0.5))
            sol = solve_ls(scene, spacing=R / 24)
            sups.append(scattered_far_field(scene, sol, 32).sup_norm())
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert min(sups) > 1e-8  # visible at every size
