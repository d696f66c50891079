"""Radial transmission eigenproblem and curvature probes."""

import numpy as np
import pytest
from scipy.special import jv, jvp, spherical_jn

from invisiscat import transmission
from invisiscat.geometry import BallComponent, CappedComponent, CurvatureCap, Domain
from invisiscat.holder import sample_on_grid
from invisiscat.medium import HerglotzWave, MediumScene, scattered_far_field, solve_ls
from invisiscat.transmission import (
    EigenPair,
    NoneFound,
    RadialITP,
    boundary_vanishing_ratio,
    eigen_incident_density,
    find_eigenvalues,
    itp_determinant,
)

from checks import (
    curvature_vanishing_probe,
    manufactured_itp_field,
    matching_defect,
    versions_match_manifest,
)

REFERENCE_K1 = 0.993997561886  # first m=0 eigenvalue for R=1, v0=15, n=2


class TestDeterminant:
    def test_rejects_degenerate_contrast(self):
        with pytest.raises(ValueError):
            RadialITP(R=1.0, v0=0.0)

    @pytest.mark.parametrize("params", [
        {"R": float("nan"), "v0": 15.0},
        {"R": float("inf"), "v0": 15.0},
        {"R": 1.0, "v0": float("nan")},
    ], ids=["R_nan", "R_inf", "v0_nan"])
    def test_rejects_bad_parameters(self, params):
        with pytest.raises(ValueError):
            RadialITP(**params)

    def test_reference_root(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pairs = find_eigenvalues(itp, 1.2)
        assert abs(pairs[0].k_eig - REFERENCE_K1) < 1e-9

    def test_scan_refinement_stability(self):
        itp = RadialITP(R=1.0, v0=15.0)
        a = find_eigenvalues(itp, 1.2, scan_steps=2048)[0].k_eig
        b = find_eigenvalues(itp, 1.2, scan_steps=8192)[0].k_eig
        assert abs(a - b) < 1e-8

    def test_radius_scaling_law(self):
        itp1 = RadialITP(R=1.0, v0=15.0)
        itp2 = RadialITP(R=2.0, v0=15.0)
        k1 = find_eigenvalues(itp1, 1.2)[0].k_eig
        k2 = find_eigenvalues(itp2, 0.6)[0].k_eig
        assert abs(k2 - k1 / 2.0) < 1e-9

    def test_determinant_value_at_root(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        assert abs(itp_determinant(itp, pair.k_eig)) < 1e-9

    def test_spherical_case_roots(self):
        itp = RadialITP(R=1.0, v0=15.0, n=3)
        pairs = find_eigenvalues(itp, 2.0)
        assert pairs, "expected at least one 3-d eigenvalue"
        for p in pairs:
            assert abs(itp_determinant(itp, p.k_eig)) < 1e-9

    def test_none_found(self):
        itp = RadialITP(R=1.0, v0=15.0)
        with pytest.raises(NoneFound):
            find_eigenvalues(itp, 0.2)

    @pytest.mark.parametrize(
        "scene, k_max, modes",
        [
            (dict(R=1.0, v0=15.0, n=3), 4.0, [0, 1, 2]),
            (dict(R=1.0, v0=15.0, n=2), 4.0, [0, 1, 2]),
            (dict(R=2.0, v0=15.0, n=2), 2.0, [0]),
            (dict(R=1.3, v0=40.0, n=2), 6.0, [0, 1, 2, 3, 5]),
        ],
        ids=["3d", "2d", "2d_R2", "many_roots"],
    )
    def test_roots_bisected_to_adjacent_floats(self, scene, k_max, modes):
        # n = 3, mode 0 has a triple zero at k = pi, where j_0(k) and
        # j_0(4k) vanish together.  Near it the determinant rounds to
        # exact zeros on a plateau, so a solver that stops at the first
        # exact zero lands outside the 1e-9 bracket.
        itp = RadialITP(**scene)
        steps = 2048
        pairs = find_eigenvalues(itp, k_max, modes=modes)
        if itp.n == 3:
            assert any(p.mode == 0 and abs(p.k_eig - np.pi) < 1e-8 * np.pi for p in pairs)
        for p in pairs:
            lo, hi = itp_determinant(itp, [p.k_eig * (1 - 1e-9), p.k_eig * (1 + 1e-9)], p.mode)
            assert lo * hi <= 0.0, (p.mode, p.k_eig)

        def fixed_step_bisection(f, lo, hi):
            f_lo = f(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f_mid = f(mid)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            return 0.5 * (lo + hi)

        ks = np.linspace(k_max / steps, k_max, steps)
        want = []
        for m in modes:
            vals = itp_determinant(itp, ks, m)
            assert np.array_equal(vals, [itp_determinant(itp, float(k), m) for k in ks])
            det = lambda k, m=m: itp_determinant(itp, k, m)
            for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
                want.append((fixed_step_bisection(det, float(ks[i]), float(ks[i + 1])), m))
        assert sorted(want) == [(p.k_eig, p.mode) for p in pairs]
        assert all(type(p.k_eig) is float and type(p.mode) is int for p in pairs)

    def test_array_modes_match_scalar_calls(self):
        itp = RadialITP(R=1.0, v0=15.0, n=3)
        ks = np.linspace(0.1, 4.0, 7)
        modes = np.array([0, 1, 2])
        grid = itp_determinant(itp, ks, modes[:, None])
        assert np.array_equal(grid, [itp_determinant(itp, ks, int(m)) for m in modes])
        paired = itp_determinant(itp, ks[:3], modes)
        assert np.array_equal(paired, [itp_determinant(itp, ks[i], int(modes[i])) for i in range(3)])

    def test_lockstep_bisection_call_count(self, monkeypatch):
        # One scan call, then one call per halving step for all brackets
        # together: about 45, where bisecting root by root takes about 400.
        calls = []
        determinant = transmission.itp_determinant
        monkeypatch.setattr(
            transmission, "itp_determinant", lambda *a, **kw: calls.append(1) or determinant(*a, **kw)
        )
        pairs = find_eigenvalues(RadialITP(R=1.0, v0=15.0, n=3), 4.0, modes=[0, 1, 2])
        assert len(pairs) == 9
        assert len(calls) <= 64

    @pytest.mark.parametrize(
        "R, n, k_max, modes",
        [
            (1.0, 2, 4.0, [0, 1, 2]),
            (1.0, 3, 4.0, [0, 1, 2]),
            (2.0, 2, 2.0, [0]),
            (1.0, 2, 4.0, [0, 4, 7]),
            (1.0, 3, 4.0, [0, 4, 7]),
        ],
        ids=["scan_2d", "scan_3d", "scan_2d_R2", "2d_modes_0_4_7", "3d_modes_0_4_7"],
    )
    def test_matches_scipy_derivative_formula(self, R, n, k_max, modes):
        # The first three are the benchmark's scans (fields_spectra), on
        # find_eigenvalues' grid.  With the corpus' numpy and scipy the
        # values are the bytes of scipy's jv/jvp (spherical_jn with
        # derivative=True in 3-D); elsewhere within 4 ulps of the terms.
        itp = RadialITP(R=R, v0=15.0, n=n)
        ks = np.linspace(k_max / 2048, k_max, 2048)
        m = np.array(modes)[:, None]

        def radial(x):
            if n == 2:
                return jv(m, x), jvp(m, x)
            return spherical_jn(m, x), spherical_jn(m, x, derivative=True)

        k1 = ks * itp.index_ratio
        (f, fp), (f1, fp1) = radial(ks * R), radial(k1 * R)
        a, b = f * k1 * fp1, f1 * ks * fp
        got = itp_determinant(itp, ks, m)
        if versions_match_manifest():
            assert got.tobytes() == (a - b).tobytes()
        else:
            assert np.all(np.abs(got - (a - b)) <= 4 * np.finfo(float).eps * (abs(a) + abs(b)))

    def test_scan_sends_each_order_once_to_jv(self, monkeypatch):
        # Modes 0, 1, 2 need orders 0..3 (J_{-1} = -J_1): 4 orders at the
        # 2 arguments kR, k1R of each of 2048 wavenumbers, in one call,
        # where jv and jvp per mode took 18 evaluations per wavenumber.
        sizes = []

        def counted(order, x):
            sizes.append(np.broadcast(order, x).size)
            return jv(order, x)

        monkeypatch.setattr(transmission, "jv", counted)
        ks = np.linspace(4.0 / 2048, 4.0, 2048)
        itp_determinant(RadialITP(R=1.0, v0=15.0), ks, np.array([0, 1, 2])[:, None])
        assert sizes == [4 * 2 * 2048]

    def test_duplicate_modes_scanned_once(self):
        itp = RadialITP(R=1.0, v0=15.0)
        once = find_eigenvalues(itp, 4.0, modes=[0, 2])
        twice = find_eigenvalues(itp, 4.0, modes=[2, 0, 0, 2])
        assert [(p.k_eig, p.mode) for p in twice] == [(p.k_eig, p.mode) for p in once]

    @pytest.mark.parametrize(
        "k_max, modes",
        [(float("nan"), None), (float("inf"), None), (4.0, [-1]), (4.0, [0.5])],
        ids=["k_max_nan", "k_max_inf", "mode_negative", "mode_fraction"],
    )
    def test_rejects_bad_input(self, k_max, modes):
        with pytest.raises(ValueError):
            find_eigenvalues(RadialITP(R=1.0, v0=15.0), k_max, modes=modes)


class TestEigenPairs:
    def test_matching_at_boundary(self):
        itp = RadialITP(R=1.0, v0=15.0)
        for pair in find_eigenvalues(itp, 3.5, modes=[0, 1, 2]):
            assert matching_defect(pair) < 1e-6

    def test_ode_residuals(self):
        # u'' + u'/r + (k1^2 - m^2/r^2) u = 0, via 4th-order differences.
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        h = 1e-3
        r = np.linspace(0.2, 0.95, 31)
        for fn, kk in ((pair.u, pair.k_eig * itp.index_ratio), (pair.w, pair.k_eig)):
            vals = {s: fn(r + s * h) for s in (-2, -1, 0, 1, 2)}
            d1 = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h)
            d2 = (
                -vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]
            ) / (12 * h * h)
            resid = d2 + d1 / r + (kk * kk - pair.mode**2 / r**2) * vals[0]
            assert np.max(np.abs(resid)) < 1e-8 * max(1.0, kk * kk)

    def test_smallest_eigenvalue_scaling(self):
        ks = []
        for R in (1.0, 0.5, 0.25):
            itp = RadialITP(R=R, v0=15.0)
            ks.append(find_eigenvalues(itp, 1.2 / R)[0].k_eig)
        assert ks[1] > ks[0] and ks[2] > ks[1]
        assert abs(ks[1] - 2 * ks[0]) < 1e-8 and abs(ks[2] - 4 * ks[0]) < 1e-8


class TestBoundaryVanishing:
    def test_constant_contrast_ratio(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        got = boundary_vanishing_ratio(pair, 0.5)
        # Direct recomputation: |u(R)| / (norm * (2R)^alpha).
        assert got > 0

    def test_normalization_invariance(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        base = boundary_vanishing_ratio(pair, 0.5)
        scaled = EigenPair(
            k_eig=pair.k_eig,
            mode=pair.mode,
            itp=itp,
            w=lambda r: 2.0 * pair.w(r),
            u=lambda r: 2.0 * pair.u(r),
            w_deriv=lambda r: 2.0 * pair.w_deriv(r),
            u_deriv=lambda r: 2.0 * pair.u_deriv(r),
        )
        assert abs(boundary_vanishing_ratio(scaled, 0.5) - base) < 1e-12

    @pytest.mark.parametrize("n, mode", [(2, 0), (2, 1), (3, 2)])
    def test_samples_the_grid_nodes_of_the_ball(self, monkeypatch, n, mode):
        # The Hoelder norm sees u(|x|) e^{i m theta} on exactly the nodes
        # holder.sample_on_grid keeps on the problem's own ball.
        itp = RadialITP(R=0.75, v0=15.0, n=n)
        pair = find_eigenvalues(itp, 6.0, modes=[mode])[0]
        seen = []
        monkeypatch.setattr(transmission, "holder_norm", lambda f, alpha: seen.append(f) or 1.0)
        spacing = itp.R / 10
        boundary_vanishing_ratio(pair, 0.5, spacing=spacing)
        ball = Domain([BallComponent(np.zeros(n), itp.R, dim=n)])
        want = sample_on_grid(ball, lambda p: np.zeros(p.shape[0]), spacing).points
        (got,) = seen
        assert got.spacing == spacing
        assert np.array_equal(got.points, want)
        r = np.linalg.norm(want, axis=1)
        theta = np.arctan2(want[:, 1], want[:, 0])
        assert np.allclose(got.values, pair.u(r) * np.exp(1j * mode * theta), rtol=1e-14, atol=0)

    def test_shrinking_family_bounded(self):
        ratios = []
        for R in (1.0, 0.5, 0.25):
            itp = RadialITP(R=R, v0=15.0)
            pair = find_eigenvalues(itp, 1.2 / R)[0]
            ratios.append(boundary_vanishing_ratio(pair, 0.5, spacing=R / 24))
        # Scale invariance of the normalized ratio: a single constant
        # bounds the family.
        assert max(ratios) <= 2.0 * min(ratios)


class TestNonScatteringConsistency:
    def test_eigen_incident_wave_is_silent(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        dom = Domain([BallComponent([0.0, 0.0], itp.R)])
        wave = HerglotzWave(eigen_incident_density(pair), n_quad=128)
        scene = MediumScene(dom, itp.v0, pair.k_eig, wave)
        sol = solve_ls(scene, tol=1e-11, spacing=2.2 / 384)
        ff = scattered_far_field(scene, sol, 64)
        w_sup = float(np.max(np.abs(pair.w(np.linspace(0, itp.R, 200)))))
        assert ff.sup_norm() < 1e-3 * w_sup

    def test_off_eigen_wave_scatters(self):
        itp = RadialITP(R=1.0, v0=15.0)
        pair = find_eigenvalues(itp, 1.2)[0]
        dom = Domain([BallComponent([0.0, 0.0], itp.R)])
        wave = HerglotzWave(eigen_incident_density(pair), n_quad=128)
        k_off = pair.k_eig * 1.07
        scene = MediumScene(dom, itp.v0, k_off, wave)
        sol = solve_ls(scene, tol=1e-11, spacing=2.2 / 384)
        ff = scattered_far_field(scene, sol, 64)
        w_sup = float(np.max(np.abs(pair.w(np.linspace(0, itp.R, 200)))))
        assert ff.sup_norm() > 1e-2 * w_sup


class TestCurvatureProbe:
    def test_manufactured_pair_below_envelope(self):
        for K in (10.0, 100.0, 1000.0):
            cap = CurvatureCap(K, 0.0, L=1.0, M=2.0, delta=0.75)
            comp = CappedComponent(cap)
            u_fn, _ = manufactured_itp_field(comp, 15.0, 1.0)
            rep = curvature_vanishing_probe(comp, 15.0, 1.0, u_fn, alpha=0.75,
                                            calibration=1.0)
            assert rep.u_at_apex <= rep.envelope

    def test_vanishing_u_trivially_satisfied(self):
        cap = CurvatureCap(10.0, 0.0)
        comp = CappedComponent(cap)
        u_fn = lambda pts: np.sum((pts - comp.apex) ** 2, axis=1)  # u(p) = 0
        rep = curvature_vanishing_probe(comp, 1.0, 1.0, u_fn, alpha=0.5)
        assert rep.u_at_apex < 1e-12
        assert rep.satisfied

    def test_envelope_decreasing_on_tail(self):
        # The bound peaks near ln K = (n+3)/min(alpha, delta); with
        # alpha = delta = 0.75 it decays strictly from K = 1e3 on, and
        # the decade-scale comparison value(1e6) < value(1e2) holds.
        from invisiscat.cgo import curvature_estimate_rhs

        vals = [
            curvature_estimate_rhs(K, 0.75, 0.75, 2)
            for K in (1e3, 1e4, 1e5, 1e6)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert curvature_estimate_rhs(1e6, 0.75, 0.75, 2) < curvature_estimate_rhs(
            1e2, 0.75, 0.75, 2
        )
