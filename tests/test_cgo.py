"""Closed-form paraboloid integrals against the adaptive oracle."""

import math

import numpy as np
import pytest

from invisiscat.cgo import (
    CgoVector,
    cgo_over_parabola,
    cgo_sliced,
    cgo_tail_bound,
    cgo_weighted_cap_bound,
    curvature_estimate_rhs,
    identity_split_terms,
)
from invisiscat.geometry import make_curvature_cap
from invisiscat.holder import PrecondViolated
from invisiscat.manufactured import CapBump
from invisiscat.quadrature import (
    AnnularParaboloid,
    Box,
    ParaboloidCap,
    integrate,
)


def random_cgo(rng, n, tau_range=(0.5, 20.0)):
    """rho = t(u + iv) with |u| = |v|, u.v = 0, flipped so Re rho_n < 0."""
    while True:
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        v -= (v @ u) * u / (u @ u)
        if np.linalg.norm(v) < 1e-8:
            continue
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        if abs(u[-1]) < 0.2:
            continue
        t = rng.uniform(*tau_range)
        rho = t * (u + 1j * v)
        if rho[-1].real > 0:
            rho = -rho.conj()  # flips real part, keeps rho.rho = 0
        if rho[-1].real < 0:
            return CgoVector(rho)


class TestCgoVector:
    def test_canonical(self):
        v = CgoVector.canonical(3.0, 2)
        assert v.tau == 3.0
        assert abs(np.sum(v.rho * v.rho)) < 1e-12

    def test_rejects_non_null(self):
        with pytest.raises(ValueError):
            CgoVector(np.array([1.0 + 0j, -1.0]))

    def test_rejects_growing(self):
        with pytest.raises(ValueError):
            CgoVector(np.array([1j, 1.0]))


class TestOverParabola:
    def test_unit_case_matches_reference_value(self):
        v = CgoVector.canonical(1.0, 2)
        got = cgo_over_parabola(v, 1.0)
        assert abs(got - math.sqrt(math.pi) * math.exp(-0.25)) < 1e-14
        assert abs(got - 1.380388) < 1e-6

    def test_oracle_unit_case(self):
        v = CgoVector.canonical(1.0, 2)
        want = cgo_over_parabola(v, 1.0)
        got = integrate(v.field, ParaboloidCap(1.0, dim=2, decay_rate=1.0), tol=1e-10)
        assert abs(got - want) < 1e-8 * abs(want)

    def test_oracle_logweighted_tau(self):
        K = 10.0
        tau = 4.0 * K * math.log(K)
        v = CgoVector.canonical(tau, 2)
        want = cgo_over_parabola(v, K)
        tol = 1e-9 * abs(want) / (1.0 + abs(want))
        got = integrate(
            v.field, ParaboloidCap(K, dim=2, decay_rate=tau), tol=tol
        )
        assert abs(got - want) < 1e-8 * abs(want)

    def test_exact_homogeneity(self):
        # From the formula: value(c tau, c K) = c^-n value(tau, K).
        for n in (2, 3):
            for c in (2.0, 5.5):
                v1 = cgo_over_parabola(CgoVector.canonical(1.7, n), 0.9)
                v2 = cgo_over_parabola(CgoVector.canonical(c * 1.7, n), c * 0.9)
                assert abs(v2 * c**n - v1) < 1e-12 * abs(v1)

    def test_random_rho_against_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(5):
                v = random_cgo(rng, n, tau_range=(0.5, 6.0))
                K = float(rng.uniform(0.5, 8.0))
                want = cgo_over_parabola(v, K)
                tol = 1e-9 * abs(want) / (1.0 + abs(want))
                got = integrate(
                    v.field,
                    ParaboloidCap(K, dim=n, decay_rate=v.tau),
                    tol=max(tol, 1e-13),
                )
                assert abs(got - want) <= 1e-8 * abs(want)

    def test_diverging_direction_rejected(self):
        with pytest.raises(ValueError):
            cgo_over_parabola(np.array([1j, 1.0]), 1.0)


class TestComplexGaussianBuildingBlock:
    def test_random_complex_gaussian(self):
        # int_R exp(A t^2 + B t) dt = sqrt(-pi/A) exp(-B^2/(4A)), Re A < 0.
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = complex(-rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            B = complex(rng.normal(), rng.normal())
            want = np.sqrt(-math.pi / A) * np.exp(-B * B / (4.0 * A))
            cut = 14.0 / math.sqrt(-A.real)

            def f(pts):
                t = pts[:, 0]
                return np.exp(A * t * t + B * t)

            got = integrate(f, Box([-cut], [cut]), tol=1e-10)
            assert abs(got - want) < 1e-8 * (1.0 + abs(want))


class TestTailBound:
    def test_dominates_oracle(self):
        v = CgoVector.canonical(1.0, 2)
        tail = integrate(
            v.field, ParaboloidCap(1.0, floor=1.0, dim=2, decay_rate=1.0), tol=1e-10
        )
        assert cgo_tail_bound(1.0, 1.0, 1.0, 2) >= abs(tail)

    def test_vanishes_for_tall_cuts(self):
        vals = [cgo_tail_bound(1.0, 1.0, h, 2) for h in (1.0, 5.0, 20.0, 80.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-30

    def test_dominates_exact_tail_3d(self):
        # n=3 exact: int_h^inf e^{-tau s} pi s / K ds
        #          = (pi/K) (h/tau + 1/tau^2) e^{-tau h}.
        for tau, K, h in [(1.0, 1.0, 1.0), (2.0, 3.0, 0.5), (0.7, 10.0, 2.0)]:
            exact = (math.pi / K) * (h / tau + 1.0 / tau**2) * math.exp(-tau * h)
            assert cgo_tail_bound(tau, K, h, 3) >= exact

    def test_random_domination(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            tau = float(rng.uniform(0.3, 10.0))
            K = float(rng.uniform(0.3, 30.0))
            h = float(rng.uniform(0.05, 3.0))
            tail = integrate(
                lambda p: np.exp(-tau * p[:, -1]),
                ParaboloidCap(K, floor=h, dim=n, decay_rate=tau),
                tol=1e-9,
            )
            assert cgo_tail_bound(tau, K, h, n) >= abs(tail) * (1.0 - 1e-8)


class TestSliced:
    def test_empty_when_equal(self):
        assert cgo_sliced(1.0, 2.0, 2.0, 1.0, 2) == 0.0

    def test_shell_additivity(self):
        # Nested shells telescope: (K_-, K_m) + (K_m, K_+) = (K_-, K_+).
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.floats(min_value=0.3, max_value=10.0),
            st.floats(min_value=1.01, max_value=3.0),
            st.floats(min_value=1.01, max_value=3.0),
            st.floats(min_value=0.2, max_value=5.0),
            st.integers(min_value=2, max_value=3),
        )
        @settings(max_examples=60, deadline=None)
        def inner(km, f1, f2, tau, n):
            km_mid = km * f1
            kp = km_mid * f2
            whole = cgo_sliced(tau, km, kp, 1.0, n)
            parts = cgo_sliced(tau, km, km_mid, 1.0, n) + cgo_sliced(
                tau, km_mid, kp, 1.0, n
            )
            assert abs(whole - parts) <= 1e-12 * (1.0 + abs(whole))

        inner()

    def test_reference_case(self):
        from scipy.special import gamma, gammainc

        got = cgo_sliced(1.0, 1.0, 2.0, 1.0, 2)
        want = 2.0 * (1.0 - 1.0 / math.sqrt(2.0)) * gamma(1.5) * gammainc(1.5, 1.0)
        assert abs(got - want) < 1e-14

    def test_oracle_reference_case(self):
        got = cgo_sliced(1.0, 1.0, 2.0, 1.0, 2)
        orc = integrate(
            lambda p: np.exp(-p[:, -1]),
            AnnularParaboloid(1.0, 2.0, 1.0, dim=2),
            tol=1e-10,
        )
        assert abs(got - orc) < 1e-9 * abs(got)

    def test_monotone_limit_to_gamma(self):
        from math import gamma as gamma_fn

        from invisiscat.quadrature import sphere_measure

        vals = [cgo_sliced(tau, 1.0, 3.0, 50.0 / tau, 2) for tau in (1.0, 1.0)]
        assert vals[0] == vals[1]
        seq = [cgo_sliced(1.0, 1.0, 3.0, h, 2) for h in (1.0, 5.0, 20.0, 60.0)]
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        lim = (
            sphere_measure(0)
            * (1.0 - 3.0 ** -0.5)
            * gamma_fn(1.5)
        )
        assert abs(seq[-1] - lim) < 1e-12

    def test_random_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            km = float(rng.uniform(0.3, 5.0))
            kp = km * float(rng.uniform(1.05, 4.0))
            tau = float(rng.uniform(0.3, 5.0))
            h = float(rng.uniform(0.1, 2.0))
            want = cgo_sliced(tau, km, kp, h, n)
            got = integrate(
                lambda p: np.exp(-tau * p[:, -1]),
                AnnularParaboloid(km, kp, h, dim=n),
                tol=1e-9,
            )
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


class TestWeightedCapBound:
    def test_tau_zero_limit_exceeds_volume(self):
        K, h, n = 2.0, 0.8, 2
        vol = integrate(
            lambda p: np.ones(p.shape[0]), ParaboloidCap(K, h, dim=n), tol=1e-10
        )
        assert cgo_weighted_cap_bound(1e-9, K, h, 0.0, n) >= abs(vol)

    def test_reference_case_dominates(self):
        tau, K, h, s, n = 1.0, 4.0, 0.25, 0.5, 2

        def f(p):
            return np.exp(-tau * p[:, -1]) * np.sum(p * p, axis=1) ** (s / 2.0)

        orc = integrate(f, ParaboloidCap(K, h, dim=n), tol=1e-9)
        assert cgo_weighted_cap_bound(tau, K, h, s, n) >= abs(orc)

    def test_monotone_in_h(self):
        vals = [cgo_weighted_cap_bound(1.0, 2.0, h, 1.0, 2) for h in (0.1, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_random_domination(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            tau = float(rng.uniform(0.1, 5.0))
            K = float(rng.uniform(0.5, 20.0))
            h = float(rng.uniform(0.05, 2.0))
            s = float(rng.uniform(0.0, 2.0))

            def f(p):
                return np.exp(-tau * p[:, -1]) * np.sum(p * p, axis=1) ** (s / 2.0)

            orc = integrate(f, ParaboloidCap(K, h, dim=n), tol=1e-8)
            assert cgo_weighted_cap_bound(tau, K, h, s, n) >= abs(orc) * (1 - 1e-8)


class TestIdentitySplit:
    def test_zero_fields(self):
        class Zero:
            def value(self, p):
                return np.zeros(p.shape[0])

            def grad(self, p):
                return np.zeros_like(p)

            def phi(self, p, k):
                return np.zeros(p.shape[0])

        cap = make_curvature_cap(5.0, 0.0)
        lhs, i1, i2, i3, i4 = identity_split_terms(
            Zero(), cap, CgoVector.canonical(10.0, 2), 1.0
        )
        assert lhs == 0 and i3 == 0 and i4 == 0

    def test_pure_paraboloid_identity(self):
        cap = make_curvature_cap(5.0, 0.0)
        bump = CapBump(cap)
        rho = CgoVector.canonical(10.0, 2)
        lhs, i1, i2, i3, i4 = identity_split_terms(
            bump, cap, rho, 1.0, spacing=cap.h / 192
        )
        phi0 = complex(bump.phi(np.zeros((1, 2)), 1.0)[0])
        resid = abs(lhs - (phi0 * (i1 + i2) + i3 + i4))
        assert resid < 1e-6

    def test_perturbed_cap_identity(self):
        cap = make_curvature_cap(8.0, 0.3, L=1.0, M=2.0, delta=0.5)
        bump = CapBump(cap)
        rho = CgoVector.canonical(10.0, 2)
        lhs, i1, i2, i3, i4 = identity_split_terms(
            bump, cap, rho, 1.0, spacing=cap.h / 192
        )
        phi0 = complex(bump.phi(np.zeros((1, 2)), 1.0)[0])
        resid = abs(lhs - (phi0 * (i1 + i2) + i3 + i4))
        assert resid < 1e-5

    def test_identity_3d(self):
        cap = make_curvature_cap(6.0, 0.1, n=3)
        bump = CapBump(cap)
        rho = CgoVector.canonical(8.0, 3)
        lhs, i1, i2, i3, i4 = identity_split_terms(
            bump, cap, rho, 1.0, spacing=cap.h / 48
        )
        phi0 = complex(bump.phi(np.zeros((1, 3)), 1.0)[0])
        resid = abs(lhs - (phi0 * (i1 + i2) + i3 + i4))
        assert resid < 1e-4 * max(1.0, abs(lhs))

    def test_precondition_rejects_nonvanishing_w(self):
        cap = make_curvature_cap(5.0, 0.0)

        class Bad:
            def value(self, p):
                return np.ones(p.shape[0])

            def grad(self, p):
                return np.zeros_like(p)

            def phi(self, p, k):
                return np.full(p.shape[0], k * k)

        with pytest.raises(PrecondViolated):
            identity_split_terms(Bad(), cap, CgoVector.canonical(5.0, 2), 1.0)

    def test_refinement_order(self):
        cap = make_curvature_cap(5.0, 0.0)
        bump = CapBump(cap)
        rho = CgoVector.canonical(10.0, 2)
        phi0 = complex(bump.phi(np.zeros((1, 2)), 1.0)[0])
        res = []
        for div in (24, 48, 96):
            lhs, i1, i2, i3, i4 = identity_split_terms(
                bump, cap, rho, 1.0, spacing=cap.h / div
            )
            res.append(abs(lhs - (phi0 * (i1 + i2) + i3 + i4)))
        assert math.log2(res[0] / res[1]) >= 1.8
        assert math.log2(res[1] / res[2]) >= 1.8


class TestCurvatureBound:
    def test_regression_lock_at_e(self):
        got = curvature_estimate_rhs(math.e, 0.5, 0.5, 1.0, 2.0, 2, 1.0)
        want = math.exp(-0.75) + 3.0 * math.exp(-0.25)
        assert abs(got - want) < 1e-14
        assert abs(got - 2.8087689019552293) < 1e-12

    def test_domain_error_below_e(self):
        with pytest.raises(ValueError):
            curvature_estimate_rhs(2.0, 0.5, 0.5, 1.0, 2.0, 2, 1.0)

    def test_decay_from_hundred_to_million(self):
        lo = curvature_estimate_rhs(1e6, 0.75, 0.75, 1.0, 2.0, 2, 1.0)
        hi = curvature_estimate_rhs(1e2, 0.75, 0.75, 1.0, 2.0, 2, 1.0)
        assert lo < hi

    def test_dominated_by_envelope(self):
        # sum <= C (ln K)^((n+3)/2) K^(-mu/2) on [e, 1e6] with a single C.
        alpha = delta = 0.5
        mu = min(alpha, delta)
        n = 2
        Ks = np.exp(np.linspace(1.0, math.log(1e6), 200))
        ratios = []
        for K in Ks:
            env = math.log(K) ** ((n + 3) / 2.0) * K ** (-mu / 2.0)
            ratios.append(
                curvature_estimate_rhs(K, alpha, delta, 1.0, 2.0, n, 1.0) / env
            )
        assert max(ratios) < 4.0 + 1e-9  # four terms each below the envelope
