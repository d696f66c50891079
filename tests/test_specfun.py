"""Accuracy of the special functions the package calls.

The package evaluates Bessel, Hankel and gamma functions with
``scipy.special`` and ``math.gamma``, and the planar Helmholtz kernel as
J_0 + i Y_0 with the real-argument ``j0``/``y0``;
``quadrature.sphere_measure`` is its own closed form.  Independent references: mpmath's arbitrary
precision evaluations, direct quadrature of defining integrals, closed
forms and the Wronskian identity.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from invisiscat.kernels import green_disk_integral, green_kernel
from invisiscat.quadrature import sphere_measure

# Working precision of the mpmath references: five digits beyond double,
# far below every tolerance checked here.
MP_DPS = 20


def mp_jv(nu, x):
    with mpmath.workdps(MP_DPS):
        return float(mpmath.besselj(float(nu), float(x)))


def mp_yv(nu, x):
    with mpmath.workdps(MP_DPS):
        return float(mpmath.bessely(float(nu), float(x)))


def mp_spherical_jn(m, x, derivative=False):
    # j_m(x) = sqrt(pi/(2x)) J_(m+1/2)(x), so
    # j_m'(x) = sqrt(pi/(2x)) (J_(m+1/2)'(x) - J_(m+1/2)(x)/(2x)).
    with mpmath.workdps(MP_DPS):
        x = mpmath.mpf(float(x))
        nu = mpmath.mpf(m) + mpmath.mpf(1) / 2
        pref = mpmath.sqrt(mpmath.pi / (2 * x))
        if not derivative:
            return float(pref * mpmath.besselj(nu, x))
        return float(
            pref * (mpmath.besselj(nu, x, derivative=1) - mpmath.besselj(nu, x) / (2 * x))
        )


def lower_incomplete_gamma(x, a):
    """gamma(x, a) = int_0^x exp(-t) t^(a-1) dt, as ``cgo.cgo_sliced`` forms it."""
    return math.gamma(a) * float(scipy.special.gammainc(a, x))


def bisect_root(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert scipy.special.jv(0, 0.0) == 1.0

    def test_j1_at_zero(self):
        assert scipy.special.jv(1, 0.0) == 0.0

    def test_first_zero_of_j1(self):
        root = bisect_root(lambda x: scipy.special.jv(1, x), 3.5, 4.2)
        assert abs(root - 3.8317059702) < 1e-9
        assert abs(scipy.special.jv(1, 3.8317059702)) < 1e-9

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 0.5, 1.5])
    def test_against_scipy_sweep(self, nu):
        # scipy's jv against mpmath over the sweep.
        amp = lambda x: math.sqrt(2.0 / (math.pi * x))
        for x in np.linspace(0.05, 100.0, 331):
            ref = mp_jv(nu, x)
            got = scipy.special.jv(nu, x)
            assert abs(got - ref) <= 1e-12 * max(abs(ref), amp(x))

    def test_quadrature_oracle_integer_order(self):
        # Bessel integral: J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(0, 6))
            x = float(rng.uniform(0.01, 40.0))
            ref, _ = scipy.integrate.quad(
                lambda t: math.cos(n * t - x * math.sin(t)), 0.0, math.pi,
                limit=200, epsabs=1e-14, epsrel=1e-13,
            )
            ref /= math.pi
            scale = max(abs(ref), math.sqrt(2.0 / (math.pi * max(x, 1e-6))))
            assert abs(scipy.special.jv(n, x) - ref) <= 1e-9 * scale


class TestBesselY:
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 0.5, 1.5])
    def test_against_scipy_sweep(self, nu):
        # scipy's yv against mpmath over the sweep.
        for x in np.linspace(0.05, 100.0, 331):
            ref = mp_yv(nu, x)
            got = scipy.special.yv(nu, x)
            scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
            assert abs(got - ref) <= 1e-11 * scale


class TestHankel1:
    def test_half_order_closed_form(self):
        # H^(1)_{1/2}(x) = -i sqrt(2/(pi x)) e^{ix}
        for x in [0.3, 1.0, math.pi, 17.0]:
            want = -1j * math.sqrt(2.0 / (math.pi * x)) * np.exp(1j * x)
            got = scipy.special.hankel1(0.5, x)
            assert abs(got - want) < 1e-13 * abs(want)

    def test_half_order_at_pi(self):
        want = -1j * math.sqrt(2.0 / math.pi**2) * np.exp(1j * math.pi)
        assert abs(scipy.special.hankel1(0.5, math.pi) - want) < 1e-13

    def test_j_component_consistency(self):
        h = scipy.special.hankel1(0, 1.0)
        assert abs(h.real - scipy.special.jv(0, 1.0)) < 1e-12

    def test_log_divergence_near_zero(self):
        vals = [abs(scipy.special.hankel1(0, 10.0**-p)) for p in range(2, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # Logarithmic trend: increments of |H| per decade approach 2/pi ln10.
        inc = np.diff(vals)
        assert abs(inc[-1] - 2.0 / math.pi * math.log(10.0)) < 1e-2


class TestPlanarKernel:
    @pytest.mark.parametrize("k", [0.5, 2.0, 7.3])
    def test_matches_complex_argument_hankel(self, k):
        kr = np.concatenate([np.geomspace(1e-4, 60.0, 4001), np.linspace(1e-4, 60.0, 4001)])
        want = -0.25j * scipy.special.hankel1(0, kr)
        got = green_kernel(2, k, kr / k)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))



def mp_disk_integral(n, k, a):
    """The cell integral's closed form at 60 digits, far past its cancellation."""
    with mpmath.workdps(60):
        k, a = mpmath.mpf(float(k)), mpmath.mpf(float(a))
        if n == 2:
            int_j = a * mpmath.besselj(1, k * a) / k
            int_y = a * mpmath.bessely(1, k * a) / k + 2 / (mpmath.pi * k * k)
            return complex(-0.5j * mpmath.pi * (int_j + 1j * int_y))
        ika = 1j * k * a
        return complex(-(mpmath.exp(ika) * (ika - 1) + 1) / (1j * k) ** 2)


class TestCellIntegral:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("ka", np.geomspace(1e-12, 10.0, 27), ids=lambda ka: f"{ka:.1e}")
    def test_against_mpmath(self, n, ka):
        k = 1.7
        want = mp_disk_integral(n, k, ka / k)
        assert abs(green_disk_integral(n, k, ka / k) - want) < 1e-9 * abs(want)

class TestGamma:
    def test_integers(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(5.0) == 24.0

    def test_half(self):
        assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_recurrence_2p5(self):
        want = 1.5 * 0.5 * math.sqrt(math.pi)
        assert abs(math.gamma(2.5) - want) < 1e-13

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_functional_equation(self, a):
        lhs = math.gamma(a + 1.0)
        rhs = a * math.gamma(a)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestLowerIncompleteGamma:
    def test_empty_integral(self):
        assert lower_incomplete_gamma(0.0, 2.5) == 0.0

    def test_a_equals_one(self):
        want = 1.0 - math.exp(-5.0)
        assert abs(lower_incomplete_gamma(5.0, 1.0) - want) < 1e-14

    def test_quadrature_oracle(self):
        val, _ = scipy.integrate.quad(
            lambda t: math.exp(-t) * math.sqrt(t), 0.0, 2.0,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert abs(lower_incomplete_gamma(2.0, 1.5) - val) < 1e-10

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = float(rng.uniform(0.2, 6.0))
            x = float(rng.uniform(0.0, 30.0))
            ref, _ = scipy.integrate.quad(
                lambda t: math.exp(-t) * t ** (a - 1.0), 0.0, x,
                epsabs=1e-15, epsrel=1e-13, limit=300,
            )
            got = lower_incomplete_gamma(x, a)
            assert abs(got - ref) <= 1e-9 * max(1e-30, abs(ref))
            with mpmath.workdps(MP_DPS):
                ref_mp = float(mpmath.gammainc(a, 0, x))
            assert abs(got - ref_mp) <= 1e-9 * max(1e-30, abs(ref_mp))

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, a, x1, x2):
        lo, hi = sorted((x1, x2))
        g_lo = lower_incomplete_gamma(lo, a)
        g_hi = lower_incomplete_gamma(hi, a)
        assert g_lo <= g_hi + 1e-14
        assert g_hi <= math.gamma(a) * (1.0 + 1e-13)

    def test_limit_to_gamma(self):
        for a in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]:
            diff = abs(lower_incomplete_gamma(50.0, a) - math.gamma(a))
            assert diff < 1e-12


class TestSphereMeasure:
    def test_known_values(self):
        assert abs(sphere_measure(1) - 2.0 * math.pi) < 1e-14
        assert abs(sphere_measure(2) - 4.0 * math.pi) < 1e-13
        assert abs(sphere_measure(0) - 2.0) < 1e-14


class TestWronskian:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    def test_jy_wronskian(self, nu):
        # J_nu(x) Y_nu'(x) - J_nu'(x) Y_nu(x) = 2/(pi x)
        sp = scipy.special
        for x in np.linspace(0.1, 50.0, 173):
            w = sp.jv(nu, x) * sp.yvp(nu, x) - sp.jvp(nu, x) * sp.yv(nu, x)
            assert abs(w - 2.0 / (math.pi * x)) < 1e-9


class TestSpherical:
    def test_low_orders_closed_form(self):
        for x in [0.2, 1.0, 7.0, 30.0]:
            assert abs(scipy.special.spherical_jn(0, x) - math.sin(x) / x) < 1e-14
            j1 = math.sin(x) / x**2 - math.cos(x) / x
            assert abs(scipy.special.spherical_jn(1, x) - j1) < 1e-13

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
    def test_against_scipy(self, m):
        # scipy's spherical_jn and its derivative against mpmath.
        for x in np.linspace(0.05, 40.0, 97):
            ref = mp_spherical_jn(m, x)
            got = scipy.special.spherical_jn(m, x)
            assert abs(got - ref) <= 1e-11 * max(1.0 / max(x, 1.0), abs(ref))
            refp = mp_spherical_jn(m, x, derivative=True)
            gotp = scipy.special.spherical_jn(m, x, derivative=True)
            assert abs(gotp - refp) <= 1e-10 * max(1.0 / max(x, 1.0), abs(refp))
