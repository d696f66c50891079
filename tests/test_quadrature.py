"""Oracle cubature: known volumes, closed-form checks, linearity."""

import math

import numpy as np
import pytest

from invisiscat.cgo import CgoVector, cgo_over_parabola, cgo_sliced
from invisiscat.cli import build_parser
from invisiscat.geometry import CurvatureCap
from invisiscat.quadrature import (
    AnnularParaboloid,
    BudgetExceeded,
    GraphCap,
    ParaboloidCap,
    _leggauss,
    integrate,
    integrate_full,
)

from checks import Ball, Box, graph_region

ONE = lambda pts: np.ones(pts.shape[0])


class TestElementaryVolumes:
    def test_unit_disk_area(self):
        val = integrate(ONE, Ball([0.0, 0.0], 1.0, dim=2), tol=1e-10)
        assert abs(val - math.pi) < 1e-9

    def test_unit_ball_volume(self):
        val = integrate(ONE, Ball([0.0, 0.0, 0.0], 1.0, dim=3), tol=1e-9)
        assert abs(val - 4.0 * math.pi / 3.0) < 1e-8

    def test_box_volume(self):
        val = integrate(ONE, Box([0, 0], [2, 3]), tol=1e-12)
        assert abs(val - 6.0) < 1e-11

    def test_box_volume_3d(self):
        val = integrate(ONE, Box([0, -1, 0.5], [2, 2, 1.5]), tol=1e-12)
        assert abs(val - 6.0) < 1e-11

    def test_annular_paraboloid_exact(self):
        # int_0^1 (sqrt(x2) - sqrt(x2/2)) * 2 dx2 = (4/3)(1 - 1/sqrt 2)
        val = integrate(ONE, AnnularParaboloid(1.0, 2.0, 1.0, dim=2), tol=1e-10)
        want = (4.0 / 3.0) * (1.0 - 1.0 / math.sqrt(2.0))
        assert abs(val - want) < 1e-9

    def test_annular_empty_when_equal(self):
        val = integrate(ONE, AnnularParaboloid(2.0, 2.0, 1.0, dim=2), tol=1e-10)
        assert val == 0.0

    def test_paraboloid_cap_volume_2d(self):
        # int_0^h 2 sqrt(t/K) dt = (4/3) h^(3/2) / sqrt(K)
        K, h = 3.0, 0.7
        val = integrate(ONE, ParaboloidCap(K, h, dim=2), tol=1e-10)
        want = 4.0 / 3.0 * h**1.5 / math.sqrt(K)
        assert abs(val - want) < 1e-9 * want

    def test_paraboloid_cap_volume_3d(self):
        # int_0^h pi t/K dt = pi h^2 / (2K)
        K, h = 2.0, 0.5
        val = integrate(ONE, ParaboloidCap(K, h, dim=3), tol=1e-9)
        want = math.pi * h * h / (2.0 * K)
        assert abs(val - want) < 1e-8 * want


class TestCgoClosedFormSeed:
    def test_unbounded_cap_cgo_2d(self):
        # rho = i e_1 - e_2, K = 1: integral is sqrt(pi) e^{-1/4}.
        rho = np.array([1j, -1.0])

        def f(pts):
            return np.exp(pts @ rho)

        region = ParaboloidCap(1.0, dim=2, decay_rate=1.0)
        val = integrate(f, region, tol=1e-10)
        want = math.sqrt(math.pi) * math.exp(-0.25)
        assert abs(val - want) < 1e-8 * want
        assert abs(want - 1.380388) < 1e-6

    def test_gaussian_on_plane_sanity(self):
        # Full-plane Gaussian via a big box, checks the 2d tensor rule.
        def f(pts):
            return np.exp(-np.sum(pts**2, axis=1))

        val = integrate(f, Box([-8, -8], [8, 8]), tol=1e-10)
        assert abs(val - math.pi) < 1e-9


class TestGraphCap:
    def test_pure_paraboloid_graph_matches_cap(self):
        K, h = 5.0, 1.0 / 5.0
        b = math.sqrt(2.0) / 5.0

        def omega(xp):
            return K * np.sum(xp**2, axis=1)

        g = GraphCap(omega, b, h, dim=2, K_bracket=(K, K))
        val_g = integrate(ONE, g, tol=1e-9)
        val_c = integrate(ONE, ParaboloidCap(K, h, dim=2), tol=1e-9)
        assert abs(val_g - val_c) < 1e-8 * abs(val_c)

    def test_pure_paraboloid_graph_matches_cap_3d(self):
        K, h = 4.0, 0.25
        b = math.sqrt(2.0) / 4.0

        def omega(xp):
            return K * np.sum(xp**2, axis=1)

        g = GraphCap(omega, b, h, dim=3, K_bracket=(K, K))
        val_g = integrate(ONE, g, tol=1e-8)
        val_c = integrate(ONE, ParaboloidCap(K, h, dim=3), tol=1e-8)
        assert abs(val_g - val_c) < 1e-7 * abs(val_c)


def fixed_step_rim(g, direction):
    """The 80-step bisection ``GraphCap._rim_radius`` once ran, kept as reference."""
    k_lo, k_hi = g.K_bracket
    lo = np.full(direction.shape[0], 0.95 * math.sqrt(g.h / k_hi))
    hi = np.full(direction.shape[0], min(1.05 * math.sqrt(g.h / k_lo), g.b))
    open_col = g.omega(direction * hi[:, None]) - g.h < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        take_hi = g.omega(direction * mid[:, None]) - g.h >= 0
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return np.where(open_col, g.b, 0.5 * (lo + hi))


def _rim_cases():
    """Graph caps with their rim directions: admissible curvature caps and the chart graphs."""
    th = np.linspace(-math.pi, math.pi, 15)
    dirs = {2: np.array([[1.0], [-1.0]]), 3: np.stack([np.cos(th), np.sin(th)], axis=-1)}
    cases = [
        (graph_region(CurvatureCap(float(K), float(ratio * K), n=n)), dirs[n])
        for n in (2, 3)
        for K in np.geomspace(math.e, 1e4, 8)
        for ratio in np.linspace(-0.05, 0.2, 4)
    ]
    K, c3 = 3.0, 0.5
    for dim in (2, 3):
        g = GraphCap(_cubic_graph(K, c3), 0.6, 0.4, dim=dim, K_bracket=(K, K + c3 * 0.6))
        cases.append((g, dirs[dim]))
    # b below the rim: every column is clamped at b.
    cases.append((GraphCap(_cubic_graph(K, 0.0), 0.2, 0.4, dim=3, K_bracket=(K, K)), dirs[3]))
    return cases


class TestRimRadius:
    def test_matches_fixed_step_bisection(self):
        for g, direction in _rim_cases():
            np.testing.assert_array_equal(g._rim_radius(direction), fixed_step_rim(g, direction))

    def test_stops_at_adjacent_floats(self):
        for g, direction in _rim_cases():
            omega, calls = g.omega, []
            g.omega = lambda xp: calls.append(1) or omega(xp)
            g._rim_radius(direction)
            assert 0 < len(calls) <= 60


class TestProperties:
    def test_linearity(self):
        region = Ball([0.3, -0.2], 1.3, dim=2)
        f = lambda p: np.exp(1j * p[:, 0]) * p[:, 1]
        g = lambda p: np.cos(p[:, 0] - p[:, 1])
        a, b = 2.0 - 1.0j, 0.5 + 0.25j
        tol = 1e-9
        lhs = integrate(lambda p: a * f(p) + b * g(p), region, tol=tol)
        rhs = a * integrate(f, region, tol=tol) + b * integrate(g, region, tol=tol)
        assert abs(lhs - rhs) <= 3 * tol * (1 + abs(lhs))

    def test_region_additivity_cap_split(self):
        # Integral over the unbounded cap equals bounded cap + tail piece.
        tau, K, h = 2.0, 1.5, 0.8

        def f(pts):
            return np.exp(-tau * pts[:, -1])

        tol = 1e-9
        whole = integrate(f, ParaboloidCap(K, dim=2, decay_rate=tau), tol=tol)
        inner = integrate(f, ParaboloidCap(K, h, dim=2), tol=tol)
        tail = integrate(
            f, ParaboloidCap(K, floor=h, dim=2, decay_rate=tau), tol=tol
        )
        assert abs(whole - (inner + tail)) <= 3 * tol * (1 + abs(whole))

    def test_budget_exceeded(self):
        # Everywhere-oscillatory integrand under a tiny budget.
        def f(pts):
            return np.cos(4e4 * pts[:, 0]) * np.cos(3e4 * pts[:, 1])

        with pytest.raises(BudgetExceeded) as info:
            integrate(f, Box([0, 0], [1, 1]), tol=1e-12, budget=20000)
        exc = info.value
        assert exc.evals <= 20000 and exc.evals % 15**2 == 0
        assert math.isfinite(abs(exc.value)) and math.isfinite(exc.error)

    def test_shell_refinement_gain(self):
        # The shell chart's height coordinate is v with x_n = v^2, so the
        # slice radii are linear in v and a few boxes reach round-off.
        tau = 2.0
        val, _, evals = integrate_full(
            lambda p: np.exp(-tau * p[:, -1]),
            AnnularParaboloid(1.0, 2.0, 1.0, dim=2),
            tol=1e-9,
        )
        want = cgo_sliced(tau, 1.0, 2.0, 1.0, 2)
        assert abs(val - want) <= 1e-12 * want
        assert evals <= 2000

    def test_determinism(self):
        f = lambda p: np.exp(1j * 7.0 * p[:, 0]) * np.exp(-p[:, 1])
        region = ParaboloidCap(2.0, 1.0, dim=2)
        v1, e1, n1 = integrate_full(f, region, tol=1e-10)
        v2, e2, n2 = integrate_full(f, region, tol=1e-10)
        assert v1 == v2 and e1 == e2 and n1 == n2


class TestSplitRule:
    def test_exact_axis_is_never_split(self):
        # The K15 rule is exact in y for 1 + 1000 y^12, so every split goes
        # along x, where e^{40ix} oscillates: the box sequence is the 1-D
        # one, with 15 nodes per line in y.
        f2 = lambda p: np.exp(40j * p[:, 0]) * (1 + 1000 * p[:, 1] ** 12)
        f1 = lambda p: (1 + 1000 / 13) * np.exp(40j * p[:, 0])
        v2, _, n2 = integrate_full(f2, Box([0, 0], [1, 1]), tol=1e-10)
        v1, _, n1 = integrate_full(f1, Box([0], [1]), tol=1e-10)
        assert n2 == 15 * n1
        assert abs(v2 - v1) <= 1e-12 * abs(v1)

    def test_cgo_verify_3d_caps_evaluation_ceiling(self):
        # The 25 paraboloid draws of `invisiscat cgo-verify --n 3` at its
        # default seed and tolerance, in its draw order.
        args = build_parser().parse_args(["cgo-verify", "--n", "3"])
        rng = np.random.default_rng(args.seed)
        total = 0
        for _ in range(25):
            K = float(rng.uniform(0.5, 100.0))
            tau = float(rng.uniform(0.5, min(50.0, 20.0 * K)))
            rng.uniform(size=3)  # the shell draws that follow
            vec = CgoVector.canonical(tau, 3)
            want = cgo_over_parabola(vec, K)
            tol = max(args.tol * abs(want) / (1.0 + abs(want)) * 0.1, 1e-13)
            got, _, evals = integrate_full(
                vec.field, ParaboloidCap(K, dim=3, decay_rate=tau), tol=tol
            )
            assert abs(got - want) <= args.tol * abs(want)
            total += evals
        assert total <= 3_700_000


class TestParaboloidCapDecayRate:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_decay_rate(self, rate):
        with pytest.raises(ValueError, match="decay_rate"):
            ParaboloidCap(1.0, dim=2, decay_rate=rate)

    def test_slow_decay_raises_instead_of_truncating_early(self):
        # exp(-tau x_2) over the K = 1 cap is sqrt(pi) / tau^1.5; at
        # tau = 1e-11 the tail bound needs a truncation height above 1e12.
        tau = 1e-11
        with pytest.raises(BudgetExceeded) as info:
            integrate(
                lambda p: np.exp(-tau * p[:, -1]),
                ParaboloidCap(1.0, dim=2, decay_rate=tau),
                tol=1e-8,
            )
        assert info.value.evals == 0


def _cubic_graph(K, c3):
    def omega(xp):
        r2 = np.sum(xp * xp, axis=1)
        return K * r2 + c3 * r2**1.5

    return omega


def _inside_paraboloid_cap(cap, tol):
    top = cap.truncation_height(tol)

    def inside(x):
        xn, r2 = x[:, -1], np.sum(x[:, :-1] ** 2, axis=1)
        return (cap.K * r2 <= xn * (1 + 1e-12)) & (xn >= cap.floor) & (xn <= top)

    return inside


def _inside_shell(shell):
    def inside(x):
        xn, r2 = x[:, -1], np.sum(x[:, :-1] ** 2, axis=1)
        slack = 1e-12 * xn
        return (
            (shell.K_minus * r2 <= xn + slack)
            & (shell.K_plus * r2 >= xn - slack)
            & (xn <= shell.h)
        )

    return inside


def _inside_graph_cap(g):
    def inside(x):
        xp, xn = x[:, :-1], x[:, -1]
        rad = np.sqrt(np.sum(xp * xp, axis=1))
        return (rad <= g.b) & (g.omega(xp) <= xn + 1e-12) & (xn <= g.h * (1 + 1e-12))

    return inside


def _chart_cases():
    cases = []
    for dim in (2, 3):
        box = Box([0.0] * (dim - 1) + [-1.0], [2.0] * (dim - 1) + [3.0])
        cases.append(
            (f"box{dim}", box.charts(),
             lambda x, b=box: np.all((x >= b.lo) & (x <= b.hi), axis=1))
        )
        ball = Ball([0.3] * dim, 1.2, dim=dim)
        cases.append(
            (f"ball{dim}", ball.charts(),
             lambda x, b=ball: np.linalg.norm(x - b.center, axis=1) <= b.radius * (1 + 1e-12))
        )
        for name, cap in [
            ("bounded", ParaboloidCap(2.0, 0.7, dim=dim)),
            ("floored", ParaboloidCap(2.0, 1.5, floor=0.3, dim=dim)),
            ("unbounded", ParaboloidCap(2.0, dim=dim, decay_rate=3.0)),
        ]:
            cases.append((f"cap_{name}{dim}", cap.charts(1e-9), _inside_paraboloid_cap(cap, 1e-9)))
        shell = AnnularParaboloid(1.5, 4.0, 0.8, dim=dim)
        cases.append((f"shell{dim}", shell.charts(), _inside_shell(shell)))
        K, c3 = 3.0, 0.5
        graph = GraphCap(_cubic_graph(K, c3), 0.6, 0.4, dim=dim, K_bracket=(K, K + c3 * 0.6))
        cases.append((f"graph{dim}", graph.charts(), _inside_graph_cap(graph)))
    return [
        pytest.param(chart, inside, id=f"{name}_chart{i}")
        for name, charts, inside in cases
        for i, chart in enumerate(charts)
    ]


class TestChartJacobians:
    @pytest.mark.parametrize("chart, inside", _chart_cases())
    def test_jacobian_is_map_determinant(self, chart, inside):
        rng = np.random.default_rng(7)
        dim = chart.lo.size
        span = chart.hi - chart.lo
        u = chart.lo + span * rng.uniform(0.05, 0.95, size=(64, dim))
        pts, jac = chart.mapping(*u.T)
        jac = np.broadcast_to(jac, u.shape[:1])
        assert pts.shape == (64, dim)
        assert np.all(inside(pts))
        deriv = np.empty((64, dim, dim))
        for j in range(dim):
            eps = 1e-6 * span[j]
            up, um = u.copy(), u.copy()
            up[:, j] += eps
            um[:, j] -= eps
            deriv[:, :, j] = (chart.mapping(*up.T)[0] - chart.mapping(*um.T)[0]) / (2 * eps)
        det = np.abs(np.linalg.det(deriv))
        np.testing.assert_allclose(jac, det, rtol=1e-6)


class TestLegendreRule:
    @pytest.mark.parametrize("npts", [1, 6, 8, 12, 32])
    def test_cached_rule_is_numpys_and_read_only(self, npts):
        x, w = _leggauss(npts)
        want_x, want_w = np.polynomial.legendre.leggauss(npts)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        again = _leggauss(npts)
        assert again[0] is x and again[1] is w
