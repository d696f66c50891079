"""Curvature caps, nesting inclusions, components, connectivity."""

import math

import numpy as np
import pytest

from invisiscat.errors import ConfigError
from invisiscat.geometry import (
    AnnulusComponent,
    BallComponent,
    BoxComponent,
    CappedComponent,
    CurvatureCap,
    Domain,
    InadmissiblePerturbation,
    StarComponent,
    compute_cn,
    make_curvature_cap,
    nesting_check,
)
from invisiscat.quadrature import Ball, integrate

from checks import ResolutionTooCoarse, connected_to_infinity


class TestComputeCn:
    def test_n2_exact(self):
        assert abs(compute_cn(2) - 1.0 / 6.0) < 1e-14

    def test_n3_scan(self):
        # Oracle: dense scan over the circle of the degree-3 monomial sum.
        th = np.linspace(0, 2 * math.pi, 2_000_001)
        x, y = np.cos(th), np.sin(th)
        vals = (x**3 + y**3) / 6.0 + (x**2 * y + x * y**2) / 2.0
        assert abs(compute_cn(3) - float(vals.max())) < 1e-10

    def test_n3_symmetry(self):
        # The monomial sum is symmetric under swapping coordinates, so the
        # maximizer sits on the diagonal; value there is 2 (1/sqrt2)^3 (1/6+1/2).
        want = 2.0 * (1.0 / math.sqrt(2.0)) ** 3 * (1.0 / 6.0 + 1.0 / 2.0)
        assert abs(compute_cn(3) - want) < 1e-10


class TestMakeCurvatureCap:
    def test_pure_paraboloid(self):
        cap = make_curvature_cap(10.0, 0.0, L=1.0, M=2.0, delta=0.5)
        assert cap.K_minus == cap.K_plus == 10.0
        assert abs(cap.b - math.sqrt(2.0) / 10.0) < 1e-15
        assert abs(cap.h - 0.1) < 1e-15
        xp = np.linspace(-cap.b, cap.b, 101)[:, None]
        assert np.allclose(cap.omega(xp), 10.0 * xp[:, 0] ** 2)

    def test_cubic_spread_matches_formula(self):
        # K=10, 0.1 |x'|^3, n=2, M=2: K_pm = K -/+ c_2 * 0.6 * sqrt(2)/10.
        cap = make_curvature_cap(10.0, 0.1, L=1.0, M=2.0, delta=0.5, n=2)
        spread = (1.0 / 6.0) * 0.6 * math.sqrt(2.0) / 10.0
        assert abs(cap.K_minus - (10.0 - spread)) < 1e-12
        assert abs(cap.K_plus - (10.0 + spread)) < 1e-12

    def test_inadmissible(self):
        with pytest.raises(InadmissiblePerturbation):
            make_curvature_cap(math.e, 1e6, L=1.0, M=2.0, delta=0.5)

    @pytest.mark.parametrize("K, delta", [(1e300, 0.5), (1e160, 0.01)])
    def test_overflowing_power_is_config_error(self, K, delta):
        # K^(2 - delta) overflows a float: a config error, not an OverflowError.
        with pytest.raises(ConfigError, match="overflows"):
            make_curvature_cap(K, 0.0, delta=delta)

    def test_invariants_hold(self):
        for K in [math.e, 10.0, 100.0, 1000.0]:
            cap = make_curvature_cap(K, 0.05 * K, L=2.0, M=2.0, delta=0.5)
            assert 1.0 / cap.M <= cap.K_minus / K <= cap.K_plus / K <= cap.M
            assert cap.K_plus - cap.K_minus <= cap.L * K ** (1 - cap.delta) * (1 + 1e-12)
            assert cap.h <= cap.K_minus * cap.b**2 * (1 + 1e-12)


def fixed_step_rim(cap):
    """The 200-step bisection the cap rim was once found with, kept as reference."""
    lo, hi = 0.0, cap.b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(cap.omega(np.array([[mid] + [0.0] * (cap.n - 2)]))[0]) >= cap.h:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestRimRadius:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_fixed_step_bisection(self, n):
        caps = [
            make_curvature_cap(float(K), float(ratio * K), n=n)
            for K in np.geomspace(math.e, 1e4, 10)
            for ratio in np.linspace(-0.05, 0.2, 6)
        ]
        for cap in caps:
            assert cap.rim_radius == fixed_step_rim(cap)

    def test_computed_once_per_cap(self):
        cap = make_curvature_cap(100.0, 10.0, n=3)
        omega, calls = cap.omega, []
        cap.omega = lambda xp: calls.append(1) or omega(xp)
        rim = cap.rim_radius
        first = len(calls)
        assert first > 0
        assert cap.rim_radius == rim
        assert len(calls) == first


class TestNesting:
    def test_pure_paraboloid_no_violation(self):
        cap = make_curvature_cap(5.0, 0.0)
        rep = nesting_check(cap)
        assert rep.violations == 0

    def test_perturbed_cap_no_violation(self):
        for n in (2, 3):
            cap = make_curvature_cap(20.0, 0.4, L=1.0, M=2.0, delta=0.5, n=n)
            rep = nesting_check(cap)
            assert rep.violations == 0

    def test_constructed_counterexample(self):
        # Hand-built cap whose graph dips below K_-|x'|^2.
        cap = CurvatureCap(K=5.0, L=1.0, M=2.0, delta=0.5, c3=0.0, n=2)
        cap.K_minus = 6.0  # impossible pinching
        rep = nesting_check(cap)
        assert rep.violations > 0


class TestComponents:
    def test_ball_quadrature_area(self):
        c = BallComponent([0.2, -0.1], 0.8)
        pts, w = c.quad_nodes(24)
        assert abs(np.sum(w) - math.pi * 0.64) < 1e-12
        assert np.all(c.inside(pts))

    def test_ball3_quadrature_volume(self):
        c = BallComponent([0.0, 0.0, 0.0], 0.5, dim=3)
        pts, w = c.quad_nodes(12)
        assert abs(np.sum(w) - 4.0 / 3.0 * math.pi * 0.125) < 1e-12

    def test_ball_boundary_points(self):
        c = BallComponent([1.0, 2.0], 0.7)
        pts = c.boundary_points(512)
        assert pts.shape == (512, 2)
        assert np.allclose(np.linalg.norm(pts - [1, 2], axis=1), 0.7)

    @pytest.mark.parametrize("center, dim", [([0.0, 0.0, 0.0], 2), ([0.0, 0.0], 3), ([0.0], 2)])
    def test_ball_centre_length_checked(self, center, dim):
        # Caught at construction, not as a broadcast error in the first grid build.
        with pytest.raises(ConfigError, match="coordinates"):
            BallComponent(center, 0.5, dim=dim)

    def test_star_mesh_circle_reduces_to_ball(self):
        c = StarComponent([0.0, 0.0], lambda th: np.full_like(th, 1.3))
        pts = c.boundary_points(256)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.3)
        pq, wq = c.quad_nodes(24)
        assert abs(np.sum(wq) - math.pi * 1.3**2) < 1e-10

    @pytest.mark.parametrize(
        "comp",
        [
            BallComponent([1.0, 2.0], 0.7),
            BallComponent([0.1, -0.2, 0.3], 0.6, dim=3),
            AnnulusComponent([0.2, 0.1], 0.4, 0.9),
            BoxComponent([0.0, -1.0], [1.5, 0.5]),
            StarComponent([0.0, 0.1], lambda th: 1.0 + 0.2 * np.cos(3.0 * th)),
            CappedComponent(make_curvature_cap(10.0, 1.0, n=2), apex=[0.3, -0.2]),
            CappedComponent(make_curvature_cap(10.0, 1.0, n=3), apex=[0.3, -0.2, 0.1]),
        ],
        ids=["ball2", "ball3", "annulus", "box", "star", "capped2", "capped3"],
    )
    def test_boundary_points_separate_inside_from_outside(self, comp):
        # Every sample has body and complement within eps of it.  The probe
        # steps are the nonzero vectors of {-1, 0, 1}^dim: the 2-d capped
        # body samples its lid corner, which only a diagonal step sees
        # inside.
        eps = 1e-7 * comp.diameter()
        steps = np.array(list(np.ndindex(*([3] * comp.dim))), dtype=float) - 1.0
        steps = steps[np.any(steps != 0.0, axis=1)]
        for count in (256, 403):
            pts = comp.boundary_points(count)
            probes = pts[:, None, :] + eps * steps[None, :, :]
            hit = comp.inside(probes.reshape(-1, comp.dim)).reshape(probes.shape[:2])
            assert np.all(np.any(hit, axis=1))
            assert np.all(np.any(~hit, axis=1))

    def test_annulus_inside(self):
        c = AnnulusComponent([0.0, 0.0], 0.5, 1.0)
        pts = np.array([[0.0, 0.0], [0.7, 0.0], [1.2, 0.0]])
        assert list(c.inside(pts)) == [False, True, False]

    def test_capped_volume_against_oracle(self):
        cap = make_curvature_cap(10.0, 0.2, L=1.0, M=2.0, delta=0.5, n=2)
        comp = CappedComponent(cap, bulk_width=0.35, bulk_height=0.5)
        pts, w = comp.quad_nodes(64)
        vol = float(np.sum(w))
        # Oracle: lens volume by the graph-cap region + bulk rectangle.
        lens = integrate(
            lambda p: np.ones(p.shape[0]), cap.as_graph_region(), tol=1e-10
        ).real
        want = lens + 2.0 * 0.35 * 0.5
        assert abs(vol - want) < 1e-6 * want
        assert np.all(comp.inside(pts))

    @pytest.mark.parametrize("width, height", [
        (0.35, -1.0), (0.35, 0.0), (0.35, math.inf), (math.nan, 0.5), (0.01, 0.5),
    ])
    def test_capped_bulk_sizes_checked(self, width, height):
        # Finite positive sizes, and a bulk wider than the cap rim (0.0995 here).
        cap = make_curvature_cap(10.0, 1.0, n=2)
        with pytest.raises(ConfigError):
            CappedComponent(cap, bulk_width=width, bulk_height=height)

    @pytest.mark.parametrize("count", [256, 1024])
    def test_capped_lid_sampled(self, count):
        # Shelf halves, walls and lid each get a fifth of the non-graph samples.
        comp = CappedComponent(make_curvature_cap(10.0, 1.0, n=2), bulk_height=0.5)
        local = comp.boundary_points(count) - comp.apex
        on_lid = local[:, 1] == comp.cap.h + comp.bulk_height
        assert np.count_nonzero(on_lid) >= (count - count // 2) // 5
        assert np.all(np.abs(local[on_lid, 0]) <= comp.bulk_width)

    def test_capped_admissibility_window(self):
        # Inside B(0,b) x (-h,h) the body is exactly {omega < x_n < h}.
        cap = make_curvature_cap(8.0, 0.1, n=2)
        comp = CappedComponent(cap)
        rng = np.random.default_rng(7)
        xp = rng.uniform(-cap.b, cap.b, size=(4000, 1))
        xn = rng.uniform(-cap.h, cap.h, size=4000)
        pts = np.concatenate([xp, xn[:, None]], axis=-1)
        want = (cap.omega(xp) < xn) & (xn < cap.h)
        got = comp.inside(pts)
        assert np.array_equal(got, want)

    def test_capped_inside_matches_columns(self):
        # An admissible negative cubic bends omega back below h far past the
        # rim (|x'| > 0.889 for c3 = -11); the lens ends at the rim all the
        # same, as column_bounds, which the cell coverage reads, says.
        comp = CappedComponent(make_curvature_cap(10.0, -11.0, n=2))
        rng = np.random.default_rng(5)
        pts = rng.uniform([-1.2, -0.1], [1.2, 0.7], size=(20000, 2))
        lo, hi, empty = comp.column_bounds(pts[:, :1])
        want = ~empty & (pts[:, 1] > lo) & (pts[:, 1] < hi)
        assert np.array_equal(comp.inside(pts), want)


class TestConnectivity:
    def test_ball_boundary_point(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        assert connected_to_infinity(np.array([1.0, 0.0]), dom)

    def test_annulus_cavity_point(self):
        dom = Domain([AnnulusComponent([0.0, 0.0], 0.5, 1.0)])
        assert not connected_to_infinity(np.array([0.5, 0.0]), dom)

    def test_cap_apex(self):
        cap = make_curvature_cap(10.0, 0.0)
        dom = Domain([CappedComponent(cap)])
        assert connected_to_infinity(np.zeros(2), dom, grid_resolution=192)

    def test_resolution_too_coarse(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        with pytest.raises(ResolutionTooCoarse):
            connected_to_infinity(np.array([0.0, 0.0]), dom, grid_resolution=64)


class TestDomain:
    def test_diameter_ball(self):
        dom = Domain([BallComponent([0.0, 0.0], 0.75)])
        assert abs(dom.diameter() - 1.5) < 1e-12

    def test_overlapping_components_rejected(self):
        with pytest.raises(ConfigError, match="components 0 and 1 overlap"):
            Domain([BallComponent([0.0, 0.0], 1.0), BallComponent([1.5, 0.0], 1.0)])

    def test_gap_check(self):
        near = Domain([BallComponent([0.0, 0.0], 0.2), BallComponent([1.0, 0.0], 0.2)])
        assert near.gap_ok(0.25)
        assert not near.gap_ok(0.35)
