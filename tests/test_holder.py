"""Discrete Hoelder calculus: norms, boundary suprema, Green identities."""

import math

import numpy as np
import pytest

from invisiscat import holder
from invisiscat.geometry import BallComponent, Domain, StarComponent
from invisiscat.holder import (
    PrecondViolated,
    SampledFunction,
    boundary_sup,
    holder_norm,
    sample_on_grid,
)
from invisiscat.geometry import make_curvature_cap
from invisiscat.manufactured import CapBump

from checks import (
    BoxBump,
    BoxWindow,
    CapWindow,
    CgoField,
    ConstField,
    cell_weights,
    green_identity_residual,
    mean_zero_check,
)


def line_samples(fn, spacing):
    x = np.arange(0.0, 1.0 + spacing / 2, spacing)
    return SampledFunction(points=x[:, None], values=fn(x), spacing=spacing)


class TestHolderNorm:
    def test_constant(self):
        f = line_samples(lambda x: np.full_like(x, 3.0 - 4.0j, dtype=complex), 1e-3)
        assert abs(holder_norm(f, 0.7) - 5.0) < 1e-12

    def test_abs_lipschitz(self):
        f = line_samples(lambda x: np.abs(x), 1e-3)
        assert abs(holder_norm(f, 1.0) - 2.0) < 1e-6

    def test_sqrt_half_holder(self):
        f = line_samples(np.sqrt, 1e-4)
        # sup = 1, seminorm attained on pairs (0, x): exactly 1.
        assert abs(holder_norm(f, 0.5) - 2.0) < 1e-3

    def test_homogeneity(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        x = np.linspace(0.0, 1.0, 400)
        vals = np.sin(2.0 * x) + 0.3 * x
        base = SampledFunction(points=x[:, None], values=vals, spacing=x[1] - x[0])
        base_norm = holder_norm(base, 0.7)

        @given(st.floats(min_value=1e-3, max_value=1e3))
        @settings(max_examples=50, deadline=None)
        def inner(c):
            scaled = SampledFunction(
                points=x[:, None], values=c * vals, spacing=x[1] - x[0]
            )
            got = holder_norm(scaled, 0.7)
            assert abs(got - c * base_norm) <= 1e-9 * c * base_norm

        inner()

    def test_exhaustive_pair_scan_oracle(self):
        # Coarse grid small enough for an O(N^2) scan.
        x = np.linspace(0.0, 1.0, 200)
        vals = np.sin(3.0 * x) + 0.5 * x * x
        alpha = 0.6
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = np.abs(x[:, None] - x[None, :])
        mask = dist > 0
        want = np.max(np.abs(vals)) + np.max(diff[mask] / dist[mask] ** alpha)
        f = SampledFunction(points=x[:, None], values=vals, spacing=x[1] - x[0])
        got = holder_norm(f, alpha)
        assert got <= want + 1e-12
        assert got >= 0.98 * want


def constant_samples(dim, value):
    """A complex constant on the grid nodes of a ball; 3205 nodes for the 2-D disk."""
    if dim == 1:
        return line_samples(lambda x: np.full(x.shape, value), 1e-3)
    dom = Domain([BallComponent([0.0] * dim, 1.0, dim=dim)])
    spacing = {2: 1.0 / 32, 3: 1.0 / 8}[dim]
    return sample_on_grid(dom, lambda p: np.full(p.shape[0], value), spacing)


def pair_search_norm(f, alpha):
    """sup|f| plus the quotient maximized over holder_norm's pair sample."""
    pairs = holder._pair_indices(f.points, f.spacing)
    d = np.sqrt(np.sum((f.points[pairs[:, 0]] - f.points[pairs[:, 1]]) ** 2, axis=1))
    num = np.abs(f.values[pairs[:, 0]] - f.values[pairs[:, 1]])
    return float(np.max(np.abs(f.values))) + float(np.max(num / d**alpha))


class TestConstantShortcut:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_returns_sup_without_pair_search(self, dim, monkeypatch):
        def no_search(*args):
            raise AssertionError("a constant sample ran the pair search")

        monkeypatch.setattr(holder, "_pair_indices", no_search)
        value = 0.3 - 1.7j
        f = constant_samples(dim, value)
        assert f.points.shape[0] == {1: 1001, 2: 3205, 3: 2103}[dim]
        assert holder_norm(f, 0.5) == abs(value)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_identical_to_pair_search(self, dim):
        f = constant_samples(dim, -2.1 + 0.4j)
        assert holder_norm(f, 0.75) == pair_search_norm(f, 0.75)

    def test_one_ulp_runs_the_pair_search(self, monkeypatch):
        calls = []
        search = holder._pair_indices
        monkeypatch.setattr(holder, "_pair_indices", lambda *a: calls.append(1) or search(*a))
        f = constant_samples(2, 1.0 + 0.0j)
        f.values[1234] = np.nextafter(1.0, 2.0)
        got = holder_norm(f, 0.5)
        assert calls == [1]
        assert got > np.max(np.abs(f.values))
        assert got == pair_search_norm(f, 0.5)


class TestBoundarySup:
    def test_constant(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        assert abs(boundary_sup(lambda p: np.ones(p.shape[0]), dom) - 1.0) < 1e-12

    def test_distance_to_boundary_vanishes(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        fn = lambda p: 1.0 - np.sqrt(np.sum(p * p, axis=1))
        assert boundary_sup(fn, dom) < 1e-12

    def test_coordinate_on_disk(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        assert abs(boundary_sup(lambda p: p[:, 0], dom) - 1.0) < 1e-9


class TestMeanZero:
    def test_odd_function_on_ball(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        assert mean_zero_check(lambda p: p[:, 0] ** 3, dom) < 1e-12

    def test_constant_on_disk(self):
        dom = Domain([BallComponent([0.0, 0.0], 1.0)])
        got = mean_zero_check(lambda p: np.ones(p.shape[0]), dom)
        assert abs(got - math.pi) < 1e-10

    def test_manufactured_bump_identity(self):
        # f = phi - k^2 w for w in H^2_0 integrates to zero.
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 0.8])
        bump = BoxBump(lo, hi)
        k = 1.3
        win = BoxWindow(lo, hi)
        pts, w = win.volume_nodes(1.0 / 128)
        val = abs(np.sum(w * (bump.phi(pts, k) - k * k * bump.value(pts))))
        assert val < 1e-6


class TestGreenIdentity:
    def test_zero_fields(self):
        class Zero:
            def value(self, p):
                return np.zeros(p.shape[0])

            def grad(self, p):
                return np.zeros_like(p)

            def phi(self, p, k):
                return np.zeros(p.shape[0])

        win = BoxWindow(np.zeros(2), np.ones(2))
        res = green_identity_residual(Zero(), ConstField(), 1.0, win, 1.0 / 32)
        assert res == 0

    def test_box_bump_const_u0(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        win = BoxWindow(lo, hi)
        res = green_identity_residual(
            BoxBump(lo, hi), ConstField(), 2.0, win, 1.0 / 256
        )
        assert abs(res) < 1e-6

    def test_box_bump_cgo_u0(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        win = BoxWindow(lo, hi)
        rho = np.array([1j, -1.0]) * 2.0
        res = green_identity_residual(
            BoxBump(lo, hi), CgoField(rho), 2.0, win, 1.0 / 256
        )
        assert abs(res) < 1e-6

    def test_cap_window_with_lid(self):
        cap = make_curvature_cap(5.0, 0.0)
        win = CapWindow(cap)
        bump = CapBump(cap)
        res = green_identity_residual(
            bump, CgoField(np.array([1j, -1.0])), 1.0, win, cap.h / 64, gamma="graph"
        )
        # Both sides nearly cancel; the lid terms of this bump vanish, so
        # this reduces to the volume identity.
        assert abs(res) < 1e-8

    def test_precondition_violation(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])

        class Liar(BoxBump):
            def phi(self, pts, k):
                return super().phi(pts, k) + 1.0  # wrong source

        win = BoxWindow(lo, hi)
        with pytest.raises(PrecondViolated):
            green_identity_residual(Liar(lo, hi), ConstField(), 1.0, win, 1.0 / 64)

    def test_convergence_order(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        win = BoxWindow(lo, hi)
        rho = np.array([1j, -1.0]) * 3.0
        res = [
            abs(
                green_identity_residual(
                    BoxBump(lo, hi), CgoField(rho), 1.0, win, h
                )
            )
            for h in (1.0 / 32, 1.0 / 64, 1.0 / 128)
        ]
        order1 = math.log2(res[0] / res[1])
        order2 = math.log2(res[1] / res[2])
        assert order1 >= 1.8 and order2 >= 1.8


class TestBallEstimateInequality:
    def test_random_trig_polynomials(self):
        # Mean-zero fields on a ball obey bsup/norm <= (2R)^alpha with
        # 5 percent discretization slack.
        R = 0.8
        alpha = 0.5
        dom = Domain([BallComponent([0.0, 0.0], R)])
        rng = np.random.default_rng(2025)
        spacing = 0.025
        for _ in range(50):
            a = rng.normal(size=4)
            kx, ky = rng.uniform(0.5, 3.0, size=2)

            def fn(p, a=a, kx=kx, ky=ky):
                return (
                    a[0] * np.sin(kx * p[:, 0])
                    + a[1] * np.cos(ky * p[:, 1])
                    + a[2] * np.sin(kx * p[:, 0] + ky * p[:, 1])
                    + a[3]
                )

            f = sample_on_grid(dom, fn, spacing)
            w = cell_weights(dom, f)
            mean = np.sum(w * f.values) / np.sum(w)
            shifted = SampledFunction(f.points, f.values - mean, f.spacing)
            bsup = boundary_sup(lambda p, fn=fn, mean=mean: fn(p) - mean, dom)
            ratio = bsup / holder_norm(shifted, alpha)
            assert ratio <= (2.0 * R) ** alpha * 1.05

    def test_star_domain_diameter_version(self):
        radial = lambda th: 0.7 * (1.0 + 0.15 * np.cos(3 * th))
        comp = StarComponent([0.0, 0.0], radial)
        dom = Domain([comp])
        diam = comp.diameter()
        alpha = 0.6
        rng = np.random.default_rng(7)
        spacing = 0.02
        for _ in range(10):
            a = rng.normal(size=3)

            def fn(p, a=a):
                return a[0] * np.sin(2.1 * p[:, 0]) + a[1] * p[:, 1] + a[2]

            f = sample_on_grid(dom, fn, spacing)
            w = cell_weights(dom, f)
            mean = np.sum(w * f.values) / np.sum(w)
            shifted = SampledFunction(f.points, f.values - mean, f.spacing)
            bsup = boundary_sup(lambda p, fn=fn, mean=mean: fn(p) - mean, dom)
            ratio = bsup / holder_norm(shifted, alpha)
            assert ratio <= diam**alpha * 1.05
