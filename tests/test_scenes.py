"""Scene schema parsing and the expression grammar."""

import json
import math

import numpy as np
import pytest

from invisiscat.scenes import (
    SceneError,
    domain_to_spec,
    load_domain,
    load_medium_scene,
    load_source_scene,
    parse_expression,
)


class TestExpressionParser:
    def test_arithmetic(self):
        fn = parse_expression("1 + 2*3 - 4/2")
        assert fn(np.zeros((1, 2)))[0] == 5.0

    def test_power_right_assoc(self):
        fn = parse_expression("2^3^2")
        assert fn(np.zeros((1, 2)))[0] == 512.0

    def test_coordinates_and_functions(self):
        fn = parse_expression("exp(-x1^2) * sin(x2) + cos(x1)")
        pts = np.array([[0.3, 1.2], [-1.0, 0.0]])
        want = np.exp(-pts[:, 0] ** 2) * np.sin(pts[:, 1]) + np.cos(pts[:, 0])
        assert np.allclose(fn(pts), want)

    def test_unary_minus(self):
        fn = parse_expression("-x1 + -(2)")
        assert fn(np.array([[3.0, 0.0]]))[0] == -5.0

    def test_rejects_unknown_identifier(self):
        with pytest.raises(SceneError):
            parse_expression("foo + 1")

    def test_rejects_garbage(self):
        with pytest.raises(SceneError):
            parse_expression("1 + ")
        with pytest.raises(SceneError):
            parse_expression("import os")
        with pytest.raises(SceneError):
            parse_expression("(1")


class TestDomainLoading:
    def test_ball(self):
        dom = load_domain({"kind": "ball", "center": [0, 0], "radius": 2.0}, 2)
        assert abs(dom.diameter() - 4.0) < 1e-12

    def test_union(self):
        dom = load_domain(
            {
                "kind": "union",
                "components": [
                    {"kind": "ball", "center": [0, 0], "radius": 0.5},
                    {"kind": "ball", "center": [2, 0], "radius": 0.5},
                ],
                "well_separated": True,
            },
            2,
        )
        assert len(dom.components) == 2 and dom.well_separated

    def test_star_and_capped(self):
        star = load_domain(
            {"kind": "star", "center": [0, 0], "r0": 1.0, "cos_coeffs": [0, 0, 0.1]},
            2,
        )
        assert star.components[0].inside(np.array([[0.0, 0.0]]))[0]
        capped = load_domain({"kind": "capped", "K": 10.0, "cubic": 0.1}, 2)
        assert capped.components[0].cap.K == 10.0

    def test_bad_kind(self):
        with pytest.raises(SceneError):
            load_domain({"kind": "pentagon"}, 2)
        with pytest.raises(SceneError):
            load_domain({"kind": "ball", "center": [0, 0]}, 2)

    def test_roundtrip(self):
        spec = {
            "kind": "union",
            "components": [
                {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
                {
                    "kind": "capped",
                    "K": 10.0,
                    "cubic": 0.1,
                    "L": 1.0,
                    "M": 2.0,
                    "delta": 0.5,
                    "bulk_width": 0.35,
                    "bulk_height": 0.5,
                    "apex": [2.0, 0.0],
                },
            ],
            "well_separated": True,
        }
        dom = load_domain(spec, 2)
        spec2 = domain_to_spec(dom)
        dom2 = load_domain(json.loads(json.dumps(spec2)), 2)
        pts = np.array([[0.1, 0.2], [2.0, 0.05], [5.0, 5.0]])
        assert np.array_equal(dom.inside(pts), dom2.inside(pts))


    def test_overlapping_union_rejected(self):
        def union(*centers):
            balls = [{"kind": "ball", "center": c, "radius": 1.0} for c in centers]
            return {"kind": "union", "components": balls}

        for centers in (([0, 0], [0, 0]), ([0, 0], [1.99, 0]), ([0, 0], [0.2, 0])):
            with pytest.raises(SceneError, match="overlap"):
                load_domain(union(*centers), 2)
        # Tangent balls share only a boundary point.
        assert len(load_domain(union([0, 0], [2, 0]), 2).components) == 2


class TestSceneLoading:
    def test_source_scene_expression_intensity(self):
        cfg = {
            "dimension": 2,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
            "intensity": {"kind": "expression", "expr": "exp(-x1^2 - x2^2)"},
        }
        scene = load_source_scene(cfg)
        got = scene.intensity(np.array([[0.5, 0.5]]))[0]
        assert abs(got - math.exp(-0.5)) < 1e-14

    def test_medium_scene_default_incident(self):
        cfg = {
            "dimension": 2,
            "wavenumber": 0.5,
            "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
            "contrast": {"kind": "constant", "value": 0.1},
        }
        scene = load_medium_scene(cfg)
        vals = scene.incident_values(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert abs(vals[0] - 1.0) < 1e-14

    def test_grid_intensity(self, tmp_path):
        path = tmp_path / "grid.npz"
        values = np.arange(16, dtype=float).reshape(4, 4)
        np.savez(path, origin=np.array([0.0, 0.0]), spacing=0.5, values=values)
        cfg = {
            "dimension": 2,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [1, 1], "radius": 1.0},
            "intensity": {"kind": "grid", "path": str(path)},
        }
        scene = load_source_scene(cfg)
        got = scene.intensity(np.array([[0.5, 1.0], [9.0, 9.0]]))
        assert got[0] == values[1, 2]
        assert got[1] == 0.0

    def test_missing_field(self):
        with pytest.raises(SceneError):
            load_source_scene({"dimension": 2, "wavenumber": 1.0})

    def test_complex_constant(self):
        cfg = {
            "dimension": 2,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
            "intensity": {"kind": "constant", "value": [1.0, 0.5]},
        }
        scene = load_source_scene(cfg)
        assert scene.intensity(np.zeros((1, 2)))[0] == 1.0 + 0.5j
