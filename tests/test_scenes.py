"""Scene schema parsing and the expression grammar."""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invisiscat.cgo import CgoVector
from invisiscat.scenes import (
    SceneError,
    load_domain,
    load_medium_scene,
    load_source_scene,
    parse_expression,
)

from checks import domain_to_spec


_PTS = np.array([[0.3, -1.7], [2.0, 0.5], [-0.25, 0.0]])
_NUMBERS = st.from_regex(
    r"(?:[0-9]{1,3}(?:\.[0-9]{0,3})?|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?", fullmatch=True
)
_TREES = st.recursive(
    _NUMBERS.map(lambda s: ("num", s)) | st.sampled_from([("var", 0), ("var", 1)]),
    lambda sub: (
        st.tuples(st.just("neg"), sub)
        | st.tuples(st.just("fn"), st.sampled_from(["exp", "sin", "cos"]), sub)
        | st.tuples(st.just("bin"), st.sampled_from("+-*/^"), sub, sub)
    ),
    max_leaves=12,
)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}
# Binding strength of a rendered node, and the strength each operand needs
# to go without parentheses: "-" binds looser than "^" on its left only.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEEDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}


def _direct(tree, pts):
    """The tree's value from the same Python and numpy operations, with no parser."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "var":
        return pts[:, tree[1]]
    if kind == "neg":
        return -_direct(tree[1], pts)
    if kind == "fn":
        return getattr(np, tree[1])(_direct(tree[2], pts))
    return _OPS[tree[1]](_direct(tree[2], pts), _direct(tree[3], pts))


def _render(tree, minimal):
    """(tokens, level): minimal parentheses, or parentheses around every operation."""
    def wrap(sub, need):
        tokens, level = _render(sub, minimal)
        return ["(", *tokens, ")"] if level < need or not minimal and level < 5 else tokens

    kind = tree[0]
    if kind == "num":
        return [tree[1]], 5
    if kind == "var":
        return [f"x{tree[1] + 1}"], 5
    if kind == "neg":
        return ["-", *wrap(tree[1], 3)], 3
    if kind == "fn":
        return [tree[1], "(", *_render(tree[2], minimal)[0], ")"], 5
    left, right = _NEEDS[tree[1]]
    return [*wrap(tree[2], left), tree[1], *wrap(tree[3], right)], _LEVEL[tree[1]]


_REJECTED = [
    "2**3", "+x1", "1_0", "0x1", "1j", "1 # c", "abs(x1)", "x1(2)", "exp", "exp(1, 2)",
    "exp(x=1)", "x1.real", "[x1]", "x1 if 1 else 2", '__import__("os")', '"1"', "True",
    "1 % 2", "\uff581",
    "(" * 250 + "1" + ")" * 250,
    "+".join(["x1"] * 1000),
    "^".join(["x1"] * 3000),
]


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tree=_TREES, minimal=st.booleans(), data=st.data())
    def test_values_match_direct_evaluation(self, tree, minimal, data):
        """Rendered with any parentheses and spacing, a tree keeps its value bit for bit."""
        tokens = _render(tree, minimal)[0]
        spaces = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t"]),
                                    min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        text = "".join(w + t for w, t in zip(spaces, tokens + [""]))
        with np.errstate(all="ignore"):
            try:
                want = _direct(tree, _PTS) * np.ones(_PTS.shape[0])
            except ArithmeticError as exc:
                with pytest.raises(type(exc)):
                    parse_expression(text)(_PTS)
                return
            got = parse_expression(text)(_PTS)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), text

    @pytest.mark.parametrize("text", _REJECTED, ids=lambda t: t if len(t) < 20 else f"deep{len(t)}")
    def test_rejects(self, text):
        with pytest.raises(SceneError):
            parse_expression(text)

    @pytest.mark.parametrize("text, want", [
        ("01", lambda x1, x2: 1.0),
        ("1.", lambda x1, x2: 1.0),
        (".5e1", lambda x1, x2: 5.0),
        ("x1 ", lambda x1, x2: x1),
        ("-x1^2", lambda x1, x2: -(x1 ** 2)),
        ("-2^2", lambda x1, x2: -4.0),
        ("2^-1", lambda x1, x2: 0.5),
        ("x1*-x2", lambda x1, x2: x1 * -x2),
    ])
    def test_accepts(self, text, want):
        assert np.array_equal(parse_expression(text)(_PTS), want(_PTS[:, 0], _PTS[:, 1]) * np.ones(3))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(text=st.text(alphabet="0123456789.eE+-*/^() \txtsincop", max_size=24))
    def test_any_text_parses_or_raises_scene_error(self, text):
        try:
            parse_expression(text)
        except SceneError:
            pass


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
            },
            2,
        )
        assert len(dom.components) == 2

    def test_star_and_capped(self):
        star = load_domain(
            {"kind": "star", "center": [0, 0], "r0": 1.0, "cos_coeffs": [0, 0, 0.1]},
            2,
        )
        assert star.components[0].inside(np.array([[0.0, 0.0]]))[0]
        capped = load_domain({"kind": "capped", "K": 10.0, "cubic": 0.1}, 2)
        assert capped.components[0].cap.K == 10.0

    def test_capped_overflowing_M_is_named(self):
        # M^(3/2) overflows a float; the message names M, not the errno.
        with pytest.raises(SceneError, match=r"\bM = 1e\+300\b"):
            load_domain({"kind": "capped", "K": 8, "M": 1e300}, 2)

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cgo_incident(self, dim):
        cfg = {
            "dimension": dim,
            "wavenumber": 0.5,
            "domain": {"kind": "ball", "center": [0] * dim, "radius": 1.0},
            "contrast": {"kind": "constant", "value": 0.1},
            "incident": {"kind": "cgo", "tau": 1.5},
        }
        scene = load_medium_scene(cfg)
        assert isinstance(scene.incident, CgoVector)
        rho = np.zeros(dim, dtype=complex)
        rho[0], rho[-1] = 1.5j, -1.5
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, dim))
        want = np.exp(pts @ rho)
        got = scene.incident_values(pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
