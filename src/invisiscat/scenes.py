"""JSON scene schema and the small arithmetic expression grammar.

Scene files describe a scatterer declaratively:

    {
      "dimension": 2,
      "wavenumber": 1.0,
      "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
      "intensity": {"kind": "constant", "value": 1.0},
      "incident": {"kind": "plane_wave", "direction": [1, 0]}
    }

Domain kinds: ball, annulus, box, star, capped, union.  Intensity and
contrast kinds: constant (scalar or [re, im]), expression (grammar
below, coordinates x1..xn), grid (npz with origin/spacing/values,
nearest-cell lookup, zero outside).  Incident kinds: plane_wave,
herglotz (density expression in the angle t), cgo (tau).

Expression grammar (recursive descent, no eval):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | x1..x3 | t | (exp|sin|cos) '(' expr ')' | '(' expr ')'
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import zipfile

import numpy as np

from .geometry import (
    AnnulusComponent,
    BallComponent,
    BoxComponent,
    CappedComponent,
    Domain,
    StarComponent,
    make_curvature_cap,
)
from .errors import ConfigError
from .medium import CgoIncident, HerglotzWave, MediumScene, PlaneWave
from .source import SourceScene
from .transmission import RadialITP

__all__ = [
    "SceneError",
    "parse_expression",
    "load_domain",
    "domain_to_spec",
    "load_source_scene",
    "load_medium_scene",
    "load_itp",
    "read_json",
]


class SceneError(ConfigError):
    """Malformed scene configuration."""


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise SceneError(f"bad token at position {pos}: {text[pos:pos+10]!r}")
        if m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise SceneError(f"expected {op!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise SceneError("trailing tokens in expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = (
                (lambda a, b: lambda env: a(env) + b(env))
                if op == "+"
                else (lambda a, b: lambda env: a(env) - b(env))
            )(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            node = (
                (lambda a, b: lambda env: a(env) * b(env))
                if op == "*"
                else (lambda a, b: lambda env: a(env) / b(env))
            )(node, rhs)
        return node

    def factor(self):
        # Unary minus binds looser than the power: -x^2 = -(x^2).
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda env, a=inner: -a(env)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.factor()  # right associative, absorbs unary minus
            return lambda env, a=base, b=expo: a(env) ** b(env)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return lambda env, c=val: c
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda env, f=_FUNCS[val], a=arg: f(a(env))
            if val in self.variables:
                idx = self.variables.index(val)
                return lambda env, i=idx: env[i]
            raise SceneError(f"unknown identifier {val!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SceneError(f"unexpected token {val!r}")


def parse_expression(text: str, variables=("x1", "x2", "x3")):
    """Compile an expression into fn(pts) -> values over point columns."""
    node = _Parser(_tokenize(text), list(variables)).parse()

    def fn(pts):
        pts = np.atleast_2d(pts)
        env = [pts[:, i] if i < pts.shape[1] else 0.0 for i in range(len(variables))]
        return node(env) * np.ones(pts.shape[0])

    return fn


def parse_angle_expression(text: str):
    node = _Parser(_tokenize(text), ["t"]).parse()

    def fn(angles):
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if angles.ndim > 1:
            angles = angles[:, 0]
        return node([angles]) * np.ones(angles.shape[0])

    return fn


# ---------------------------------------------------------------------------
# Scene assembly
# ---------------------------------------------------------------------------


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc


@contextlib.contextmanager
def _scene_errors():
    """Report a malformed value anywhere below a loader as a SceneError.

    Also silences numpy's floating-point warnings: the loaders test
    every value they sample for finiteness themselves.
    """
    try:
        with np.errstate(all="ignore"):
            yield
    except SceneError:
        raise
    except KeyError as exc:
        raise SceneError(f"scene missing field {exc}") from exc
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise SceneError(str(exc)) from exc


def _object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise SceneError(f"{what} must be a JSON object, got {type(spec).__name__}")
    return spec


def _finite(values, what: str):
    if not np.all(np.isfinite(values)):
        raise SceneError(f"{what} must be finite on the support")


def _point(spec: dict, key: str, dim: int) -> np.ndarray:
    p = np.asarray(spec[key], dtype=float)
    if p.shape != (dim,) or not np.all(np.isfinite(p)):
        raise SceneError(f"{key} must hold {dim} finite numbers, got {spec[key]!r}")
    return p


def _number(spec: dict, key: str) -> float:
    x = float(spec[key])
    if not math.isfinite(x):
        raise SceneError(f"{key} must be finite, got {spec[key]!r}")
    return x


def _length(spec: dict, key: str) -> float:
    r = _number(spec, key)
    if r <= 0:
        raise SceneError(f"{key} must be finite and positive, got {spec[key]!r}")
    return r


def _component(spec, dim: int):
    kind = _object(spec, "domain component").get("kind")
    if kind == "ball":
        return BallComponent(_point(spec, "center", dim), _length(spec, "radius"), dim=dim)
    if kind == "annulus":
        return AnnulusComponent(
            _point(spec, "center", dim),
            _length(spec, "r_inner"),
            _length(spec, "r_outer"),
            dim=dim,
        )
    if kind == "box":
        return BoxComponent(_point(spec, "lo", dim), _point(spec, "hi", dim))
    if kind == "star":
        r0 = _length(spec, "r0")
        cos_c = spec.get("cos_coeffs", [])
        sin_c = spec.get("sin_coeffs", [])

        def radial(th, r0=r0, cos_c=cos_c, sin_c=sin_c):
            out = np.full_like(np.asarray(th, dtype=float), r0)
            for j, c in enumerate(cos_c, start=1):
                out = out + r0 * c * np.cos(j * th)
            for j, c in enumerate(sin_c, start=1):
                out = out + r0 * c * np.sin(j * th)
            return out

        center = _point(spec, "center", dim) if "center" in spec else np.zeros(dim)
        return StarComponent(center, radial, dim=dim)
    if kind == "capped":
        cap = make_curvature_cap(
            _length(spec, "K"),
            spec.get("cubic", 0.0),
            L=spec.get("L", 1.0),
            M=spec.get("M", 2.0),
            delta=spec.get("delta", 0.5),
            n=dim,
        )
        return CappedComponent(
            cap,
            bulk_width=spec.get("bulk_width", 0.35),
            bulk_height=spec.get("bulk_height", 0.5),
            apex=None if spec.get("apex") is None else _point(spec, "apex", dim),
        )
    raise SceneError(f"unknown domain kind {kind!r}")


def load_domain(spec: dict, dim: int) -> Domain:
    with _scene_errors():
        if _object(spec, "domain").get("kind") != "union":
            return Domain([_component(spec, dim)])
        comps = [_component(c, dim) for c in spec.get("components", [])]
        if not comps:
            raise SceneError("union domain needs at least one component")
        # Quadrature joins the components' nodes, so overlap would count twice.
        for i, comp in enumerate(comps):
            pts, _ = comp.quad_nodes()
            for j, other in enumerate(comps):
                if j != i and np.any(other.inside(pts)):
                    raise SceneError(f"union components {i} and {j} overlap")
        return Domain(comps, well_separated=bool(spec.get("well_separated", False)))


def _component_spec(comp) -> dict:
    if isinstance(comp, BallComponent):
        return {
            "kind": "ball",
            "center": comp.center.tolist(),
            "radius": comp.radius,
        }
    if isinstance(comp, AnnulusComponent):
        return {
            "kind": "annulus",
            "center": comp.center.tolist(),
            "r_inner": comp.r_inner,
            "r_outer": comp.r_outer,
        }
    if isinstance(comp, BoxComponent):
        return {"kind": "box", "lo": comp.lo.tolist(), "hi": comp.hi.tolist()}
    if isinstance(comp, CappedComponent):
        return {
            "kind": "capped",
            "K": comp.cap.K,
            "cubic": comp.cap.c3,
            "L": comp.cap.L,
            "M": comp.cap.M,
            "delta": comp.cap.delta,
            "bulk_width": comp.bulk_width,
            "bulk_height": comp.bulk_height,
            "apex": comp.apex.tolist(),
        }
    raise SceneError(f"component {type(comp).__name__} has no JSON form")


def domain_to_spec(domain: Domain) -> dict:
    """Inverse of ``load_domain`` for the closed-form component kinds."""
    if len(domain.components) == 1 and not domain.well_separated:
        return _component_spec(domain.components[0])
    return {
        "kind": "union",
        "components": [_component_spec(c) for c in domain.components],
        "well_separated": domain.well_separated,
    }


def _field_fn(spec, what: str, dim: int):
    kind = _object(spec, what).get("kind")
    if kind == "constant":
        val = spec.get("value", 1.0)
        if isinstance(val, (list, tuple)):
            if len(val) != 2:
                raise SceneError(f"{what} value must be a number or [re, im], got {val!r}")
            val = complex(val[0], val[1])
        return complex(val)
    if kind == "expression":
        return parse_expression(spec["expr"], [f"x{i+1}" for i in range(dim)])
    if kind == "grid":
        path = spec["path"]
        try:
            with np.load(path) as data:
                origin = np.asarray(data["origin"], dtype=float)
                spacing = float(data["spacing"])
                values = np.asarray(data["values"])
        except (OSError, TypeError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise SceneError(f"cannot read grid file {path}: {exc!r}") from exc
        if origin.shape != (dim,) or values.ndim != dim:
            raise SceneError(f"grid file {path} does not hold a {dim}-d grid")
        if not (math.isfinite(spacing) and spacing > 0):
            raise SceneError(f"grid file {path}: spacing must be finite and positive")

        def fn(pts):
            idx = np.round((np.atleast_2d(pts) - origin) / spacing).astype(int)
            ok = np.all((idx >= 0) & (idx < np.array(values.shape)), axis=1)
            out = np.zeros(pts.shape[0], dtype=complex)
            out[ok] = values[tuple(idx[ok].T)]
            return out

        return fn
    raise SceneError(f"unknown {what} kind {kind!r}")


def _incident(spec, dim: int):
    kind = _object(spec, "incident").get("kind")
    if kind == "plane_wave":
        return PlaneWave(_point(spec, "direction", dim))
    if kind == "herglotz":
        n_quad = spec.get("n_quad", 256)
        if not (isinstance(n_quad, int) and n_quad >= 1):
            raise SceneError(f"n_quad must be a positive integer, got {n_quad!r}")
        return HerglotzWave(parse_angle_expression(spec["density"]), n_quad=n_quad)
    if kind == "cgo":
        tau = _number(spec, "tau")
        if int(spec.get("dimension", dim)) != dim:
            raise SceneError("cgo incident dimension differs from the scene's")
        rho = np.zeros(dim, dtype=complex)
        rho[0] = 1j * tau
        rho[-1] = -tau
        return CgoIncident(rho)
    raise SceneError(f"unknown incident kind {kind!r}")


def _dimension(dim) -> int:
    if dim not in (2, 3):
        raise SceneError(f"dimension must be 2 or 3, got {dim!r}")
    return int(dim)


def _frame(cfg) -> tuple[int, float, Domain]:
    """The dimension, wavenumber and domain that every scene shares."""
    dim = _dimension(_object(cfg, "scene")["dimension"])
    return dim, _length(cfg, "wavenumber"), load_domain(cfg["domain"], dim)


def load_source_scene(cfg: dict) -> SourceScene:
    with _scene_errors():
        dim, k, domain = _frame(cfg)
        scene = SourceScene(domain, _field_fn(cfg["intensity"], "intensity", dim), k, dim)
        _finite(scene.intensity(domain.quad_nodes(16)[0]), "intensity")
    return scene


def load_medium_scene(cfg: dict) -> MediumScene:
    with _scene_errors():
        dim, k, domain = _frame(cfg)
        phi = _field_fn(cfg["contrast"], "contrast", dim)
        default = {"kind": "plane_wave", "direction": [1.0] + [0.0] * (dim - 1)}
        incident = _incident(cfg.get("incident", default), dim)
        scene = MediumScene(domain, phi, k, incident, dim)
        # Finite, with Im V >= 0, on the nodes where default_spacing samples it.
        nodes = domain.quad_nodes(16)[0]
        _finite(scene.contrast(nodes), "contrast")
        _finite(scene.incident_values(nodes), "incident field")
    return scene


def load_itp(cfg: dict) -> RadialITP:
    """Radial transmission problem from {"radius", "contrast", "dimension"}."""
    with _scene_errors():
        _object(cfg, "transmission config")
        return RadialITP(
            R=_length(cfg, "radius"),
            v0=_number(cfg, "contrast"),
            n=_dimension(cfg.get("dimension", 2)),
        )
