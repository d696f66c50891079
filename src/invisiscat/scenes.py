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
herglotz (density expression in the angle t), cgo (tau > 0).

Expression grammar (ASCII only):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | x1..x3 | t | (exp|sin|cos) '(' expr ')' | '(' expr ')'

This is Python's own precedence with '^' for '**', so an expression is
parsed by ``ast.parse`` and run by ``eval``.  That is safe because every
node of the tree is checked first against a whitelist that admits only
the arithmetic above, the three functions and the coordinate names, and
``eval`` sees no builtins.  Numbers evaluate as floats.  Input nested
too deeply for Python's parser or compiler is a ``SceneError``.
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
import re
import warnings
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
from .cgo import CgoVector
from .medium import HerglotzWave, MediumScene, PlaneWave
from .source import SourceScene
from .transmission import RadialITP

__all__ = [
    "SceneError",
    "parse_expression",
    "load_domain",
    "load_source_scene",
    "load_medium_scene",
    "load_itp",
    "read_json",
]


class SceneError(ConfigError):
    """Malformed scene configuration."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
          ast.UnaryOp, ast.USub, ast.Name, ast.Load)


def _compile(text: str, variables):
    """Check ``text`` against the grammar and compile it to bytecode."""
    if not text.isascii() or "**" in text or "#" in text:
        raise SceneError(f"expression must be ASCII without '**' or '#': {text!r}")
    # Python refuses leading zeros on integers ("01"); the grammar allows them.
    text = re.sub(r"(?<![\w.])0+(?=\d)", "", re.sub(r"\s+", " ", text).strip())
    text = text.replace("^", "**")
    try:
        with warnings.catch_warnings():  # Python only warns on "1in x1"; refuse it
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(text, mode="eval")
        callees = set()
        for node in ast.walk(tree):  # iterative: deep trees do not recurse here
            if isinstance(node, ast.Call):
                if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                        and len(node.args) == 1 and not node.keywords):
                    raise SceneError(f"only exp, sin or cos of one argument: {text!r}")
                callees.add(node.func)
            elif isinstance(node, ast.Name):
                if node.id not in variables and node not in callees:
                    raise SceneError(f"unknown identifier {node.id!r}")
            elif isinstance(node, ast.Constant):
                digits = ast.get_source_segment(text, node)
                if not _NUMBER.fullmatch(digits):
                    raise SceneError(f"bad number {digits!r}")
                node.value = float(digits)  # with ints, 9^9^9 would build a huge integer
            elif not isinstance(node, _NODES):
                raise SceneError(f"{type(node).__name__} is not allowed in expressions")
        return compile(tree, "<expression>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # MemoryError: parser depth limit
        reason = exc.msg if isinstance(exc, SyntaxError) else "nested too deeply"
        raise SceneError(f"cannot parse expression {text[:40]!r}: {reason}") from exc


def parse_expression(text: str, variables=("x1", "x2", "x3")):
    """Compile an expression into fn(pts) -> values over point columns."""
    code = _compile(text, variables)

    def fn(pts):
        pts = np.atleast_2d(pts)
        env = {v: pts[:, i] if i < pts.shape[1] else 0.0 for i, v in enumerate(variables)}
        return eval(code, {"__builtins__": {}, **_FUNCS}, env) * np.ones(pts.shape[0])

    return fn


def parse_angle_expression(text: str):
    """Compile an expression in t, the first column of the angles, into fn(angles)."""
    fn = parse_expression(text, ("t",))
    return lambda angles: fn(np.reshape(angles, (len(angles), -1)))


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


_CAPPED_DEFAULTS = {
    "cubic": 0.0, "L": 1.0, "M": 2.0, "delta": 0.5, "bulk_width": 0.35, "bulk_height": 0.5,
}


def _component(spec, dim: int):
    kind = _object(spec, "domain component").get("kind")
    if kind == "ball":
        return BallComponent(_point(spec, "center", dim), _length(spec, "radius"), dim=dim)
    if kind == "annulus":
        return AnnulusComponent(
            _point(spec, "center", dim), _length(spec, "r_inner"), _length(spec, "r_outer")
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
        return StarComponent(center, radial)
    if kind == "capped":
        spec = {**_CAPPED_DEFAULTS, **spec}
        cap = make_curvature_cap(
            _length(spec, "K"),
            _number(spec, "cubic"),
            L=_length(spec, "L"),
            M=_length(spec, "M"),
            delta=_length(spec, "delta"),
            n=dim,
        )
        return CappedComponent(
            cap,
            bulk_width=_length(spec, "bulk_width"),
            bulk_height=_length(spec, "bulk_height"),
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
        return Domain(comps)


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
        if int(spec.get("dimension", dim)) != dim:
            raise SceneError("cgo incident dimension differs from the scene's")
        return CgoVector.canonical(_number(spec, "tau"), dim)
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
        scene = MediumScene(domain, phi, k, incident)
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
