"""Forward source scattering: field, far-field pattern, radiationless radii.

The source f = chi_Omega phi radiates u = (Delta + k^2)^{-1} f with the
Sommerfeld outgoing condition; its far-field pattern is

    u_inf(xhat) = C_{n,k} int e^{-i k xhat . y} f(y) dy,

a scaled restriction of the Fourier transform of f to the sphere of
radius k.  A constant source on a ball is radiationless exactly when
k r_0 hits a zero of J_{n/2}, the classical invisibility example this
module reproduces and perturbs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import jv

from .errors import ConfigError, NumericalFailure
from .geometry import (
    _antipodes,
    _ball_nodes,
    _disk_nodes,
    _gauss_legendre,
    _sq_dist,
    _sq_norm,
    sphere_directions,
)
from .holder import boundary_sup, holder_norm, sample_on_grid
from .kernels import far_field_constant, green_kernel, make_support_grid
from .quadrature import _bisect

__all__ = [
    "QuadratureFailure",
    "SourceScene",
    "FarField",
    "write_csv",
    "far_field",
    "solve_field",
    "radiationless_radius",
    "visibility_ratio",
]


# Bound on the (targets, live cells) entries ``solve_field`` forms per
# block; 2^16 raises the benchmark disk's peak RSS by 3.4 MB and runs no
# faster.
_BLOCK_ENTRIES = 2**14

# Radius, in grid cells, of the ball around a target that solve_field
# integrates in polar form instead of summing cells.
_NEAR_RADIUS_CELLS = 2.0

# Fewest far-field directions far_field accepts.
MIN_DIRS = 8


class QuadratureFailure(NumericalFailure):
    """Field quadrature could not reach its target accuracy."""


def _check_wavenumber(k: float) -> None:
    """Raise ConfigError unless the wavenumber k is finite and positive."""
    if not (math.isfinite(k) and k > 0):
        raise ConfigError(f"wavenumber must be finite and positive, got {k!r}")


def _check_finite(density: np.ndarray, what: str) -> None:
    """Raise ConfigError unless every value of a density a solver integrates is finite."""
    if not np.all(np.isfinite(density)):
        raise ConfigError(f"{what} is not finite on the solver's nodes")


@dataclass
class SourceScene:
    """Monochromatic active source: support, intensity, wavenumber."""

    domain: object
    phi: Callable[[np.ndarray], np.ndarray] | complex
    k: float
    n: int = 2

    def __post_init__(self):
        _check_wavenumber(self.k)
        if self.domain.dim != self.n:
            raise ValueError("domain dimension mismatch")

    def intensity(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.phi):
            return np.asarray(self.phi(pts), dtype=complex)
        return np.full(pts.shape[0], complex(self.phi))

    def source_values(self, pts: np.ndarray) -> np.ndarray:
        """The source chi_Omega phi, reading phi only at points inside the support."""
        inside = self.domain.inside(pts)
        out = np.zeros(pts.shape[0], dtype=complex)
        out[inside] = self.intensity(pts[inside])
        return out

    def quad_target(self) -> int:
        # >= 10 nodes per wavelength across the largest component scale,
        # capped (also against overflow) far above far_field's budget.
        size = self.domain.diameter()
        per_axis = min(10.0 * self.k * size / (2.0 * math.pi), 1e6)
        return max(32, int(math.ceil(per_axis)) + 24)


@dataclass
class FarField:
    """Far-field samples on a full uniform direction grid."""

    directions: np.ndarray
    values: np.ndarray
    k: float
    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("far-field directions must be unit vectors")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))

    def relative_l2_difference(self, other: "FarField") -> float:
        diff = self.values - other.values
        denom = max(self.l2_norm(), other.l2_norm(), 1e-300)
        return float(np.sqrt(np.sum(self.weights * np.abs(diff) ** 2))) / denom

    def to_csv(self, path):
        header = ["theta"] if self.angles.shape[1] == 1 else ["theta", "phi"]
        rows = np.column_stack((self.angles, self.values.real, self.values.imag))
        write_csv(path, header + ["re", "im"], rows)

    def to_json(self, path):
        payload = {
            "wavenumber": self.k,
            "angles": self.angles.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def write_csv(path, header, rows) -> None:
    """RFC-4180 table: floats, numpy's included, as ``repr(float(x))``, all else by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row]
            )


def _point_far_field(
    pts: np.ndarray, weighted: np.ndarray, k: float, n: int, n_dirs: int
) -> FarField:
    """C_{n,k} sum_j e^{-ik xhat . y_j} weighted_j on ``n_dirs`` directions xhat.

    With a = k xhat . y real, e^{-ia} = cos a - i sin a at xhat and
    cos a + i sin a at -xhat.  The phases are formed for one direction of
    each antipodal pair of ``sphere_directions`` (``_antipodes``) and kept
    as real cos and sin tables; two real products with the (P, 2) matrix
    [Re w, Im w] give both directions' sums.  A direction with no antipode
    in the set (an odd 2-d count) is its own representative.
    """
    dirs, w_dirs, angles = sphere_directions(n, n_dirs)
    rep, anti = _antipodes(n, n_dirs)
    # [Re w, Im w] as a (P, 2) view, and each (reps, 2) product back as complex.
    w_ri = np.ascontiguousarray(weighted, dtype=complex).view(float).reshape(-1, 2)
    a = k * (dirs[rep] @ pts.T)
    cos_w = (np.cos(a) @ w_ri).view(complex)[:, 0]
    sin_w = (np.sin(a, out=a) @ w_ri).view(complex)[:, 0]
    vals = np.empty(dirs.shape[0], dtype=complex)
    vals[rep] = cos_w - 1j * sin_w
    vals[anti] = (cos_w + 1j * sin_w)[: anti.size]
    vals *= far_field_constant(n, k)
    return FarField(directions=dirs, values=vals, k=k, weights=w_dirs, angles=angles)


def far_field(scene: SourceScene, n_dirs: int = 64) -> FarField:
    """Far-field pattern by direct quadrature; ConfigError if the intensity is not finite.

    The sum over the support's quadrature nodes runs in real arithmetic,
    with the phases formed once per antipodal direction pair
    (``_point_far_field``).
    """
    if n_dirs < MIN_DIRS:
        raise ConfigError(f"need at least {MIN_DIRS} directions, got {n_dirs!r}")
    target = scene.quad_target()
    if target**scene.n > 10**6:
        raise QuadratureFailure(
            f"resolving {target} nodes per axis across the support exceeds "
            "the oscillatory quadrature budget"
        )
    pts, w = scene.domain.quad_nodes(target)
    weighted = w * scene.intensity(pts)
    _check_finite(weighted, "intensity")
    return _point_far_field(pts, weighted, scene.k, scene.n, n_dirs)


def solve_field(
    scene: SourceScene,
    eval_points: np.ndarray,
    spacing: float | None = None,
) -> np.ndarray:
    """Radiating field u(x) = int G_k(x - y) f(y) dy at given points.

    The plain quadrature sum runs over the live cells (nonzero f times
    coverage) only, for a block of targets at a time: the (targets,
    cells) distance array is bounded by ``_BLOCK_ENTRIES`` entries,
    summed one coordinate at a time (``geometry._sq_dist``), and reduced
    along the cell axis by a matrix product.  The kernel is evaluated on
    the whole block, and its entries for cells within
    ``_NEAR_RADIUS_CELLS`` grid cells of a target are then zeroed, which
    leaves those cells out of its sum (a target on a cell centre gives
    inf or nan there, overwritten without a warning).  A target that has
    such a live cell gets polar-coordinate quadrature of the kernel
    singularity over that ball instead; a block's near targets are
    corrected together, in one ``source_values`` call and one row-wise
    sum (split further only if their polar nodes would exceed
    ``_BLOCK_ENTRIES``).  The intensity is read only at the centres of
    the cells the support touches (coverage > 0) and at the polar nodes
    inside the support: it must be finite at each of those centres, and
    need not be elsewhere on the grid.
    Evaluation points that are not a finite (m, n) array, n the scene's
    dimension, raise ConfigError; so does an intensity that is not finite
    at one of those centres.  A grid of more than ``kernels._MAX_CELLS``
    cells raises NumericalFailure.
    """
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if eval_points.ndim != 2 or eval_points.shape[1] != scene.n:
        raise ConfigError(
            f"evaluation points must be an (m, {scene.n}) array, got shape {eval_points.shape}"
        )
    if not np.all(np.isfinite(eval_points)):
        raise ConfigError("evaluation points must be finite")
    if spacing is None:
        lam = 2.0 * math.pi / scene.k
        spacing = min(lam / 20.0, scene.domain.diameter() / 48.0)
    grid = make_support_grid(scene.domain, spacing)
    f_grid = grid.on_support(scene.intensity)
    _check_finite(f_grid, "intensity")
    live = np.flatnonzero(f_grid)
    cells, f_live = grid.points[live], f_grid[live]
    w_cell = grid.spacing**scene.n
    r_cut = _NEAR_RADIUS_CELLS * grid.spacing
    out = np.empty(eval_points.shape[0], dtype=complex)
    # Polar correction rule on B(0, r_cut) around near targets.
    r, wr = _gauss_legendre(12, 0.0, r_cut)
    offs, wq = _disk_nodes(r, wr, 16) if scene.n == 2 else _ball_nodes(r, wr, 8, 16)
    ker_w = wq * green_kernel(scene.n, scene.k, np.sqrt(_sq_norm(offs)))
    block = max(1, _BLOCK_ENTRIES // max(1, live.size))
    near_rows = max(1, _BLOCK_ENTRIES // ker_w.size)
    for start in range(0, eval_points.shape[0], block):
        x = eval_points[start : start + block]
        d = np.sqrt(_sq_dist(x[:, None, :], cells))
        # A target on a node (d = 0) makes inf or nan here; zeroed with the ball.
        with np.errstate(divide="ignore", invalid="ignore"):
            g = green_kernel(scene.n, scene.k, d)
        in_ball = d <= r_cut
        np.copyto(g, 0.0, where=in_ball)
        out[start : start + block] = (g @ f_live) * w_cell
        # Singular ball: integral of G * f over B(x, r_cut) in polar form.
        near = np.flatnonzero(np.any(in_ball, axis=1))
        for i in range(0, near.size, near_rows):
            rows = near[i : i + near_rows]
            vals = scene.source_values((x[rows, None, :] + offs).reshape(-1, scene.n))
            out[start + rows] += np.sum(ker_w * vals.reshape(rows.size, -1), axis=1)
    return out


def radiationless_radius(k: float, n: int, branch_index: int = 1) -> float:
    """Radius r_0 = j_(n/2, m) / k of the m-th radiationless constant ball.

    J_(n/2) is sampled every 0.05 up to (m + n/4 + 1) pi, beyond
    j_(n/2, m) <= (m + n/4 - 1/4) pi, but never past 1000, and its m-th
    sign change is bisected.  NumericalFailure if the samples hold fewer
    than m sign changes.
    """
    _check_wavenumber(k)
    if branch_index < 1:
        raise ValueError("branch_index counts positive zeros from 1")
    nu = n / 2.0
    # The integer min keeps a huge branch_index from overflowing a float.
    x_max = min((min(branch_index, 1000) + n / 4.0 + 1.0) * math.pi, 1000.0)
    x = np.concatenate(([1e-6], 0.05 * np.arange(1, math.ceil(x_max / 0.05))))
    f = jv(nu, x)
    change = np.flatnonzero(f[:-1] * f[1:] < 0)
    if change.size < branch_index:
        raise NumericalFailure("zero scan exhausted")
    i = change[branch_index - 1]
    root = _bisect(lambda t: jv(nu, t), x[[i]], x[[i + 1]], f_lo=f[[i]])
    return float(root[0]) / k


def visibility_ratio(
    scene: SourceScene, alpha: float, spacing: float | None = None
) -> float:
    """(sup_bdry |phi| / ||phi||_C^alpha) / diam(Omega)^alpha."""
    if spacing is None:
        spacing = scene.domain.diameter() / 64.0
    f = sample_on_grid(scene.domain, scene.intensity, spacing)
    norm = holder_norm(f, alpha)
    if norm == 0:
        return 0.0
    bs = boundary_sup(scene.intensity, scene.domain)
    return (bs / norm) / scene.domain.diameter() ** alpha
