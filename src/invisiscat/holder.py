"""Discrete Hoelder norms and boundary suprema.

The discrete C^alpha norm is sup|f| plus a seminorm maximized over a
pair subsample: every pair closer than four grid spacings plus a fixed
seeded batch of long-range pairs.  Smooth fields attain their seminorm
at short range, so the subsampled value is a lower bound converging
under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalFailure
from .kernels import _coverage_subsample

__all__ = [
    "PrecondViolated",
    "SampledFunction",
    "sample_on_grid",
    "holder_norm",
    "boundary_sup",
]

_PAIR_SEED = 20240901
_LONG_RANGE_PAIRS = 10**5


class PrecondViolated(NumericalFailure):
    """Input pair does not satisfy the PDE/boundary hypotheses."""


@dataclass
class SampledFunction:
    """Complex samples on points inside a domain, with spacing metadata."""

    points: np.ndarray
    values: np.ndarray
    spacing: float
    weights: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values)
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points/values length mismatch")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled values must be finite")


def sample_on_grid(domain, fn, spacing: float) -> SampledFunction:
    """Sample a callable on the regular grid nodes inside a domain.

    The quadrature weight of a node is its cell measure times the cell's
    coverage on the 6^n subsample of ``kernels._coverage_subsample``, so
    cut cells get fractional weight.
    """
    lo, hi = domain.bounding_box(pad=0.5 * spacing)
    axes = [np.arange(lo[d] + spacing / 2, hi[d], spacing) for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts_in = pts[domain.inside(pts)]
    return SampledFunction(
        points=pts_in,
        values=np.asarray(fn(pts_in)),
        spacing=spacing,
        weights=spacing**domain.dim * _coverage_subsample(domain, pts_in, spacing, sub=6),
        fn=fn,
    )


def _pair_indices(points: np.ndarray, spacing: float):
    import scipy.spatial  # deferred to first use: most runs build no k-d tree

    n = points.shape[0]
    tree = scipy.spatial.cKDTree(points)
    near = tree.query_pairs(4.0 * spacing, output_type="ndarray")
    rng = np.random.default_rng(_PAIR_SEED)
    k = min(_LONG_RANGE_PAIRS, 4 * n * max(1, int(math.log2(max(n, 2)))))
    i = rng.integers(0, n, size=k)
    j = rng.integers(0, n, size=k)
    keep = i != j
    far = np.stack([i[keep], j[keep]], axis=-1)
    if near.size == 0:
        return far
    return np.concatenate([near, far], axis=0)


def holder_norm(f: SampledFunction, alpha: float) -> float:
    """Discrete C^alpha norm: sup|f| + subsampled Hoelder seminorm.

    A lower bound of the continuum norm that converges under grid
    refinement for alpha in (0, 1].
    """
    if not (0 < alpha <= 1):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha!r}")
    if f.points.shape[0] < 2:
        return float(np.max(np.abs(f.values))) if f.points.shape[0] else 0.0
    sup = float(np.max(np.abs(f.values)))
    pairs = _pair_indices(f.points, f.spacing)
    d = np.sqrt(
        np.sum((f.points[pairs[:, 0]] - f.points[pairs[:, 1]]) ** 2, axis=1)
    )
    good = d > 0
    num = np.abs(f.values[pairs[good, 0]] - f.values[pairs[good, 1]])
    semi = float(np.max(num / d[good] ** alpha)) if np.any(good) else 0.0
    return sup + semi


def boundary_sup(f: SampledFunction, domain, count: int | None = None) -> float:
    """sup of |f| on the domain's boundary points.

    Uses the generating callable when available; otherwise the nearest
    interior sample (O(spacing) interpolation error).
    """
    bpts = domain.boundary_points(count)
    if f.fn is not None:
        return float(np.max(np.abs(np.asarray(f.fn(bpts)))))
    import scipy.spatial

    tree = scipy.spatial.cKDTree(f.points)
    _, idx = tree.query(bpts, k=1)
    return float(np.max(np.abs(f.values[idx])))
