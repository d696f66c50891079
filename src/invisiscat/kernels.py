"""Outgoing Helmholtz kernels and grid convolution.

The resolvent (Delta + k^2)^{-1} acts by convolution with

    G_k(r) = -(i/4) (k/(2 pi))^((n-2)/2) r^((2-n)/2) H^(1)_((n-2)/2)(k r),

which is -(i/4) H_0^(1)(k r) in the plane and -exp(ikr)/(4 pi r) in
space.  The planar kernel is evaluated as -(i/4) (J_0(kr) + i Y_0(kr))
with the real-argument Cephes routines ``scipy.special.j0``/``y0``;
they agree with the complex-argument ``hankel1(0, .)`` to a few ulps and
cost about a quarter as much.  On a regular grid the convolution is
Toeplitz and applied by FFT; the singular self-cell is replaced by the
exact integral of the kernel over the area/volume-equivalent disk or
ball, an O(h^2)-accurate Nystroem correction.

A grid with N_d nodes on axis d needs the offsets -(N_d - 1) .. N_d - 1,
so the circulant embedding has length ``scipy.fft.next_fast_len(2 N_d - 1)``
per axis, a length with no prime factor above 11.  The kernel depends on
|offset| only: it is evaluated on the nonnegative offsets (one orthant,
N_d per axis) and mirrored into the wrapped negative-offset slots.

The grid is a tensor product of its axes, so exp(z . x) = prod_d
exp(z_d x_d) on it, and plane-wave sums over the nodes (incident fields,
far-field moments) reduce to per-axis factor matrices and one matrix
product (``SupportGrid.plane_wave_sum`` and ``plane_wave_moments``).

Far fields use the stationary-phase constant

    C_{n,k} = (-i / sqrt(8 pi k)) (k/(2 pi))^((n-2)/2) e^{-(n-1) i pi/4},

the coefficient of e^{ikr} / r^((n-1)/2) in the large-r expansion of
G_k; both kernel and constant are cross-checked against each other in
the far-field consistency tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import digamma, j0, jv, y0, yv

from .errors import NumericalFailure

__all__ = [
    "far_field_constant",
    "green_kernel",
    "green_cell_integral",
    "green_disk_integral",
    "SupportGrid",
    "make_support_grid",
]


def far_field_constant(n: int, k: float) -> complex:
    """Coefficient C_{n,k} of the far-field pattern."""
    return (
        (-1j / math.sqrt(8.0 * math.pi * k))
        * (k / (2.0 * math.pi)) ** ((n - 2) / 2.0)
        * cmath.exp(-1j * (n - 1) * math.pi / 4.0)
    )


def green_kernel(n: int, k: float, r: np.ndarray) -> np.ndarray:
    """Outgoing free-space kernel G_k(|x - y|) on positive distances."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        kr = k * r
        return -0.25j * (j0(kr) + 1j * y0(kr))
    if n == 3:
        return -np.exp(1j * k * r) / (4.0 * math.pi * r)
    raise ValueError("kernels support n in {2, 3}")


def green_disk_integral(n: int, k: float, a: float) -> complex:
    """Exact integral of G_k over a ball of radius a centered at the pole.

    n=2: 2 pi int_0^a G r dr with int_0^a J_0(kr) r dr = a J_1(ka)/k and
    int_0^a Y_0(kr) r dr = (a/k) (Y_1(ka) + 2/(pi ka)).
    n=3: -int_0^a r e^{ikr} dr = -a^2 (e^z (z - 1) + 1)/z^2 with z = ika.
    Both closed forms cancel terms of size 1/k^2, so below k a = 1e-3
    ascending series replace them: DLMF 10.8.1 for Y_1(x) + 2/(pi x),
    and (e^z (z - 1) + 1)/z^2 = sum_{m >= 2} (m - 1) z^(m-2)/m!.
    """
    x = k * a
    if not x > 0:
        raise ValueError(f"k a = {x!r} must be positive")
    if n == 2:
        j1 = float(jv(1, x))
        int_j = a * j1 / k
        if x < 1e-3:
            # Y_1(x) + 2/(pi x) by DLMF 10.8.1; terms past m = 3 are below 1e-22.
            s = sum((digamma(m + 1) + digamma(m + 2)) * (-x * x / 4.0) ** m
                    / (math.factorial(m) * math.factorial(m + 1)) for m in range(4))
            int_y = a * (2.0 / math.pi * math.log(x / 2.0) * j1 - x / (2.0 * math.pi) * s) / k
        else:
            int_y = a * float(yv(1, x)) / k + 2.0 / (math.pi * k * k)
        return -0.25j * 2.0 * math.pi * (int_j + 1j * int_y)
    if n == 3:
        ika = 1j * k * a
        if x < 1e-3:  # terms past m = 8 are below 1e-18
            return -a * a * sum((m - 1) * ika ** (m - 2) / math.factorial(m) for m in range(2, 9))
        return -((cmath.exp(ika) * (ika - 1.0) + 1.0) / (1j * k) ** 2)
    raise ValueError("kernels support n in {2, 3}")


def green_cell_integral(n: int, k: float, h: float) -> complex:
    """Kernel integral over the grid cell, via the equal-measure ball."""
    if n == 2:
        a = h / math.sqrt(math.pi)
    else:
        a = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return green_disk_integral(n, k, a)


# ---------------------------------------------------------------------------
# Regular support grids with coverage weights
# ---------------------------------------------------------------------------


@dataclass
class SupportGrid:
    """Regular grid over a bounding box with per-cell coverage weights."""

    points: np.ndarray  # the nodes of ``axes``' tensor product, last axis fastest
    shape: tuple
    spacing: float
    axes: tuple  # node coordinates along each axis
    coverage: np.ndarray  # fraction of each cell inside the support

    @property
    def weights(self) -> np.ndarray:
        return self.coverage * self.spacing ** len(self.shape)

    def _factors(self, z: np.ndarray) -> list:
        """exp(z[q, d] x_d) along each axis d, as (N_d, Q) matrices."""
        if z.shape[1] != len(self.axes):
            raise ValueError(f"{z.shape[1]}-d exponents on a {len(self.axes)}-d grid")
        return [np.exp(np.multiply.outer(ax, z[:, d])) for d, ax in enumerate(self.axes)]

    def plane_wave_sum(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """sum_q c_q exp(z_q . x) at every node x, in ``points`` order.

        ``z`` is a (Q, n) array of complex exponents and ``c`` holds Q
        coefficients.
        """
        *lead, last = self._factors(z)
        return ((_row_kron(lead) * c) @ last.T).ravel()

    def plane_wave_moments(self, z: np.ndarray, density: np.ndarray) -> np.ndarray:
        """sum_x exp(z_q . x) density(x) over the nodes, for each row z_q of z."""
        *lead, last = self._factors(z)
        partial = density.reshape(-1, last.shape[0]) @ last
        return np.sum(_row_kron(lead) * partial, axis=0)


def _row_kron(factors: list) -> np.ndarray:
    """Column-wise Kronecker product: row (i, j, ...) holds f0[i] * f1[j] * ..."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
    return out


def _ball_cells(comp, centers: np.ndarray, h: float):
    """Masks of the cells that lie surely inside the ball and that it may cut.

    The margin 0.75 h sqrt(n) exceeds the half-diagonal h sqrt(n) / 2, so
    a cell whose center is farther than it from the sphere is entirely on
    one side.
    """
    margin = 0.75 * h * math.sqrt(centers.shape[1])
    d = np.sqrt(np.sum((centers - comp.center) ** 2, axis=1))
    full = d <= comp.radius - margin
    edge = ~full & (d < comp.radius + margin)
    return full, edge


def _coverage_ball(comp, centers: np.ndarray, h: float) -> np.ndarray:
    """Disk coverage; cells near the circle use the strip rule.

    Strip rule: for each x the chord [max(y0, cy - s), min(y1, cy + s)]
    with s = sqrt(R^2 - (x - cx)^2), integrated across the cell by the
    24-point midpoint rule in x, for all edge cells at once.
    """
    sub = 24
    (cx, cy), R = comp.center, comp.radius
    full, edge = _ball_cells(comp, centers, h)
    frac = np.where(full, 1.0, 0.0)
    x, y = centers[edge, 0], centers[edge, 1]
    x0, x1 = x - h / 2, x + h / 2
    # C order, so each row sums in the same (pairwise) order as a 1-d array.
    xs = np.ascontiguousarray(np.linspace(x0, x1, sub + 1, axis=1))
    xm = 0.5 * (xs[:, :-1] + xs[:, 1:])
    d2 = R * R - (xm - cx) ** 2
    s = np.sqrt(np.maximum(d2, 0.0))
    lo = np.maximum((y - h / 2)[:, None], cy - s)
    hi = np.minimum((y + h / 2)[:, None], cy + s)
    chord = np.maximum(hi - lo, 0.0) * (d2 > 0)
    frac[edge] = np.sum(chord, axis=1) * ((x1 - x0) / sub) / (h * h)
    return frac


def _coverage_ball_subsample(comp, centers: np.ndarray, h: float) -> np.ndarray:
    """Ball coverage; only cells the sphere may cut run the 8^n subsample.

    Every subsample point of a cell classified full (empty) lies inside
    (outside) the ball, so the result equals the subsample on every cell.
    """
    full, edge = _ball_cells(comp, centers, h)
    frac = np.where(full, 1.0, 0.0)
    frac[edge] = _coverage_subsample(comp, centers[edge], h)
    return frac


def _coverage_capped(comp, centers: np.ndarray, h: float) -> np.ndarray:
    """Column coverage: exact vertical extent integrated across the cell."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    frac = np.zeros(centers.shape[0])
    local = centers - comp.apex
    for node, wgt in zip(gl_x, gl_w):
        xq = local[:, 0] + 0.5 * h * node
        lo, hi, empty = comp.column_bounds(xq[:, None])
        ya = local[:, 1] - h / 2
        yb = local[:, 1] + h / 2
        seg = np.maximum(np.minimum(yb, hi) - np.maximum(ya, lo), 0.0)
        seg[empty] = 0.0
        frac += 0.5 * wgt * seg / h
    return frac


def _coverage_subsample(comp, centers: np.ndarray, h: float, sub: int = 8):
    """Fraction of each cell's sub^n midpoint subsample inside ``comp``."""
    d = centers.shape[1]
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    mesh = np.meshgrid(*([offs] * d), indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=-1) * h
    frac = np.zeros(centers.shape[0])
    for off in offsets:
        frac += comp.inside(centers + off)
    return frac / offsets.shape[0]


def make_support_grid(
    domain, spacing: float, pad: float = 0.0, max_cells: float = math.inf
) -> SupportGrid:
    """Rasterize the domain on a regular cell-centered grid.

    Coverage is the fraction of each cell inside the support, summed over
    the components and clipped to [0, 1].  Each component gets the most
    accurate rule available: for 2-d disks a 24-strip midpoint rule
    across the cells that the circle may cut (``_coverage_ball``), for
    2-d cap-bottomed bodies 6-point Gauss columns with the exact vertical
    extent (``_coverage_capped``), and an 8^n subsample otherwise.  3-d
    balls run the subsample only on the cells the sphere may cut.  A grid
    of more than ``max_cells`` cells, of less than one cell per axis or
    of no finite size raises NumericalFailure before anything is built.
    """
    from .geometry import BallComponent, CappedComponent

    lo, hi = domain.bounding_box(pad=pad + spacing)
    with np.errstate(all="ignore"):
        extent = (hi - lo) / spacing
        cells = float(np.prod(extent))
    if not (np.all(extent >= 1.0) and math.isfinite(cells) and cells <= max_cells):
        raise NumericalFailure(
            f"a support grid of spacing {spacing!r} needs {cells:.3g} cells, "
            f"outside 1 to {max_cells:.3g}"
        )
    n_ax = [int(math.ceil(e)) for e in extent]
    axes = [lo[d] + (np.arange(n_ax[d]) + 0.5) * spacing for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    coverage = np.zeros(pts.shape[0])
    for comp in domain.components:
        if isinstance(comp, BallComponent):
            rule = _coverage_ball if comp.dim == 2 else _coverage_ball_subsample
            coverage += rule(comp, pts, spacing)
        elif isinstance(comp, CappedComponent) and comp.dim == 2:
            coverage += _coverage_capped(comp, pts, spacing)
        else:
            coverage += _coverage_subsample(comp, pts, spacing)
    coverage = np.clip(coverage, 0.0, 1.0)
    return SupportGrid(
        points=pts,
        shape=tuple(n_ax),
        spacing=spacing,
        axes=tuple(axes),
        coverage=coverage,
    )


class GridConvolver:
    """FFT application of the resolvent kernel on a support grid."""

    def __init__(self, grid: SupportGrid, k: float):
        self.grid = grid
        self.k = k
        n = len(grid.shape)
        h = grid.spacing
        self._fft_shape = tuple(scipy.fft.next_fast_len(2 * s - 1) for s in grid.shape)
        mesh = np.meshgrid(*[np.arange(s) * h for s in grid.shape], indexing="ij", sparse=True)
        r = np.sqrt(sum(m * m for m in mesh))
        r[(0,) * n] = 1.0  # placeholder for the self-cell, overwritten below
        table = np.zeros(self._fft_shape, dtype=complex)
        orthant = tuple(slice(0, s) for s in grid.shape)
        table[orthant] = green_kernel(n, k, r) * h**n
        table[(0,) * n] = green_cell_integral(n, k, h)
        # Offset -j wraps to slot L - j and shares the kernel value of +j.
        for d, (s, L) in enumerate(zip(grid.shape, self._fft_shape)):
            src = [slice(None)] * n
            dst = [slice(None)] * n
            src[d] = slice(s - 1, 0, -1)
            dst[d] = slice(L - s + 1, L)
            table[tuple(dst)] = table[tuple(src)]
        self._kernel_hat = scipy.fft.fftn(table, overwrite_x=True)
        self._orthant = orthant

    def apply(self, density_flat: np.ndarray) -> np.ndarray:
        """(Delta + k^2)^{-1} density, sampled on the grid nodes.

        ``density_flat`` must already include coverage factors; the cell
        measure h^n is folded into the kernel table.
        """
        arr = density_flat.reshape(self.grid.shape)
        spec = scipy.fft.fftn(arr, s=self._fft_shape) * self._kernel_hat
        return scipy.fft.ifftn(spec, overwrite_x=True)[self._orthant].ravel()
