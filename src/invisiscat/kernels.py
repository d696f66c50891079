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
The density is zero outside that orthant and only the orthant is read
back, so ``GridConvolver.apply`` transforms one axis at a time: the
forward pass along axis d skips the lines past N_e on each later axis e,
where the padded density is zero, and the inverse pass along axis d
skips those past N_e on each earlier axis e, which are discarded.  That
saves a quarter of the FFT work in the plane and 42% of it in space.
``apply`` follows the dtype of its density: a complex64 density runs the
same pass in single precision against a complex64 copy of the kernel
transform and returns complex64, at about half the cost; a float64 or
complex128 density runs in complex128.

A support grid's coverage (the fraction of each cell inside the
scatterer) comes from the components themselves, each through its
``coverage`` method in ``geometry``; this module names no component.

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

# Most cells a support grid may hold: restarted GMRES in medium.solve_ls
# keeps 101 Krylov vectors, complex64 (0.8 kB per cell, a basis near
# 3.2 GB) except on its complex128 fallback (1.6 kB per cell, near 6.5 GB).
_MAX_CELLS = 4 * 10**6


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

    def on_support(self, values) -> np.ndarray:
        """values(points) * coverage, complex, calling ``values`` only at the
        centres of the cells the support touches (coverage > 0); every other
        cell holds 0."""
        out = np.zeros(self.coverage.shape, dtype=complex)
        live = np.flatnonzero(self.coverage)
        out[live] = values(self.points[live]) * self.coverage[live]
        return out

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


def make_support_grid(domain, spacing: float, pad: float = 0.0) -> SupportGrid:
    """Rasterize the domain on a regular cell-centered grid.

    Coverage is the fraction of each cell inside the support: each
    component's ``coverage(centers, spacing)``, summed over the
    components and clipped to [0, 1].  A grid of more than ``_MAX_CELLS``
    cells, of less than one cell per axis or of no finite size raises
    NumericalFailure before anything is built.
    """
    lo, hi = domain.bounding_box(pad=pad + spacing)
    with np.errstate(all="ignore"):
        extent = (hi - lo) / spacing
        cells = float(np.prod(extent))
    if not (np.all(extent >= 1.0) and math.isfinite(cells) and cells <= _MAX_CELLS):
        raise NumericalFailure(
            f"a support grid of spacing {spacing!r} needs {cells:.3g} cells, "
            f"outside 1 to {_MAX_CELLS:.3g}"
        )
    n_ax = [int(math.ceil(e)) for e in extent]
    axes = [lo[d] + (np.arange(n_ax[d]) + 0.5) * spacing for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    coverage = sum(comp.coverage(pts, spacing) for comp in domain.components)
    return SupportGrid(
        points=pts,
        shape=tuple(n_ax),
        spacing=spacing,
        axes=tuple(axes),
        coverage=np.clip(coverage, 0.0, 1.0),
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
        self._kernel_hat64 = self._kernel_hat.astype(np.complex64)
        self._scale = 1.0 / math.prod(self._fft_shape)

    def apply(self, density_flat: np.ndarray) -> np.ndarray:
        """(Delta + k^2)^{-1} density, sampled on the grid nodes.

        ``density_flat`` must already include coverage factors; the cell
        measure h^n is folded into the kernel table.  The pruned per-axis
        transforms (module docstring) run in ``fftn``'s axis order, and
        1/prod(L) follows the first inverse pass, where ``ifftn`` applies
        it, so the rounding matches ``ifftn``'s.  A complex64 density is
        transformed in single precision against the complex64 copy of the
        kernel and returns complex64; a float64 or complex128 density runs
        in complex128.
        """
        x = density_flat.reshape(self.grid.shape)
        for d, L in enumerate(self._fft_shape):
            x = scipy.fft.fft(x, n=L, axis=d)
        x *= self._kernel_hat64 if x.dtype == np.complex64 else self._kernel_hat
        for d, N in enumerate(self.grid.shape):
            x = scipy.fft.ifft(x, axis=d, norm="forward", overwrite_x=True)
            if d == 0:
                x *= self._scale
            x = x[(slice(None),) * d + (slice(0, N),)]
        return x.ravel()
