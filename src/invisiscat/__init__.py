"""invisiscat: a numerical laboratory for monochromatic Helmholtz scattering.

Forward solvers for active sources and penetrable media, closed-form
harmonic-exponential integrals over paraboloid caps, admissible
curvature-point geometry, the radial interior transmission
eigenproblem, and experiment suites that certify the visibility bounds
tying them together.
"""

from . import (
    cgo,
    experiments,
    geometry,
    holder,
    kernels,
    manufactured,
    medium,
    quadrature,
    radial,
    scenes,
    source,
    transmission,
)

__all__ = [
    "cgo",
    "experiments",
    "geometry",
    "holder",
    "kernels",
    "manufactured",
    "medium",
    "quadrature",
    "radial",
    "scenes",
    "source",
    "transmission",
]

__version__ = "0.1.0"

# Idle OpenBLAS workers woken by the solver's complex dot products and the
# far-field products spin on a core and shorten no call.
experiments._pin_blas_threads()
