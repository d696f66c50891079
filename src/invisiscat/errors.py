"""The two failure bases that every named error derives from.

``ConfigError`` marks input that cannot describe a valid problem: a
malformed scene, a suite config or a command-line flag out of range.
``NumericalFailure`` marks a well-posed problem that a solver,
quadrature or search could not finish to its stated accuracy.  The
command line maps the first to exit 2 and the second to exit 3; any
other exception is a bug and propagates as one.
"""

from __future__ import annotations

__all__ = ["ConfigError", "NumericalFailure"]


class ConfigError(ValueError):
    """Input that does not describe a valid problem."""


class NumericalFailure(RuntimeError):
    """A valid problem that the numerics could not resolve."""
