"""Shared exception types for argument validation and solver failures, the
checks that a scalar input is positive and finite or a fractional order, and
the check that an input's arrays can fit in memory at all.
"""

import math
import os
from decimal import Decimal


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class InvalidResolution(PreconditionError):
    """Mesh resolution must be a positive integer."""


class OrderOutOfRange(PreconditionError):
    """Fractional order outside the supported range (0, 1]."""


class MisalignedDiscontinuity(PreconditionError):
    """Problem data jumps along a line that is not a mesh line."""

    def __init__(self, coordinate, n):
        self.coordinate = coordinate
        self.n = n
        super().__init__(
            "discontinuity line at coordinate %r is not a mesh line for N=%d"
            % (coordinate, n)
        )


class MeshMismatch(PreconditionError):
    """Fields living on different meshes or bases were combined."""


class SolverFailure(RuntimeError):
    """The step system overflows or cannot be inverted, or a solve misses its residual bound."""


class ConfigError(ValueError):
    """Malformed command line or configuration file."""


def _positive_finite(value, name):
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise PreconditionError("%s must be positive and finite, got %r" % (name, value))
    return value


def _fractional_order(alpha):
    alpha = float(alpha)
    # alpha = 1 is admitted as the degenerate classical backward-Euler case,
    # used to cross-check the stepping loop against an independent code.
    if not 0.0 < alpha <= 1.0:
        raise OrderOutOfRange("fractional order must lie in (0, 1], got %r" % (alpha,))
    return alpha


def require_memory(doubles, what):
    """Raise PreconditionError if `doubles` float64 values exceed physical memory.

    `doubles` is an estimate made before anything is allocated, so an input
    that cannot run fails with its size named instead of a MemoryError deep
    in numpy.  Platforms that do not report their memory are not checked.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if physical > 0 and 8 * doubles > physical:
        # Decimal formats integers of any size, where float() would overflow
        raise PreconditionError(
            "%s would take an estimated %s GiB, more than the %s GiB of physical memory"
            % (what, format(Decimal(8 * doubles) / 2 ** 30, ".3g"),
               format(Decimal(physical) / 2 ** 30, ".3g"))
        )
