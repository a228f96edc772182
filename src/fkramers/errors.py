"""Shared exception types for argument validation and solver failures, and the
check that an input's arrays can fit in memory at all.
"""

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
    """The x-cell block of a time step cannot be inverted, or a solve misses its residual bound."""


class ConfigError(ValueError):
    """Malformed command line or configuration file."""


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
