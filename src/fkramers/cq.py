"""Backward-Euler convolution-quadrature weights for fractional time stepping.

The weights are the Taylor coefficients of ((1 - z) / tau)**alpha, generated
by the stable recurrence d_0 = tau**(-alpha), d_j = d_{j-1} (j - 1 - alpha) / j.
For alpha = 1 they collapse to the classical backward-Euler difference
(1/tau, -1/tau, 0, ...), which is admitted as a degenerate case so the
stepping loop can be cross-checked against a plain implicit Euler code.

The stepping loop (`fkramers.ldg.march`) sums the history with these weights;
the direct O(n) sum it is tested against is kept with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import OrderOutOfRange, PreconditionError, _positive_finite, require_memory


@dataclass(frozen=True, eq=False)
class CQWeights:
    """Weights d_0..d_steps and their running partial sums."""

    alpha: float
    tau: float
    steps: int
    d: np.ndarray
    partial_sums: np.ndarray


def cq_weights(alpha, tau, steps):
    """Build the convolution weights for `steps` time steps of size tau.

    d_0 > 0 and every later weight is negative; the partial sums decrease
    monotonically to 0, which is what keeps the history recombination of the
    stepping loop well behaved for long runs.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise OrderOutOfRange("fractional order must lie in (0, 1], got %r" % (alpha,))
    tau = _positive_finite(tau, "time step")
    if not isinstance(steps, Integral) or steps < 0:
        raise PreconditionError("step count must be a nonnegative integer, got %r" % (steps,))
    steps = int(steps)
    require_memory(2 * (steps + 1), "the CQ weights of %d steps" % steps)
    try:
        lead = tau ** (-alpha)
    except OverflowError:
        raise PreconditionError(
            "leading weight tau**-alpha overflows for tau = %r, alpha = %r" % (tau, alpha)
        ) from None
    d = np.empty(steps + 1)
    d[0] = lead
    for j in range(1, steps + 1):
        d[j] = d[j - 1] * (j - 1 - alpha) / j
    return CQWeights(alpha=alpha, tau=tau, steps=steps, d=d, partial_sums=np.cumsum(d))
