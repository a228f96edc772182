"""Backward-Euler convolution-quadrature weights for fractional time stepping.

The weights are the Taylor coefficients of ((1 - z) / tau)**alpha, generated
by the stable recurrence d_0 = tau**(-alpha), d_j = d_{j-1} (j - 1 - alpha) / j.
For alpha = 1 they collapse to the classical backward-Euler difference
(1/tau, -1/tau, 0, ...), which is admitted as a degenerate case so the
stepping loop can be cross-checked against a plain implicit Euler code.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import OrderOutOfRange, PreconditionError, require_memory


@dataclass(frozen=True, eq=False)
class CQWeights:
    """Weights d_0..d_steps and their running partial sums."""

    alpha: float
    tau: float
    steps: int
    d: np.ndarray
    partial_sums: np.ndarray

    def partial_sum(self, n):
        """S_n = d_0 + ... + d_n."""
        return float(self.partial_sums[n])


def cq_weights(alpha, tau, steps):
    """Build the convolution weights for `steps` time steps of size tau.

    d_0 > 0 and every later weight is negative; the partial sums decrease
    monotonically to 0, which is what makes the history recombination below
    well behaved for long runs.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise OrderOutOfRange("fractional order must lie in (0, 1], got %r" % (alpha,))
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0.0):
        raise PreconditionError("time step must be positive and finite, got %r" % (tau,))
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


def history_combination(weights, past, g0, n):
    """History contribution to the right-hand side of time step n, summed directly.

    This is the O(n) reference for one step; the stepping loop
    (`fkramers.ldg.march`) computes the same sum by blocked FFT convolution,
    and tests compare the two.

    `past` holds the solutions g^1 .. g^{n-1} (empty for n = 1); g0 is the
    initial state.  Returns

        r = -sum_{j=1}^{n-1} d_j g^{n-j} + S_{n-1} g0,

    so that the step equation reads d_0 g^n + (spatial operator) g^n = r + load.
    Works on coefficient arrays of any common shape, including scalars.
    """
    if not isinstance(n, Integral) or not 1 <= n <= weights.steps:
        raise PreconditionError("step index must satisfy 1 <= n <= %d, got %r" % (weights.steps, n))
    n = int(n)
    g0 = np.asarray(g0, dtype=float)
    r = weights.partial_sums[n - 1] * g0
    if n > 1:
        stacked = np.asarray(past, dtype=float)
        if stacked.shape[0] != n - 1:
            raise PreconditionError(
                "expected %d past states, got %d" % (n - 1, stacked.shape[0])
            )
        if stacked.shape[1:] != g0.shape:
            raise PreconditionError(
                "past states of shape %r do not match g0 of shape %r"
                % (stacked.shape[1:], g0.shape)
            )
        # stacked[::-1] pairs d_j with g^{n-j}, j = 1..n-1
        r = r - np.tensordot(weights.d[1:n], stacked[::-1], axes=1)
    return r
