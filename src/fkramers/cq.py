"""Backward-Euler convolution-quadrature weights for fractional time stepping.

The weights are the Taylor coefficients of ((1 - z) / tau)**alpha, generated
by the stable recurrence d_0 = tau**(-alpha), d_j = d_{j-1} (j - 1 - alpha) / j.
For alpha = 1 they collapse to the classical backward-Euler difference
(1/tau, -1/tau, 0, ...), which is admitted as a degenerate case so the
stepping loop can be cross-checked against a plain implicit Euler code.

The stepping loop (`fkramers.ldg.march`) sums the history with these weights
up to a window of lags and, beyond it, with the sum-of-exponentials rule of
:func:`soe_rule`; the direct O(n) sum it is tested against is kept with the
test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import PreconditionError, _fractional_order, _positive_finite, require_memory


@dataclass(frozen=True, eq=False)
class CQWeights:
    """Weights d_0..d_steps and their running partial sums."""

    alpha: float
    steps: int
    d: np.ndarray
    partial_sums: np.ndarray


def cq_weights(alpha, tau, steps):
    """Build the convolution weights for `steps` time steps of size tau.

    d_0 > 0 and every later weight is negative; the partial sums decrease
    monotonically to 0, which is what keeps the history recombination of the
    stepping loop well behaved for long runs.  At most MAX_STEPS steps are
    accepted; an input beyond memory is named as such first.
    """
    alpha = _fractional_order(alpha)
    tau = _positive_finite(tau, "time step")
    if not isinstance(steps, Integral) or steps < 0:
        raise PreconditionError("step count must be a nonnegative integer, got %r" % (steps,))
    steps = int(steps)
    require_memory(2 * (steps + 1), "the CQ weights of %d steps" % steps)
    if steps > MAX_STEPS:
        raise PreconditionError(
            "the CQ weights of %d steps are more than the limit of %d" % (steps, MAX_STEPS)
        )
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
    return CQWeights(alpha=alpha, steps=steps, d=d, partial_sums=np.cumsum(d))


#: Most time steps of one run, and most CQ weights; `soe_rule` is verified up to here.
MAX_STEPS = 10 ** 6

#: Points of the Gauss-Jacobi rule on [0, 1/steps] and of the Gauss-Legendre
#: rule on each dyadic panel beyond it.
SOE_JACOBI_POINTS = 12
SOE_PANEL_POINTS = 10

#: The panels stop at SOE_CUTOFF / (window - alpha), where exp(-(j - alpha) x)
#: has fallen below exp(-SOE_CUTOFF) for every lag j > window.
SOE_CUTOFF = 42.0


def soe_rule(alpha, steps, window):
    """Nodes x_l and coefficients c_l with d_j / d_0 ~ sum_l c_l exp(-j x_l).

    The rule holds for window < j <= steps and 0 < alpha < 1 (Jiang, Zhang,
    Zhang & Zhang, CiCP 21, 2017).  It discretizes

        d_j / d_0 = -(sin pi alpha / pi) int_0^inf exp(-j x) (e^x - 1)^alpha dx,

    the Beta-integral form of the weights, by a Gauss-Jacobi rule with weight
    x^alpha on [0, 1/steps] and Gauss-Legendre rules on the dyadic panels
    [2^p / steps, 2^(p+1) / steps] up to SOE_CUTOFF / (window - alpha).
    Every c_l is negative, so the sum carries no cancellation.
    """
    edge = 1.0 / steps
    t, w = _gauss_jacobi(SOE_JACOBI_POINTS, alpha)
    x = edge * t
    nodes = [x]
    coeffs = [edge ** (1.0 + alpha) * w * (np.expm1(x) / x) ** alpha]
    xi, wi = np.polynomial.legendre.leggauss(SOE_PANEL_POINTS)
    top = SOE_CUTOFF / (window - alpha)
    lo = edge
    for _ in range((soe_node_count(alpha, steps, window) - SOE_JACOBI_POINTS) // SOE_PANEL_POINTS):
        hi = min(2.0 * lo, top)
        x = lo + 0.5 * (hi - lo) * (xi + 1.0)
        nodes.append(x)
        coeffs.append(0.5 * (hi - lo) * wi * np.expm1(x) ** alpha)
        lo = hi
    # sin(pi alpha) from the exact one of alpha, 1 - alpha that is at most 1/2
    scale = -math.sin(math.pi * min(alpha, 1.0 - alpha)) / math.pi
    return np.concatenate(nodes), scale * np.concatenate(coeffs)


def soe_node_count(alpha, steps, window):
    """The node count of `soe_rule`, never smaller at a larger alpha.

    Its panels number the least P >= 0 with 2^P / steps >= SOE_CUTOFF / (window
    - alpha), read exactly from the binary exponents of the two floats.
    """
    top, top_exp = math.frexp(SOE_CUTOFF / (window - alpha))
    edge, edge_exp = math.frexp(1.0 / steps)
    return SOE_JACOBI_POINTS + SOE_PANEL_POINTS * max(0, top_exp - edge_exp + (top > edge))


def _gauss_jacobi(q, a):
    """Gauss rule with q points for the weight t^a on [0, 1] (Golub & Welsch, 1969).

    The nodes are the eigenvalues of the Jacobi matrix of the polynomials
    orthogonal for that weight, here the Jacobi polynomials P^(0, a) mapped
    from [-1, 1], and each weight is 1 / (1 + a) times the squared first
    component of its eigenvector.
    """
    n = np.arange(q, dtype=float)
    s = 2.0 * n + a
    diag = np.empty(q)
    diag[0] = a / (a + 2.0)
    diag[1:] = a * a / (s[1:] * (s[1:] + 2.0))
    n, s = n[1:], s[1:]
    off = 2.0 * n * (n + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + nodes), vectors[0] ** 2 / (1.0 + a)
