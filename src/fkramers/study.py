"""Convergence studies, stability probes, and a solution-regularity diagnostic.

The temporal studies measure self-convergence: the L2 distance at the final
time between runs with steps tau and tau/2 on one fixed mesh.  The spatial
studies measure the distance to a known exact solution through the nodal
reconstruction both are tabulated with, at the k N + 1 uniform nodes per
direction (`nodal_values`): at k = 1 an interface node takes the mean of the
adjacent traces and the outer nodes are zero, above k = 1 it keeps the last
cell's trace in scan order.  A `ConvergenceTable` computes its rates from
one positive finite error per distinct positive finite resolution by pure
arithmetic (`rates_from_errors`), so tables can be reproduced exactly from
their CSV form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

from .cq import cq_weights
from .errors import PreconditionError, _positive_finite
from .ldg import (
    DGField, _integral_steps, _require_run_memory, build_system, march, run,
)
from .mesh import Basis, build_mesh, cell_points, gauss_rule, modal_evaluate

DEFAULT_RESOLUTIONS = (4, 8, 12, 16, 20)
DEFAULT_INV_TAUS = (10, 20, 40, 80, 160)


def _require_distinct(resolutions):
    if len({float(r) for r in resolutions}) < len(resolutions):
        raise PreconditionError("resolutions must be distinct, got %r" % (tuple(resolutions),))


def _log_ratio(a, b):
    """log(a / b) for positive a and b; a difference of logs where a / b over- or underflows."""
    ratio = a / b
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def rates_from_errors(resolutions, errors):
    """Observed orders: log(E_i / E_{i+1}) / log(r_{i+1} / r_i).

    There must be one error per resolution, the resolutions must be positive,
    finite and distinct, and the errors positive and finite.
    """
    if len(resolutions) != len(errors):
        raise PreconditionError("each resolution needs one error, got %d resolutions and %d"
                                " errors" % (len(resolutions), len(errors)))
    res = [float(r) for r in resolutions]
    err = [float(e) for e in errors]
    if not all(0.0 < r < math.inf for r in res):
        raise PreconditionError("resolutions must be positive and finite, got %r"
                                % (tuple(resolutions),))
    _require_distinct(resolutions)
    if not all(0.0 < e < math.inf for e in err):
        raise PreconditionError("errors must be positive and finite, got %r" % (tuple(errors),))
    return tuple(
        _log_ratio(err[i], err[i + 1]) / _log_ratio(res[i + 1], res[i])
        for i in range(len(err) - 1)
    )


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """One refinement sweep at a fixed fractional order.

    `axis` names the refined quantity ("1/tau" or "N"); `rates` is computed
    from the resolutions and errors by :func:`rates_from_errors`.
    """

    axis: str
    alpha: float
    resolutions: tuple
    errors: tuple
    rates: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rates", rates_from_errors(self.resolutions, self.errors))

    def to_csv(self):
        lines = ["resolution,error,rate"]
        for i, (res, err) in enumerate(zip(self.resolutions, self.errors)):
            rate = "" if i == 0 else "%.4f" % self.rates[i - 1]
            lines.append("%d,%.3E,%s" % (res, err, rate))
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        head = "| alpha \\ %s | %s |" % (self.axis, " | ".join(str(r) for r in self.resolutions))
        sep = "|" + "---|" * (len(self.resolutions) + 1)
        errs = "| %.4g | %s |" % (self.alpha, " | ".join("%.3E" % e for e in self.errors))
        rates = "| rate |  | %s |" % (" | ".join("%.4f" % r for r in self.rates))
        return "\n".join([head, sep, errs, rates]) + "\n"


def l2_error(field, other, t=None):
    """L2 distance between a discrete field and a field or callable.

    Field-vs-field distances are exact (orthonormal basis); a callable is
    integrated with a Gauss rule of k + 3 points per direction and is called
    as other(x, v) or other(x, v, t) when t is given.
    """
    if isinstance(other, DGField):
        if field.coeffs.shape != other.coeffs.shape:
            raise PreconditionError("fields live on different discretizations")
        return float(np.linalg.norm(field.coeffs - other.coeffs))
    rule = gauss_rule(field.basis.degree + 3)
    mesh = field.mesh
    pts = cell_points(mesh, rule.nodes).ravel()
    x = pts[:, None]
    v = pts[None, :]
    target = np.asarray(other(x, v) if t is None else other(x, v, t), dtype=float)
    target = np.broadcast_to(target, (pts.size, pts.size))
    vals = modal_evaluate(field.coeffs, mesh, field.basis, rule.nodes)
    diff = vals - target.reshape(mesh.n, rule.q, mesh.n, rule.q)
    w = 0.5 * mesh.h * rule.weights
    return float(np.sqrt(np.einsum("p,q,ipjq->", w, w, diff ** 2)))


def _lagrange_table(k, xi):
    """Values of the k+1 equispaced-node Lagrange basis on [-1,1] at points xi."""
    nodes = np.linspace(-1.0, 1.0, k + 1)
    xi = np.asarray(xi, dtype=float)
    table = np.ones((k + 1, xi.size))
    for p in range(k + 1):
        for r in range(k + 1):
            if r != p:
                table[p] *= (xi - nodes[r]) / (nodes[p] - nodes[r])
    return table


def nodal_values(field):
    """Sample a field at the uniform global nodes, degree*N + 1 per direction.

    Interface nodes carry one trace per adjacent cell, resolved by degree:
    at degree 1 they take the arithmetic mean of the adjacent traces, and
    the outermost nodes are then set to the zero boundary value; above
    degree 1 they keep the trace of the last cell in ascending scan order,
    and the boundary is left alone.
    """
    k, n = field.basis.degree, field.mesh.n
    vals = modal_evaluate(field.coeffs, field.mesh, field.basis, np.linspace(-1.0, 1.0, k + 1))
    if k > 1:
        # global node g lies in cell min(g // k, n - 1), the last cell holding it
        cell = np.minimum(np.arange(k * n + 1) // k, n - 1)
        node = np.arange(k * n + 1) - k * cell
        return vals[cell[:, None], node[:, None], cell[None, :], node[None, :]]
    out = np.zeros((n + 1, n + 1))
    # the four cells around an interior node, added to zero in scan order
    out[1:-1, 1:-1] = (0.0 + vals[:-1, 1, :-1, 1] + vals[:-1, 1, 1:, 0]
                       + vals[1:, 0, :-1, 1] + vals[1:, 0, 1:, 0]) / 4.0
    return out


def nodal_reconstruction_error(field, exact, t=None):
    """Table error: nodal reconstruction of the field vs the exact nodal data.

    Both the discrete solution and the exact function are represented by
    their values at the uniform global nodes and compared in L2 through the
    cellwise tensor Lagrange reconstruction of the difference.  Interface
    nodes are multi-valued for the discrete field; the convention under
    which the study's target tables were tabulated resolves them by degree:
    averaged traces with the boundary clamped to the prescribed boundary
    value for degree 1, one-sided traces for higher degrees (see nodal_values).
    """
    mesh, basis = field.mesh, field.basis
    k = basis.degree
    n = mesh.n
    recon = nodal_values(field)
    grid = np.linspace(0.0, 1.0, k * n + 1)
    x = grid[:, None]
    v = grid[None, :]
    target = np.asarray(exact(x, v) if t is None else exact(x, v, t), dtype=float)
    dif = recon - np.broadcast_to(target, recon.shape)
    # scaled by 2**-e, the power of two just above max|dif|, so that no square
    # below overflows; the scaling is exact
    e = math.frexp(np.abs(dif).max())[1]
    dif = np.ldexp(dif, -e)
    rule = gauss_rule(k + 2)
    lag = _lagrange_table(k, rule.nodes)
    idx = k * np.arange(n)[:, None] + np.arange(k + 1)[None, :]
    per_cell = dif[idx[:, None, :, None], idx[None, :, None, :]]
    quad_vals = np.einsum("ijpq,pg,qh->ijgh", per_cell, lag, lag)
    w = 0.5 * mesh.h * rule.weights
    return math.ldexp(float(np.sqrt(np.einsum("ijgh,g,h->", quad_vals ** 2, w, w))), e)


def temporal_study(problem, n=16, k=1, inv_taus=DEFAULT_INV_TAUS, theta=1.0):
    """Self-convergence in time on a fixed mesh.

    For each resolution 1/tau in `inv_taus`, the error is the final-time L2
    distance between the run with step tau and the run with step tau/2;
    halved runs are shared between neighboring resolutions.  The problem's
    final time must be positive.
    """
    if not problem.t_final > 0.0:
        raise PreconditionError("a temporal study needs a positive final time, got %r"
                                % (problem.t_final,))
    inv_taus = tuple(inv_taus)
    if not inv_taus or not all(isinstance(r, Integral) and r >= 1 for r in inv_taus):
        raise PreconditionError("temporal study needs positive integer resolutions, got %r"
                                % (inv_taus,))
    _require_distinct(inv_taus)
    needed = sorted(set(inv_taus) | {2 * r for r in inv_taus})
    finals = {}
    for inv in needed:
        final = run(problem, n, k, problem.t_final / inv, theta).final
        # copied in the same memory order, so the sums in l2_error do not
        # change, and unbound, so the levels of one run at a time are alive
        finals[inv] = DGField(final.coeffs.copy(order="K"))
        del final
    errors = tuple(
        l2_error(finals[inv], finals[2 * inv]) for inv in inv_taus
    )
    return ConvergenceTable(axis="1/tau", alpha=problem.alpha, resolutions=inv_taus, errors=errors)


def spatial_study(problem, k, tau, resolutions=DEFAULT_RESOLUTIONS, theta=1.0):
    """Convergence in space against the problem's exact solution.

    Errors are final-time nodal reconstruction distances (see
    nodal_reconstruction_error), the convention of the target tables this
    study reproduces.
    """
    if problem.exact is None:
        raise PreconditionError("spatial study needs a problem with an exact solution")
    resolutions = tuple(resolutions)
    if not resolutions or not all(isinstance(r, Integral) and r >= 1 for r in resolutions):
        raise PreconditionError("spatial study needs at least one resolution, a positive integer"
                                " for each resolution, got %r" % (resolutions,))
    _require_distinct(resolutions)
    errors = []
    for n in resolutions:
        # no name keeps a run's levels alive while the next run allocates
        errors.append(nodal_reconstruction_error(
            run(problem, n, k, tau, theta).final, problem.exact, t=problem.t_final))
    errors = tuple(errors)
    return ConvergenceTable(axis="N", alpha=problem.alpha, resolutions=resolutions, errors=errors)


def trajectory_growth(system, weights, g0_vec):
    """max_n ||g^n|| / ||g^0|| for a source-free run of weights.steps steps; 0 for
    zero initial data."""
    norm0 = np.linalg.norm(g0_vec)
    if norm0 == 0.0:
        return 0.0
    levels = march(system, weights, g0_vec, None)
    norms = np.linalg.norm(levels[1:], axis=1)
    return float(norms.max() / norm0)


def stability_probe(alpha, n=8, k=1, tau=0.02, trials=10, theta=1.0, seed=0, t_final=1.0):
    """Largest growth ratio over random initial coefficient vectors.

    Runs the source-free scheme to t_final from `trials` standard-normal
    coefficient vectors and reports the maximum of max_n ||g^n|| / ||g^0||.
    A value comfortably below the frozen bound demonstrates the unconditional
    stability of the implicit scheme.
    """
    basis = Basis(k)
    tau = _positive_finite(tau, "time step")
    steps = _integral_steps(t_final, tau)
    if steps < 1:
        raise PreconditionError(
            "the stability probe needs at least one step, got final time %r with step %r"
            % (t_final, tau)
        )
    if not isinstance(trials, Integral) or trials < 1:
        raise PreconditionError("the stability probe needs an integer count of at least one trial,"
                                " got %r" % (trials,))
    if not isinstance(seed, Integral) or seed < 0:
        raise PreconditionError("the stability probe's seed must be a nonnegative integer, got %r"
                                % (seed,))
    _require_run_memory(n, basis, steps)
    mesh = build_mesh(n)
    weights = cq_weights(alpha, tau, steps)
    system = build_system(mesh, basis, weights.d[0], theta)
    ndof = (mesh.n * basis.nmodes) ** 2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        g0 = rng.standard_normal(ndof)
        worst = max(worst, trajectory_growth(system, weights, g0))
    return worst


@dataclass(frozen=True, eq=False)
class RegularityFit:
    """Least-squares slope of log ||time difference quotient|| vs log t."""

    slope: float
    degenerate: bool
    times: np.ndarray
    quotients: np.ndarray


def regularity_diagnostic(problem, n=16, k=1, tau=0.01, theta=1.0):
    """Fit the decay exponent of the discrete time derivative.

    Computes D_m = ||g^m - g^{m-1}|| / tau and fits log D against log t_m
    over the window m in [2, steps/2] (the first step is excluded; the window
    stays clear of the final-time regime), so a run needs at least 6 steps
    for the window to hold two points.  A slope near -1 reflects the
    characteristic initial-layer behavior for nonsmooth data.  If the
    quotients vanish (steady solutions) the fit is flagged degenerate.
    """
    steps = _integral_steps(problem.t_final, _positive_finite(tau, "time step"))
    if steps < 6:
        raise PreconditionError("too few steps for a regularity fit: %d, need at least 6" % steps)
    traj = run(problem, n, k, tau, theta)
    levels = traj.levels
    # axis=0 sums each pair's squares exactly as a row-wise norm would
    quots = np.array([np.linalg.norm(b - a, axis=0) for a, b in zip(levels, levels[1:])]) / traj.tau
    times = traj.tau * np.arange(1, steps + 1)
    lo, hi = 2, steps // 2  # 1-based step indices of the fit window
    window_q = quots[lo - 1:hi]
    window_t = times[lo - 1:hi]
    if np.any(window_q <= 1e-14 * max(1.0, quots.max())):
        return RegularityFit(slope=float("nan"), degenerate=True, times=times, quotients=quots)
    slope = float(np.polyfit(np.log(window_t), np.log(window_q), 1)[0])
    return RegularityFit(slope=slope, degenerate=False, times=times, quotients=quots)
