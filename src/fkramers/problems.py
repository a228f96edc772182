"""Benchmark problems: initial data, source terms, and exact solutions.

`get_problem` builds each of the four problems (ex1a, ex1b, ex1c, ex2) from
its id, and is where the id and the fractional order are checked.

Coordinates are (x, v) on the open unit square; all callables are vectorized
over numpy arrays and bounded on the closed square for t in [0, T].

Every source is separable: a sum of terms a_k(t) F_k(x, v).  A run projects
each spatial factor F_k once (`load_vector`), so the load of a time step is
a combination of those projections and samples nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError, _fractional_order
from .mesh import modal_project

PROBLEM_IDS = ("ex1a", "ex1b", "ex1c", "ex2")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One concrete problem instance.

    `source_terms` is a tuple of pairs (a_k, F_k): the source is
    f(x, v, t) = sum_k a_k(t) F_k(x, v), and no terms means no source.  A
    run calls each a_k once, with the array of its step times, and a_k may
    return a scalar for a constant amplitude.
    `exact` may be None (no closed-form solution).  `discontinuities` lists
    coordinates of jump lines in the data; meshes must place cell boundaries
    on every such line in both directions, otherwise cell-wise quadrature of
    the data would not converge.
    """

    name: str
    alpha: float
    t_final: float
    g0: Callable
    exact: Optional[Callable]
    source_terms: tuple = ()
    discontinuities: tuple = ()

    @property
    def f(self):
        """The source f(x, v, t) built from `source_terms`, or None without terms."""
        terms = self.source_terms
        if not terms:
            return None

        def f(x, v, t):
            return sum(a(t) * F(x, v) for a, F in terms)

        return f


def _indicator(x, v):
    """Indicator of the block (0.5, 1) x (0, 0.5)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return ((x > 0.5) & (x < 1.0) & (v > 0.0) & (v < 0.5)).astype(float)


def _sin_sin(x, v):
    return np.sin(np.pi * x) * np.sin(np.pi * v)


def _bracket(x, v):
    """The spatial operator, with its unit zeroth-order shift, applied to sin(pi x) sin(pi v)."""
    sx = np.sin(np.pi * x)
    sv = np.sin(np.pi * v)
    return (
        np.pi ** 2 * sx * sv
        + v * np.pi * np.cos(np.pi * x) * sv
        - v * np.pi * sx * np.cos(np.pi * v)
        - sx * sv
    )


def get_problem(problem_id, alpha, t_final=1.0):
    """Build problem ex1a, ex1b, ex1c or ex2 of fractional order alpha up to t_final.

    ex1a: smooth separable initial data x*sin(pi*v), no source.
    ex1b: indicator initial data on (0.5, 1) x (0, 0.5), no source.
    ex1c: zero initial data, separable discontinuous-in-space source with
          the time profile t**0.8.
    ex2:  manufactured smooth problem with exact solution
          (t**alpha + 1) sin(pi x) sin(pi v).  Its source is what the
          equation demands for that solution: the fractional time derivative
          contributes Gamma(alpha + 1) sin sin, and the spatial operator the
          bracket times (t**alpha + 1).
    """
    if problem_id not in PROBLEM_IDS:
        raise PreconditionError("unknown problem id %r; expected one of %s"
                                % (problem_id, ", ".join(PROBLEM_IDS)))
    alpha = _fractional_order(alpha)
    t_final = float(t_final)
    if problem_id != "ex2":
        data = {
            "ex1a": dict(g0=lambda x, v: x * np.sin(np.pi * v)),
            "ex1b": dict(g0=_indicator, discontinuities=(0.5,)),
            "ex1c": dict(g0=lambda x, v: 0.0 * (np.asarray(x, float) + np.asarray(v, float)),
                         source_terms=((lambda t: t ** 0.8, _indicator),), discontinuities=(0.5,)),
        }[problem_id]
        return ProblemSpec(name=problem_id, alpha=alpha, t_final=t_final, exact=None, **data)
    # |bracket| <= pi**2 + 2 pi + 1 < 17.2 and gam <= 1, so f is finite up to T
    if not math.isfinite(18.0 * (abs(t_final) ** alpha + 1.0)):
        raise PreconditionError("the source of ex2 overflows before T = %r" % (t_final,))
    gam = math.gamma(alpha + 1.0)

    def exact(x, v, t):
        return (t ** alpha + 1.0) * np.sin(np.pi * x) * np.sin(np.pi * v)

    return ProblemSpec(
        name="ex2",
        alpha=alpha,
        t_final=t_final,
        g0=_sin_sin,
        exact=exact,
        source_terms=((lambda t: gam, _sin_sin), (lambda t: t ** alpha + 1.0, _bracket)),
    )


def require_mesh_aligned(lines, mesh):
    """Reject meshes whose cell boundaries miss a data discontinuity line."""
    for coord in lines:
        scaled = float(coord) * mesh.n
        if abs(scaled - round(scaled)) > 1e-12 * max(1.0, mesh.n):
            raise PreconditionError("discontinuity line at coordinate %r is not a mesh line for N=%d"
                                    % (coord, mesh.n))


def load_vector(problem, mesh, basis):
    """Modal projections P_k of the spatial factors F_k of the source terms.

    Returns an array with axes (term, x-cell, v-cell, x-mode, v-mode); the
    load at time t is sum_k a_k(t) P_k, the projection of the source sampled
    at t itself, with no time averaging.  A source-free problem gives no
    terms.  Rejects meshes that miss a discontinuity line of the data.
    """
    require_mesh_aligned(problem.discontinuities, mesh)
    m = basis.nmodes
    out = np.empty((len(problem.source_terms), mesh.n, mesh.n, m, m))
    for load, (_, factor) in zip(out, problem.source_terms):
        load[...] = modal_project(factor, mesh, basis)
    return out
