"""Benchmark problems: initial data, source terms, and exact solutions.

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

from .errors import MisalignedDiscontinuity, OrderOutOfRange, PreconditionError
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


def _check_alpha(alpha):
    alpha = float(alpha)
    # alpha = 1 is admitted as the degenerate classical backward-Euler case,
    # used to cross-check the stepping loop against an independent code.
    if not 0.0 < alpha <= 1.0:
        raise OrderOutOfRange("fractional order must lie in (0, 1], got %r" % (alpha,))
    return alpha


def _indicator(x, v):
    """Indicator of the block (0.5, 1) x (0, 0.5)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return ((x > 0.5) & (x < 1.0) & (v > 0.0) & (v < 0.5)).astype(float)


def example1(case, alpha, t_final=1.0):
    """Source-free and nonsmooth test problems.

    case "a": smooth separable initial data x*sin(pi*v), no source.
    case "b": indicator initial data on (0.5, 1) x (0, 0.5), no source.
    case "c": zero initial data, separable discontinuous-in-space source
              with the time profile t**0.8.
    """
    alpha = _check_alpha(alpha)
    if case not in ("a", "b", "c"):
        raise PreconditionError("unknown case %r; expected 'a', 'b' or 'c'" % (case,))
    data = {
        "a": dict(g0=lambda x, v: x * np.sin(np.pi * v)),
        "b": dict(g0=_indicator, discontinuities=(0.5,)),
        "c": dict(g0=lambda x, v: 0.0 * (np.asarray(x, float) + np.asarray(v, float)),
                  source_terms=((lambda t: t ** 0.8, _indicator),), discontinuities=(0.5,)),
    }[case]
    return ProblemSpec(name="ex1" + case, alpha=alpha, t_final=float(t_final), exact=None, **data)


def example2(alpha, t_final=1.0):
    """Manufactured smooth problem with exact solution (t**alpha + 1) sin(pi x) sin(pi v).

    The source is what the equation demands for that exact solution:
    the fractional time derivative contributes Gamma(alpha + 1) sin sin, and
    the spatial operator (including the unit zeroth-order shift) contributes
    the bracketed factor times (t**alpha + 1).
    """
    alpha = _check_alpha(alpha)
    # |bracket| <= pi**2 + 2 pi + 1 < 17.2 and gam <= 1, so f is finite up to T
    if not math.isfinite(18.0 * (abs(float(t_final)) ** alpha + 1.0)):
        raise PreconditionError("the source of ex2 overflows before T = %r" % (t_final,))
    gam = math.gamma(alpha + 1.0)

    def g0(x, v):
        return np.sin(np.pi * x) * np.sin(np.pi * v)

    def exact(x, v, t):
        return (t ** alpha + 1.0) * np.sin(np.pi * x) * np.sin(np.pi * v)

    def bracket(x, v):
        sx = np.sin(np.pi * x)
        sv = np.sin(np.pi * v)
        return (
            np.pi ** 2 * sx * sv
            + v * np.pi * np.cos(np.pi * x) * sv
            - v * np.pi * sx * np.cos(np.pi * v)
            - sx * sv
        )

    return ProblemSpec(
        name="ex2",
        alpha=alpha,
        t_final=float(t_final),
        g0=g0,
        exact=exact,
        source_terms=((lambda t: gam, g0), (lambda t: t ** alpha + 1.0, bracket)),
    )


def get_problem(problem_id, alpha, t_final=1.0):
    """Look up a problem by its string id: ex1a, ex1b, ex1c or ex2."""
    if problem_id == "ex2":
        return example2(alpha, t_final)
    if problem_id in ("ex1a", "ex1b", "ex1c"):
        return example1(problem_id[-1], alpha, t_final)
    raise PreconditionError("unknown problem id %r; expected one of %s" % (problem_id, ", ".join(PROBLEM_IDS)))


def require_mesh_aligned(lines, mesh):
    """Reject meshes whose cell boundaries miss a data discontinuity line."""
    for coord in lines:
        scaled = float(coord) * mesh.n
        if abs(scaled - round(scaled)) > 1e-12 * max(1.0, mesh.n):
            raise MisalignedDiscontinuity(coord, mesh.n)


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
        load[...] = modal_project(factor, mesh, basis, basis.degree + 2)
    return out
