"""Benchmark problems: initial data, source terms, and exact solutions.

Coordinates are (x, v) on the open unit square; all callables are vectorized
over numpy arrays and bounded on the closed square for t in [0, T].
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

    `f` and `exact` may be None (zero source / no closed-form solution).
    `discontinuities` lists coordinates of jump lines in the data; meshes must
    place cell boundaries on every such line in both directions, otherwise
    cell-wise quadrature of the data would not converge.
    """

    name: str
    alpha: float
    t_final: float
    g0: Callable
    f: Optional[Callable]
    exact: Optional[Callable]
    discontinuities: tuple = ()


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
    if case == "a":
        return ProblemSpec(
            name="ex1a",
            alpha=alpha,
            t_final=float(t_final),
            g0=lambda x, v: x * np.sin(np.pi * v),
            f=None,
            exact=None,
        )
    if case == "b":
        return ProblemSpec(
            name="ex1b",
            alpha=alpha,
            t_final=float(t_final),
            g0=_indicator,
            f=None,
            exact=None,
            discontinuities=(0.5,),
        )
    if case == "c":
        return ProblemSpec(
            name="ex1c",
            alpha=alpha,
            t_final=float(t_final),
            g0=lambda x, v: 0.0 * (np.asarray(x, float) + np.asarray(v, float)),
            f=lambda x, v, t: _indicator(x, v) * t ** 0.8,
            exact=None,
            discontinuities=(0.5,),
        )
    raise PreconditionError("unknown case %r; expected 'a', 'b' or 'c'" % (case,))


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

    def f(x, v, t):
        sx = np.sin(np.pi * x)
        sv = np.sin(np.pi * v)
        bracket = (
            np.pi ** 2 * sx * sv
            + v * np.pi * np.cos(np.pi * x) * sv
            - v * np.pi * sx * np.cos(np.pi * v)
            - sx * sv
        )
        return gam * sx * sv + (t ** alpha + 1.0) * bracket

    return ProblemSpec(
        name="ex2",
        alpha=alpha,
        t_final=float(t_final),
        g0=g0,
        f=f,
        exact=exact,
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


def load_vector(problem, t, mesh, basis):
    """Modal load of the source at time t, axes (x-cell, v-cell, x-mode, v-mode).

    The source is sampled at the time-step point itself; no time averaging.
    """
    require_mesh_aligned(problem.discontinuities, mesh)
    shape = (mesh.n, mesh.n, basis.nmodes, basis.nmodes)
    if problem.f is None:
        return np.zeros(shape)
    return modal_project(lambda x, v: problem.f(x, v, t), mesh, basis, basis.degree + 2)
