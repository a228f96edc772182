"""Uniform tensor meshes on the unit square, modal Legendre bases, Gauss rules.

The 1D building block is the Legendre family normalized to be orthonormal on
the reference interval [-1, 1].  Scaled to a mesh cell of width h by the
factor sqrt(2/h) it stays orthonormal in L2 of the cell, so element mass
matrices are exactly the identity and the global L2 norm of a discrete field
is the Euclidean norm of its coefficient vector.

The element degree k is checked once, by `Basis`, to lie in [1, `MAX_DEGREE`];
no integral uses more than k + 3 Gauss points.  Data enter the discrete space
through one rule, `modal_project`: the cell-wise L2 projection with k + 2
Gauss points per direction.

All types here are immutable after construction and safe to share read-only
between concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from numbers import Integral

import numpy as np

from .errors import PreconditionError

#: Largest supported element degree.
MAX_DEGREE = 30


def _legendre_raw(max_degree, xi):
    """Unnormalized Legendre values P_0..P_max at the points xi, shape (m, npts)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = np.empty((max_degree + 1, xi.size))
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = xi
    for n in range(2, max_degree + 1):
        table[n] = ((2 * n - 1) * xi * table[n - 1] - (n - 1) * table[n - 2]) / n
    return table


def _scale(max_degree):
    return np.sqrt(np.arange(max_degree + 1) + 0.5)


def legendre_table(max_degree, xi):
    """Orthonormal Legendre values, rows = degrees 0..max_degree, cols = points."""
    return _legendre_raw(max_degree, xi) * _scale(max_degree)[:, None]


@dataclass(frozen=True)
class Basis:
    """Tensor modal basis of degree `degree` per direction on each cell."""

    degree: int

    def __post_init__(self):
        if not isinstance(self.degree, Integral) or not 1 <= self.degree <= MAX_DEGREE:
            raise PreconditionError("element degree must be an integer in [1, MAX_DEGREE = %d],"
                                    " got %r" % (MAX_DEGREE, self.degree))

    @property
    def nmodes(self):
        return self.degree + 1


@dataclass(frozen=True, eq=False)
class Mesh2D:
    """Uniform N x N tensor mesh of the open unit square."""

    n: int
    h: float
    nodes: np.ndarray

    @property
    def centers(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_mesh(n):
    """Uniform mesh with n cells per direction; h = 1/n.

    Meshes are built once per resolution and shared; their nodes are read-only.
    """
    if not isinstance(n, Integral) or n < 1:
        raise PreconditionError("mesh resolution must be a positive integer, got %r" % (n,))
    return _build_mesh(int(n))


@lru_cache(maxsize=64)
def _build_mesh(n):
    nodes = np.linspace(0.0, 1.0, n + 1)
    nodes.flags.writeable = False
    return Mesh2D(n=n, h=1.0 / n, nodes=nodes)


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Gauss-Legendre rule on [-1, 1]; weights sum to 2."""

    q: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(q):
    """Gauss-Legendre rule with q >= 1 points, exact for polynomials of degree 2q - 1.

    Rules are computed once per point count and shared; their arrays are
    read-only.  q is taken as an int, so np.int64(4) and 4 share a rule.
    """
    return _gauss_rule(int(q))


@cache
def _gauss_rule(q):
    nodes, weights = np.polynomial.legendre.leggauss(q)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule(q=q, nodes=nodes, weights=weights)


def cell_points(mesh, xi):
    """Map reference points to every cell; result shape (n, len(xi))."""
    xi = np.asarray(xi, dtype=float)
    return mesh.nodes[:-1, None] + 0.5 * mesh.h * (xi[None, :] + 1.0)


@cache
def _weighted_table(degree, q):
    """Orthonormal Legendre values times the Gauss weights, shape (degree + 1, q).

    Computed once per (degree, q) and shared; the array is read-only.
    """
    rule = _gauss_rule(q)
    tab = legendre_table(degree, rule.nodes) * rule.weights
    tab.flags.writeable = False
    return tab


def modal_project(fn, mesh, basis):
    """Cell-wise L2 projection of fn(x, v) onto the modal tensor basis.

    Integrates with degree + 2 Gauss points per direction.

    Returns coefficients with axes (x-cell, v-cell, x-mode, v-mode), as a
    transposed view of an array stored in the order (x-cell, x-mode, v-cell,
    v-mode).  fn must broadcast over numpy arrays.
    """
    rule = gauss_rule(basis.degree + 2)
    pts = cell_points(mesh, rule.nodes).ravel()
    vals = np.asarray(fn(pts[:, None], pts[None, :]), dtype=float)
    if vals.shape != (pts.size, pts.size):
        vals = np.broadcast_to(vals, (pts.size, pts.size))
    tab = _weighted_table(basis.degree, rule.q)
    # two matmuls: the x-points first, giving (i, a, j, v-point), then the v-points
    half = np.matmul(tab, vals.reshape(mesh.n, rule.q, mesh.n * rule.q))
    coeffs = half.reshape(-1, rule.q) @ tab.T
    coeffs *= 0.5 * mesh.h
    m = basis.nmodes
    return coeffs.reshape(mesh.n, m, mesh.n, m).transpose(0, 2, 1, 3)


def modal_evaluate(coeffs, mesh, basis, xi):
    """Evaluate a coefficient tensor on the per-cell point grid xi x xi.

    Returns values with axes (x-cell, x-point, v-cell, v-point).
    """
    tab = legendre_table(basis.degree, xi)
    return (2.0 / mesh.h) * np.einsum("ijab,ap,bq->ipjq", coeffs, tab, tab)
