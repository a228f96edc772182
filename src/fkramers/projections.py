"""1D projections onto polynomial spaces, plus superconvergence checks.

Two one-sided 1D projections of a function u onto polynomials of degree
k on an interval, for the degrees `mesh.Basis` accepts, 1 <= k <= `MAX_DEGREE`:

* "plus":   residual orthogonal to degree k-1, exact at the left endpoint;
* "minus":  residual orthogonal to degree k-1, exact at the right endpoint.

In the orthonormal Legendre basis of the interval both are in closed form:
c_a is the L2 moment of u for a < k, and
c_k = (u(end) - sum_{a<k} c_a phi_a(end)) / phi_k(end).  The moments, and the
integrals of `lemma_identity_residuals` (whose integrands have degree at most
2k + 1 per direction), use the degree + 2 point Gauss rule of
`mesh.modal_project`.  `lemma_identity_residuals` forms the cell
projection Pi = P^- (x) P^+ (minus in x, plus in v) and evaluates the two
exactness identities that make the one-sided fluxes superconvergent, for
polynomial inputs of total degree k+1.  An interval must have finite
endpoints and a width whose inverse is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PreconditionError
from .mesh import Basis, gauss_rule, legendre_table

KINDS = ("plus", "minus")


def _gauss_on(interval, degree):
    """The degree + 2 point Gauss rule mapped to `interval`: (nodes, weights)."""
    rule = gauss_rule(degree + 2)
    lo, hi = interval
    return lo + 0.5 * (hi - lo) * (rule.nodes + 1.0), 0.5 * (hi - lo) * rule.weights


@dataclass(frozen=True)
class Projection1D:
    """A 1D projection operator onto degree-`degree` polynomials on `interval`."""

    kind: str
    degree: int
    interval: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError("unknown projection kind %r" % (self.kind,))
        Basis(self.degree)  # an integer in [1, MAX_DEGREE]
        lo, hi = self.interval
        if not hi > lo:
            raise PreconditionError("empty interval %r" % (self.interval,))
        width = float(hi) - float(lo)
        if not all(math.isfinite(e) for e in (lo, hi, width, 2.0 / width)):
            raise PreconditionError("interval %r needs finite endpoints and a width whose inverse"
                                    " is finite" % (self.interval,))

    def basis_values(self, x):
        """Orthonormal modal basis of the interval evaluated at physical points."""
        lo, hi = self.interval
        xi = 2.0 * (np.asarray(x, dtype=float) - lo) / (hi - lo) - 1.0
        return legendre_table(self.degree, xi) * np.sqrt(2.0 / (hi - lo))

    def _map(self):
        """(points, matrix) with coefficients = matrix @ u(points): the Gauss
        nodes of the interval, then the endpoint the projection keeps."""
        k = self.degree
        nodes, weights = _gauss_on(self.interval, k)
        end = self.interval[0] if self.kind == "plus" else self.interval[1]
        at_end = self.basis_values(end)[:, 0]
        matrix = np.zeros((k + 1, k + 3))
        matrix[:k, :-1] = self.basis_values(nodes)[:k] * weights
        matrix[k] = -(at_end[:k] @ matrix[:k])
        matrix[k, -1] += 1.0
        matrix[k] /= at_end[k]
        return np.append(nodes, end), matrix

    def apply(self, u):
        """Modal coefficients of the projection of the callable u."""
        points, matrix = self._map()
        return matrix @ np.asarray(u(points), dtype=float)

    def evaluate(self, coeffs, x):
        return coeffs @ self.basis_values(x)


def _tensor_apply(px, pv, u_at):
    """Coefficients of (px (x) pv) u for a callable u_at(x, v)."""
    xpts, mat_x = px._map()
    vpts, mat_v = pv._map()
    return mat_x @ u_at(xpts[:, None], vpts[None, :]) @ mat_v.T


def _poly_total_degree(coef):
    nz = np.argwhere(np.abs(coef) > 0)
    if nz.size == 0:
        return -1
    return int((nz[:, 0] + nz[:, 1]).max())


def _polyval2d(x, v, coef):
    # polyval2d insists on identically shaped arguments; broadcast first so
    # outer-product grids and scalar-face evaluations both work
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    return npoly.polyval2d(x, v, coef)


def lemma_identity_residuals(u_coef, nux_coef, nuv_coef, cell, k):
    """Residuals of the two superconvergence identities on one cell.

    Arguments are 2D power-basis coefficient arrays (coef[i, j] multiplies
    x**i * v**j): u of total degree at most k+1, and the two test components
    of total degree at most k.  `cell` is ((x_lo, x_hi), (v_lo, v_hi)).

    Identity 1 pairs u - (tensor projection of u) with the x-derivative of
    the x test component and corrects with vertical-face terms where the
    projected trace is the one-sided 1D projection (plus-kind in v) of the
    exact face restriction.  Identity 2 is the v-direction analog with the
    minus-kind 1D projection in x on horizontal faces.  Both vanish for
    polynomial data, which is what makes the one-sided fluxes superconvergent.
    """
    u_coef = np.atleast_2d(np.asarray(u_coef, dtype=float))
    nux_coef = np.atleast_2d(np.asarray(nux_coef, dtype=float))
    nuv_coef = np.atleast_2d(np.asarray(nuv_coef, dtype=float))
    if _poly_total_degree(u_coef) > k + 1:
        raise PreconditionError("u must have total degree at most k+1")
    if max(_poly_total_degree(nux_coef), _poly_total_degree(nuv_coef)) > k:
        raise PreconditionError("test components must have total degree at most k")
    (x_lo, x_hi), (v_lo, v_hi) = cell

    px = Projection1D("minus", k, (x_lo, x_hi))
    pv = Projection1D("plus", k, (v_lo, v_hi))

    def u_at(x, v):
        return _polyval2d(x, v, u_coef)

    proj = _tensor_apply(px, pv, u_at)
    xq, wx = _gauss_on((x_lo, x_hi), k)
    vq, wv = _gauss_on((v_lo, v_hi), k)
    err_grid = u_at(xq[:, None], vq[None, :]) - (
        px.basis_values(xq).T @ proj @ pv.basis_values(vq)
    )

    dx_nux = npoly.polyder(nux_coef, axis=0)
    dv_nuv = npoly.polyder(nuv_coef, axis=1)

    # identity 1: volume term minus vertical-face corrections
    vol1 = wx @ (err_grid * _polyval2d(xq[:, None], vq[None, :], dx_nux)) @ wv

    def vertical_face(x_star):
        hat = pv.apply(lambda v: u_at(x_star, v))
        diff = u_at(x_star, vq) - pv.evaluate(hat, vq)
        return float((diff * _polyval2d(x_star, vq, nux_coef)) @ wv)

    res1 = vol1 - (vertical_face(x_hi) - vertical_face(x_lo))

    # identity 2: same with the roles of x and v exchanged
    vol2 = wx @ (err_grid * _polyval2d(xq[:, None], vq[None, :], dv_nuv)) @ wv

    def horizontal_face(v_star):
        hat = px.apply(lambda x: u_at(x, v_star))
        diff = u_at(xq, v_star) - px.evaluate(hat, xq)
        return float((diff * _polyval2d(xq, v_star, nuv_coef)) @ wx)

    res2 = vol2 - (horizontal_face(v_hi) - horizontal_face(v_lo))
    return float(res1), float(res2)
