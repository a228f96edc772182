"""1D projections onto polynomial spaces, plus superconvergence checks.

Two one-sided 1D projections of a function u onto polynomials of degree
k >= 1 on an interval:

* "plus":   residual orthogonal to degree k-1, exact at the left endpoint;
* "minus":  residual orthogonal to degree k-1, exact at the right endpoint.

The L2 projection of data is `mesh.modal_project`.  The error analysis of the
scheme is built on the tensor combination
Pi = P^- (x) P^+ (minus in x, plus in v); `lemma_identity_residuals` forms it
on one cell and evaluates the two exactness identities that make the
one-sided fluxes superconvergent, for polynomial inputs of total degree k+1.
`Projection1D`'s rows, condition matrix and `apply`, and the identities,
all integrate with degree + 3 Gauss points per direction.  An interval must
have finite endpoints and a width whose inverse is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PreconditionError
from .mesh import gauss_rule, legendre_table

KINDS = ("plus", "minus")


@dataclass(frozen=True)
class Projection1D:
    """A 1D projection operator onto degree-`degree` polynomials on `interval`."""

    kind: str
    degree: int
    interval: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError("unknown projection kind %r" % (self.kind,))
        if not isinstance(self.degree, Integral) or self.degree < 1:
            raise PreconditionError("projection degree must be an integer >= 1, got %r"
                                    % (self.degree,))
        lo, hi = self.interval
        if not hi > lo:
            raise PreconditionError("empty interval %r" % (self.interval,))
        width = float(hi) - float(lo)
        if not all(math.isfinite(e) for e in (lo, hi, width, 2.0 / width)):
            raise PreconditionError("interval %r needs finite endpoints and a width whose inverse"
                                    " is finite" % (self.interval,))

    @property
    def nmodes(self):
        return self.degree + 1

    def basis_values(self, x):
        """Orthonormal modal basis of the interval evaluated at physical points."""
        lo, hi = self.interval
        xi = 2.0 * (np.asarray(x, dtype=float) - lo) / (hi - lo) - 1.0
        return legendre_table(self.degree, xi) * np.sqrt(2.0 / (hi - lo))

    def rows(self):
        """The defining functionals as (nodes, weights) pairs.

        Each functional acts as u -> sum(weights * u(nodes)); moment rows use
        the Gauss rule of degree + 3 points mapped to the interval, endpoint
        rows a single unit weight.
        """
        rule = gauss_rule(self.degree + 3)
        lo, hi = self.interval
        nodes = lo + 0.5 * (hi - lo) * (rule.nodes + 1.0)
        scaled = 0.5 * (hi - lo) * rule.weights
        tab = self.basis_values(nodes)
        out = [(nodes, scaled * tab[b]) for b in range(self.degree)]
        out.append((np.array([lo if self.kind == "plus" else hi]), np.array([1.0])))
        return out

    def condition_matrix(self):
        """Rows of `rows()` applied to the modal basis; square and well conditioned."""
        mat = np.empty((self.nmodes, self.nmodes))
        for r, (nodes, weights) in enumerate(self.rows()):
            mat[r] = self.basis_values(nodes) @ weights
        return mat

    def apply(self, u):
        """Modal coefficients of the projection of the callable u."""
        rhs = np.empty(self.nmodes)
        for r, (nodes, weights) in enumerate(self.rows()):
            rhs[r] = float(np.asarray(u(nodes), dtype=float) @ weights)
        return np.linalg.solve(self.condition_matrix(), rhs)

    def evaluate(self, coeffs, x):
        return coeffs @ self.basis_values(x)


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
    q = k + 3

    px = Projection1D("minus", k, (x_lo, x_hi))
    pv = Projection1D("plus", k, (v_lo, v_hi))
    mat_x = px.condition_matrix()
    mat_v = pv.condition_matrix()
    rows_x = px.rows()
    rows_v = pv.rows()

    def u_at(x, v):
        return _polyval2d(x, v, u_coef)

    cond = np.empty((k + 1, k + 1))
    for r, (xn, xw) in enumerate(rows_x):
        for s, (vn, vw) in enumerate(rows_v):
            cond[r, s] = xw @ u_at(xn[:, None], vn[None, :]) @ vw
    proj = np.linalg.solve(mat_x, np.linalg.solve(mat_v, cond.T).T)

    rule = gauss_rule(q)
    xq = x_lo + 0.5 * (x_hi - x_lo) * (rule.nodes + 1.0)
    vq = v_lo + 0.5 * (v_hi - v_lo) * (rule.nodes + 1.0)
    wx = 0.5 * (x_hi - x_lo) * rule.weights
    wv = 0.5 * (v_hi - v_lo) * rule.weights
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
