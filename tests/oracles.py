"""Independent reference computations used by the test suite.

Everything here is written from the underlying definitions with plain dense
numpy and explicit loops, on purpose: these routines cross-check the package
without sharing any of its assembly or quadrature code paths.  That includes
`history_combination`, the direct O(n) sum of the convolution-quadrature
history of one step, which the stepping loop is compared against.  The
exception is the last two sections: the per-step projection of the source
that the package used before it projected each separable term once per run;
the np.kron and the scipy.sparse constructions of the 1D operators that the
package used before it wrote their blocks in place and built them as dense
arrays, kept as their references, the sparse
discrete gradients that hand-derived matrices are checked against, and the
block sweep with a sparse LU of the x-cell block and a cell-by-cell trace
recurrence that the package used before it applied a dense inverse and a
doubling scan.  Last, the memory estimate of a run as one formula, as the
package wrote it before it named each array, the four decisions on a
run's shape as the package made them before one plan held them, the nodal
values of a field filled cell by cell, as the package did before it filled
them by index, and the one-sided projections solved from their defining
moment and endpoint conditions, as the package did before it wrote them in
closed form.
"""

import math
from numbers import Integral

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fkramers.cq import SOE_CUTOFF, SOE_JACOBI_POINTS, SOE_PANEL_POINTS, soe_rule
from fkramers.errors import PreconditionError
from fkramers.ldg import (
    BUFFER_BYTES, EIGEN_SWEEP_MIN_NV, HISTORY_BLOCK, HISTORY_WINDOW, _one_d_operators,
    _reference_blocks,
)
from fkramers.mesh import legendre_table, modal_project
from fkramers.problems import require_mesh_aligned


# ---------------------------------------------------------------------------
# fractional calculus
# ---------------------------------------------------------------------------

def _composite_gauss(fn, lo, hi, levels=54, qpts=12):
    """Composite Gauss with panels graded geometrically toward both endpoints.

    Handles integrable endpoint singularities; the two leftover slivers of
    relative width 2**-levels are dropped (their contribution is far below
    the target accuracy for bounded integrands).
    """
    x, w = np.polynomial.legendre.leggauss(qpts)
    offs = (hi - lo) * 0.5 ** np.arange(1, levels + 1)
    pts = np.concatenate([lo + offs[::-1], (hi - offs)[1:]])
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(w @ np.asarray(fn(mid + half * x), dtype=float))
    return total


def fractional_integral(z, t, alpha):
    """Riemann-Liouville integral of order 1 - alpha of z, evaluated at t.

    The kernel singularity at s = t is removed exactly by the substitution
    u = (t - s)**(1 - alpha); a possible data singularity of z at s = 0 is
    handled by the graded panels of the composite rule.
    """
    if t == 0.0:
        return 0.0
    beta = 1.0 - alpha
    mid = 0.5 * t
    left = _composite_gauss(lambda s: (t - s) ** (-alpha) * z(s), 0.0, mid)
    right = _composite_gauss(lambda u: z(t - u ** (1.0 / beta)), 0.0, mid ** beta) / beta
    return (left + right) / math.gamma(beta)


def caputo_derivative(w, t, alpha, h=1e-3):
    """Caputo derivative of order alpha of w - w(0) at time t > 2h.

    Uses that the Caputo derivative equals d/dt of the Riemann-Liouville
    integral of order 1 - alpha of w - w(0); the outer time derivative is a
    five-point central difference.
    """
    w0 = float(w(0.0))

    def big_f(tt):
        return fractional_integral(lambda s: w(s) - w0, tt, alpha)

    return (
        big_f(t - 2.0 * h) - 8.0 * big_f(t - h) + 8.0 * big_f(t + h) - big_f(t + 2.0 * h)
    ) / (12.0 * h)


def history_combination(weights, past, g0, n):
    """History contribution to the right-hand side of time step n, summed directly.

    This is the O(n) reference for one step; the stepping loop
    (`fkramers.ldg.march`) computes the same sum blockwise, directly within a
    window of lags and by a sum-of-exponentials rule beyond it, and tests
    compare the two.

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


# ---------------------------------------------------------------------------
# classical (order one) backward-Euler LDG reference solver
# ---------------------------------------------------------------------------

class ClassicalLDG:
    """Dense nodal-basis backward-Euler LDG code for the degenerate order-1 case.

    Written straight from the weak form with explicit cell and face loops in
    a Lagrange nodal basis, so it shares no representation, assembly, or
    factorization machinery with the package.  Flux conventions: horizontal
    transport takes the trace from the left with zero inflow at x = 0; the
    gradient auxiliary takes the trace from above with zero values at both
    v-boundaries; its divergence takes the trace from below except at v = 0,
    where it keeps the interior value and a theta/h penalty acts on the
    solution trace.
    """

    def __init__(self, n, k, theta=1.0, qpts=8):
        self.n = n
        self.k = k
        self.m = k + 1
        self.h = 1.0 / n
        self.theta = theta
        ref = np.linspace(-1.0, 1.0, k + 1)
        self.polys = []
        for p in range(k + 1):
            c = np.poly1d([1.0])
            for r in range(k + 1):
                if r != p:
                    c = c * np.poly1d([1.0, -ref[r]]) / (ref[p] - ref[r])
            self.polys.append(c)
        gx, gw = np.polynomial.legendre.leggauss(qpts)
        val = np.array([p(gx) for p in self.polys])           # (m, q)
        dval = np.array([p.deriv()(gx) for p in self.polys])  # d/dxi
        self.mass1 = 0.5 * self.h * (val * gw) @ val.T        # int l_p l_q dx
        self.stiff1 = (val * gw) @ dval.T                      # int l_p l_q' dx
        self.mass1_inv = np.linalg.inv(self.mass1)
        # v-weighted mass per v-cell row
        self.vmass = []
        for j in range(n):
            v_phys = (j + 0.5 * (gx + 1.0)) * self.h
            self.vmass.append(0.5 * self.h * (val * (gw * v_phys)) @ val.T)
        self.gauss = (gx, gw, val)

    # -- helpers -----------------------------------------------------------

    def _cell_solve(self, rows):
        """Invert the tensor nodal mass against weak-form rows, per cell."""
        out = np.empty_like(rows)
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = self.mass1_inv @ rows[i, j] @ self.mass1_inv
        return out

    def data_rows(self, fn, qpts):
        """Rows (fn, phi) per cell with a given Gauss point count."""
        gx, gw = np.polynomial.legendre.leggauss(qpts)
        val = np.array([p(gx) for p in self.polys])
        rows = np.empty((self.n, self.n, self.m, self.m))
        for i in range(self.n):
            x = (i + 0.5 * (gx + 1.0)) * self.h
            for j in range(self.n):
                v = (j + 0.5 * (gx + 1.0)) * self.h
                grid = np.asarray(fn(x[:, None], v[None, :]), dtype=float)
                grid = np.broadcast_to(grid, (qpts, qpts))
                rows[i, j] = 0.25 * self.h * self.h * (val * gw) @ grid @ (val * gw).T
        return rows

    def initial_state(self, g0):
        """Nodal coefficients of the discrete L2 projection of g0."""
        return self._cell_solve(self.data_rows(g0, self.k + 2))

    # -- auxiliary gradients -------------------------------------------------

    def weak_x(self, g):
        """Nodal coefficients of the x-gradient auxiliary (trace from left)."""
        rows = np.zeros_like(g)
        for i in range(self.n):
            for j in range(self.n):
                r = -self.stiff1.T @ g[i, j] @ self.mass1
                # right face: own right-edge trace (nodal layout: p = k)
                r[self.k, :] += self.mass1 @ g[i, j, self.k, :]
                # left face: trace of the left neighbor; zero inflow at x = 0
                if i > 0:
                    r[0, :] -= self.mass1 @ g[i - 1, j, self.k, :]
                rows[i, j] = r
        return self._cell_solve(rows)

    def weak_v(self, g):
        """Nodal coefficients of the v-gradient auxiliary (trace from above)."""
        rows = np.zeros_like(g)
        for i in range(self.n):
            for j in range(self.n):
                r = -self.mass1 @ g[i, j] @ self.stiff1
                if j < self.n - 1:  # top face: neighbor's bottom edge; 0 at v = 1
                    r[:, self.k] += self.mass1 @ g[i, j + 1, :, 0]
                if j > 0:  # bottom face: own bottom edge; 0 at v = 0
                    r[:, 0] -= self.mass1 @ g[i, j, :, 0]
                rows[i, j] = r
        return self._cell_solve(rows)

    # -- weak form rows of the full spatial operator -------------------------

    def operator_rows(self, g):
        qx = self.weak_x(g)
        qv = self.weak_v(g)
        rows = np.zeros_like(g)
        for i in range(self.n):
            for j in range(self.n):
                r = self.mass1 @ (qx[i, j] - qv[i, j]) @ self.vmass[j]
                # negative diffusion: +(qv, phi_v) - qv_hat(top) phi(top)
                #                     + qv_hat(bottom) phi(bottom)
                r += self.mass1 @ qv[i, j] @ self.stiff1
                r[:, self.k] -= self.mass1 @ qv[i, j, :, self.k]
                if j > 0:
                    r[:, 0] += self.mass1 @ qv[i, j - 1, :, self.k]
                else:
                    r[:, 0] += self.mass1 @ qv[i, j, :, 0]
                    # penalty on the solution trace along v = 0
                    r[:, 0] += (self.theta / self.h) * (self.mass1 @ g[i, j, :, 0])
                # zeroth-order shift
                r -= self.mass1 @ g[i, j] @ self.mass1
                rows[i, j] = r
        return rows

    def mass_rows(self, g):
        rows = np.empty_like(g)
        for i in range(self.n):
            for j in range(self.n):
                rows[i, j] = self.mass1 @ g[i, j] @ self.mass1
        return rows

    # -- stepping -------------------------------------------------------------

    def trajectory(self, problem, tau, steps):
        """All levels of the classical backward-Euler run; shape (steps+1, ...)."""
        ndof = (self.n * self.m) ** 2
        shape = (self.n, self.n, self.m, self.m)

        def op_flat(vec):
            g = vec.reshape(shape)
            return (self.mass_rows(g) / tau + self.operator_rows(g)).ravel()

        a = np.empty((ndof, ndof))
        eye = np.eye(ndof)
        for c in range(ndof):
            a[:, c] = op_flat(eye[c])
        g = self.initial_state(problem.g0)
        levels = [g]
        for nstep in range(1, steps + 1):
            rhs = self.mass_rows(g).ravel() / tau
            if problem.f is not None:
                t = nstep * tau
                rhs = rhs + self.data_rows(
                    lambda x, v: problem.f(x, v, t), self.k + 2
                ).ravel()
            g = np.linalg.solve(a, rhs).reshape(shape)
            levels.append(g)
        return levels

    def values_at(self, g, ref_nodes):
        """Evaluate a nodal coefficient tensor at reference points per cell."""
        val = np.array([p(ref_nodes) for p in self.polys])
        return np.einsum("ijpq,pg,qh->igjh", g, val, val)


# ---------------------------------------------------------------------------
# the reference-cell matrices by quadrature
# ---------------------------------------------------------------------------

def quadrature_reference_blocks(degree):
    """(der, jmat, el, er) of the modes phi_a = sqrt(a + 1/2) P_a on [-1, 1].

    der[c, a] = int phi_c phi_a' and jmat[c, a] = int xi phi_c phi_a by
    Gauss-Legendre quadrature with degree + 2 points, exact for their
    polynomial degree; values and derivatives come from numpy's Legendre
    class; el and er are the mode values at xi = -1 and xi = 1.  The package
    built its matrices this way before it wrote them in closed form.
    """
    nodes, weights = np.polynomial.legendre.leggauss(degree + 2)
    modes = [math.sqrt(a + 0.5) * np.polynomial.Legendre.basis(a) for a in range(degree + 1)]
    tab = np.array([phi(nodes) for phi in modes])
    dtab = np.array([phi.deriv()(nodes) for phi in modes])
    der = (tab * weights) @ dtab.T
    jmat = (tab * (weights * nodes)) @ tab.T
    el = np.array([phi(-1.0) for phi in modes])
    er = np.array([phi(1.0) for phi in modes])
    return der, jmat, el, er


# ---------------------------------------------------------------------------
# the per-step load
# ---------------------------------------------------------------------------

def load_at(problem, t, mesh, basis):
    """Modal load of the source sampled at time t, axes (x-cell, v-cell, x-mode, v-mode).

    The whole source f(x, v, t) is projected at every call, as the package
    did at every step before it projected each separable term once per run.
    """
    require_mesh_aligned(problem.discontinuities, mesh)
    if problem.f is None:
        return np.zeros((mesh.n, mesh.n, basis.nmodes, basis.nmodes))
    return modal_project(lambda x, v: problem.f(x, v, t), mesh, basis)


# ---------------------------------------------------------------------------
# the 1D operators as Kronecker products, sparse assembly from them, and the
# sparse block sweep
# ---------------------------------------------------------------------------

def kron_one_d_operators(mesh, basis):
    """Dense (grad_x, grad_v, div_v, vmass, penalty) from np.kron of cell matrices.

    The construction ``fkramers.ldg._one_d_operators`` used before it wrote
    the (k + 1) x (k + 1) blocks straight onto their block diagonals; the two
    must agree exactly.
    """
    n, h, m = mesh.n, mesh.h, basis.nmodes
    der, jmat, el, er = _reference_blocks(basis)
    eye_cells = np.eye(n)
    below = np.eye(n, k=-1)  # couples each cell to its lower neighbour
    above = np.eye(n, k=1)
    first = np.zeros((n, n))
    first[0, 0] = 1.0
    tail = eye_cells - first  # cells with an interior lower face

    two_h = 2.0 / h
    grad_x = two_h * (
        np.kron(eye_cells, der + np.outer(el, el)) - np.kron(below, np.outer(el, er))
    )
    grad_v = two_h * (
        np.kron(eye_cells, der - np.outer(er, er))
        + np.kron(first, np.outer(el, el))
        + np.kron(above, np.outer(er, el))
    )
    div_v = two_h * (
        np.kron(eye_cells, -der)
        - np.kron(tail, np.outer(el, el))
        + np.kron(below, np.outer(el, er))
    )
    vmass = np.kron(np.diag(mesh.centers), np.eye(m)) + 0.5 * h * np.kron(eye_cells, jmat)
    penalty = (2.0 / h ** 2) * np.kron(first, np.outer(el, el))
    return grad_x, grad_v, div_v, vmass, penalty


def _shift(n, offset):
    return sp.diags(np.ones(n - abs(offset)), offset, shape=(n, n))


def sparse_one_d_operators(mesh, basis):
    """scipy.sparse construction of (grad_x, grad_v, div_v, vmass, penalty).

    The reference for ``fkramers.ldg._one_d_operators``, which builds the
    same five operators as dense arrays.
    """
    n, h, m = mesh.n, mesh.h, basis.nmodes
    der, jmat, el, er = _reference_blocks(basis)
    eye_cells = sp.identity(n)
    first = sp.csr_matrix(([1.0], ([0], [0])), shape=(n, n))
    tail = sp.diags(np.r_[0.0, np.ones(n - 1)])  # cells with an interior lower face

    two_h = 2.0 / h
    grad_x = two_h * (
        sp.kron(eye_cells, der + np.outer(el, el)) - sp.kron(_shift(n, -1), np.outer(el, er))
    )
    grad_v = two_h * (
        sp.kron(eye_cells, der - np.outer(er, er))
        + sp.kron(first, np.outer(el, el))
        + sp.kron(_shift(n, 1), np.outer(er, el))
    )
    div_v = two_h * (
        sp.kron(eye_cells, -der)
        - sp.kron(tail, np.outer(el, el))
        + sp.kron(_shift(n, -1), np.outer(el, er))
    )
    vmass = sp.kron(sp.diags(mesh.centers), sp.identity(m)) + 0.5 * h * sp.kron(eye_cells, jmat)
    penalty = (2.0 / h ** 2) * sp.kron(first, np.outer(el, el))
    return grad_x, grad_v, div_v, vmass, penalty


def assemble_gradient(mesh, basis):
    """Sparse discrete-gradient operators (d_x, d_v) of the package's 1D operators.

    Applied to a raveled coefficient vector they yield the modal coefficients
    of the auxiliary gradient components (the element mass matrix is the
    identity, so no extra solve is needed).
    """
    grad_x, grad_v, _, _, _ = _one_d_operators(mesh, basis)
    block = mesh.n * basis.nmodes
    d_x = sp.kron(grad_x, sp.identity(block)).tocsr()
    d_v = sp.kron(sp.identity(block), grad_v).tocsr()
    return d_x, d_v


def splu_sweep(factors, d0, right, rhs):
    """The x-upwind block sweep of d0 I + kron(G, V) + kron(I, B), solving with a sparse LU.

    `factors` is (G, V, B) and `right` the x-mode values at the right cell
    edge.  Only the first two x-cell block rows of the step matrix are
    assembled, as scipy CSR: the x-cell block A, which SuperLU factors, and
    the coupling K below it.  Each y_i = A^{-1} r_i, and lift = A^{-1} K,
    come from SuperLU solves with A, as the package computed them before it
    applied a dense inverse.
    """
    grad_x, vmass, v_block = factors
    nv = v_block.shape[0]
    cell = right.size * nv
    rows = min(2 * right.size, nv)  # G's rows of the first two x-cells
    spatial = sp.kron(grad_x[:rows, :rows], vmass) + sp.kron(sp.identity(rows), v_block)
    matrix = (d0 * sp.identity(spatial.shape[0]) + spatial.tocsr()).tocsr()
    lu = spla.splu(matrix[:cell, :cell].tocsc())
    if matrix.shape[0] > cell:
        lift = lu.solve(-matrix[cell:, :nv].toarray() / right[0])
    else:
        lift = np.zeros((cell, nv))
    transfer = (right @ lift.reshape(right.size, -1)).reshape(nv, nv)
    y = lu.solve(rhs.reshape(-1, cell).T)  # column i is y_i
    traces = trace_loop((right @ y.reshape(right.size, -1)).reshape(nv, -1).T.copy(), transfer)
    y[:, 1:] += lift @ traces[:-1].T
    return y.T.ravel()


def trace_loop(traces, transfer):
    """Solve tau_i = c_i + transfer tau_{i-1} cell by cell, in place.

    Row i of `traces` holds c_i on entry and tau_i on return.
    """
    for i in range(1, traces.shape[0]):
        traces[i] += transfer @ traces[i - 1]
    return traces


# ---------------------------------------------------------------------------
# memory estimate
# ---------------------------------------------------------------------------

def run_doubles(n, basis, steps, terms=0):
    """The doubles a run of `steps` steps on an n x n mesh was estimated to hold.

    The sampled data and the levels; with steps, the weights and partial
    sums, the six (Nm)^2 operator arrays, the x-cell block with its inverse,
    the lift, the scan powers, the source factors and amplitudes, the
    near-field weights and the group buffer; past the window, one level per
    node of the sum-of-exponentials rule at alpha = 1, its panels counted
    from log2 of the step count.
    """
    m = basis.nmodes
    block = n * m
    doubles = (n * (m + 1)) ** 2 + (steps + 1) * block ** 2
    if steps:
        doubles += 2 * (steps + 1) + 6 * block ** 2 + 2 * (block * m) ** 2 + m * block ** 2
        doubles += (n - 1).bit_length() * block ** 2 + terms * (block ** 2 + steps + 1)
        doubles += HISTORY_BLOCK * HISTORY_WINDOW + group_rows(block ** 2) * block ** 2
    if steps > HISTORY_WINDOW + HISTORY_BLOCK:
        panels = math.ceil(math.log2(steps) + math.log2(SOE_CUTOFF / (HISTORY_WINDOW - 1)))
        doubles += (SOE_JACOBI_POINTS + SOE_PANEL_POINTS * panels) * block ** 2
    return doubles


# ---------------------------------------------------------------------------
# the shape of a run
# ---------------------------------------------------------------------------

def eigen_sweep_tried(nv):
    """Whether set-up tries the eigen sweep, as `assemble_system` tested it."""
    return nv >= EIGEN_SWEEP_MIN_NV


def far_field_runs(steps, alpha):
    """Whether the far field runs, as `march` tested it."""
    return alpha < 1.0 and steps > HISTORY_WINDOW + HISTORY_BLOCK


def group_rows(ndof):
    """Steps per LDGSystem.solve call, as many as fit BUFFER_BYTES, 1 to HISTORY_BLOCK."""
    return max(1, min(HISTORY_BLOCK, BUFFER_BYTES // (8 * ndof)))


def chunk_width(alpha, steps):
    """The far field's column chunk, as the far field derived it from its nodes."""
    nodes = soe_rule(alpha, steps, HISTORY_WINDOW)[0].size
    return max(1, BUFFER_BYTES // (8 * max(nodes, HISTORY_BLOCK)))


# ---------------------------------------------------------------------------
# the nodal values cell by cell
# ---------------------------------------------------------------------------

def loop_nodal_values(field):
    """`study.nodal_values` by a loop over the cells in ascending scan order.

    Each cell writes its (k + 1) x (k + 1) nodal values into the global grid;
    above degree 1 a later cell overwrites the shared nodes, at degree 1 the
    traces are summed and divided by their count, and the boundary is zeroed.
    """
    mesh, basis = field.mesh, field.basis
    k = basis.degree
    n = mesh.n
    tab = legendre_table(k, np.linspace(-1.0, 1.0, k + 1))
    vals = np.einsum("ijab,ap,bq->ipjq", field.coeffs, tab, tab) * (2.0 / mesh.h)
    g = k * n + 1
    if k > 1:
        out = np.zeros((g, g))
        for i in range(n):
            for j in range(n):
                out[k * i:k * i + k + 1, k * j:k * j + k + 1] = vals[i, :, j, :]
        return out
    acc = np.zeros((g, g))
    cnt = np.zeros((g, g))
    for i in range(n):
        for j in range(n):
            acc[k * i:k * i + k + 1, k * j:k * j + k + 1] += vals[i, :, j, :]
            cnt[k * i:k * i + k + 1, k * j:k * j + k + 1] += 1.0
    out = acc / cnt
    out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = 0.0
    return out


# ---------------------------------------------------------------------------
# the one-sided projections by solving their defining conditions
# ---------------------------------------------------------------------------

def _interval_basis(degree, interval, x):
    lo, hi = interval
    xi = 2.0 * (np.asarray(x, dtype=float) - lo) / (hi - lo) - 1.0
    return legendre_table(degree, xi) * np.sqrt(2.0 / (hi - lo))


def projection_rows(kind, degree, interval):
    """The defining functionals of a one-sided projection as (nodes, weights).

    Each acts as u -> sum(weights * u(nodes)): degree moment rows with the
    degree + 3 point Gauss rule mapped to the interval, then the endpoint
    row ("plus" left, "minus" right) with a single unit weight.
    """
    xi, w = np.polynomial.legendre.leggauss(degree + 3)
    lo, hi = interval
    nodes = lo + 0.5 * (hi - lo) * (xi + 1.0)
    tab = _interval_basis(degree, interval, nodes)
    rows = [(nodes, 0.5 * (hi - lo) * w * tab[b]) for b in range(degree)]
    rows.append((np.array([lo if kind == "plus" else hi]), np.array([1.0])))
    return rows


def projection_condition_matrix(kind, degree, interval):
    """The rows applied to the modal basis of the interval."""
    return np.array([_interval_basis(degree, interval, nodes) @ weights
                     for nodes, weights in projection_rows(kind, degree, interval)])


def solve_projection(kind, degree, interval, u):
    """Modal coefficients of the one-sided projection of the callable u."""
    rhs = [float(np.asarray(u(nodes), dtype=float) @ weights)
           for nodes, weights in projection_rows(kind, degree, interval)]
    return np.linalg.solve(projection_condition_matrix(kind, degree, interval), rhs)


def solve_tensor_projection(cell, degree, u_at):
    """Modal coefficients of (P^- (x) P^+) u on cell = ((x_lo, x_hi), (v_lo, v_hi)).

    The tensor rows act on u_at(x, v) cell by cell, then the two condition
    matrices are solved against them, one per direction.
    """
    x_int, v_int = cell
    cond = np.empty((degree + 1, degree + 1))
    for r, (xn, xw) in enumerate(projection_rows("minus", degree, x_int)):
        for s, (vn, vw) in enumerate(projection_rows("plus", degree, v_int)):
            cond[r, s] = xw @ u_at(xn[:, None], vn[None, :]) @ vw
    mat_x = projection_condition_matrix("minus", degree, x_int)
    mat_v = projection_condition_matrix("plus", degree, v_int)
    return np.linalg.solve(mat_x, np.linalg.solve(mat_v, cond.T).T)
