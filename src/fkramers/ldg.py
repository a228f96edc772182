"""Local discontinuous Galerkin discretization and the implicit stepping loop.

Space: full tensor modal basis of degree k per cell on a uniform square mesh.
The auxiliary gradient uses one-sided fluxes: in x the trace from the left
with zero inflow at x = 0, in v the trace from above with zero boundary
values at v = 0 and v = 1.  The diffusion flux takes the trace from below,
plus a penalty term theta/h acting on the solution trace along v = 0.

Because the basis is orthonormal per cell, element mass matrices are the
identity, and the auxiliary variables are eliminated element-locally.  The
v-fluxes alternate (Cockburn & Shu, SINUM 35, 1998), so the discrete
v-divergence is the adjoint of the discrete v-gradient; the 1D operators are
built from that one v-gradient and reference-cell matrices in closed form.

The per-cell coefficient layout is (x-cell i, v-cell j, x-mode a, v-mode b).
Internally vectors are raveled in the order (i, a, j, b) so every global
operator is a Kronecker product of small 1D operators.  The spatial operator
has the two-factor form G (x) V + I (x) B: G is the upwind x-gradient, V the
velocity weight, and B gathers v-transport, diffusion, penalty and the shift.

G is block lower bidiagonal over the x-cells with equal diagonal blocks, so
each time step is solved exactly by an x-upwind block sweep (Reed & Hill,
1973), in one of two ways, both set up once per run:

- the dense sweep: the dense inverse of a single x-cell block applied to all
  cells in one matrix product, then the linear recurrence over the cell
  traces in the flow direction, solved by a doubling scan of ceil(log2 N)
  products (Hillis & Steele, 1986; Blelloch, 1990), and one more product for
  the upwind coupling;
- the eigen sweep, by fast diagonalization in v (Lynch, Rice & Thomas,
  1964): one eigendecomposition of M = V^{-1} (d0 I + B) turns a step into
  one product into M's eigenbasis, nv independent (k + 1) x (k + 1) cell
  solves, a scalar recurrence per eigenvalue solved by the same doubling
  scan elementwise, and one product back; set-up falls back to the dense
  sweep when M has a complex eigenvalue or ill-conditioned eigenvectors.

Each step's solution must pass a normwise backward-error check,
||S x - b|| <= SOLVE_RTOL (||S|| ||x|| + ||b||) with ||S|| bounded from the
1D factors, which holds for any backward-stable solve however large ||S|| is.
The step path keeps only the dense 1D factors G, V, B and the sweep's
arrays, and uses numpy alone; scipy is imported only to build the assembled
sparse operator on request (`assemble_spatial`, `LDGSystem.matrix` and
`LDGSystem.lu`).

The source is projected once per run, one array per separable term
(`load_vector`), and each amplitude is sampled once at all step times, so
the loads of a group of steps are one small matrix product.
Time stepping (`march`) sums the convolution-quadrature history over blocks
of HISTORY_BLOCK steps: directly, by one Toeplitz product per block, for the
lags within HISTORY_WINDOW, and by sum-of-exponentials accumulators beyond
it, so a run costs O(steps (HISTORY_WINDOW + nodes)) vector operations and
keeps every level plus one accumulator per exponential.  One `solve` call
sweeps a group of steps and then checks their residuals in one pass.  The
sweep tried, the far field, its chunks, the group size and the arrays that
the memory check counts are decided once per run, by :func:`_run_plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .cq import MAX_STEPS, cq_weights, soe_node_count, soe_rule
from .errors import PreconditionError, SolverFailure, _positive_finite, require_memory
from .mesh import Basis, Mesh2D, build_mesh
from .problems import _broadcast_data, _finite_projection, load_vector, require_mesh_aligned

#: Normwise backward error accepted from the direct solver: the residual of
#: a step may be at most this share of norm_bound ||x|| + ||b||.
SOLVE_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class DGField:
    """A discrete field: modal coefficients on every cell.

    The coefficients' shape (N, N, k + 1, k + 1) fixes the mesh and the
    basis.  The L2 norm over the square equals the Euclidean norm of `coeffs`.
    """

    coeffs: np.ndarray
    mesh: Mesh2D = field(init=False)
    basis: Basis = field(init=False)

    def __post_init__(self):
        shape = self.coeffs.shape
        if len(shape) != 4 or shape[0] != shape[1] or shape[2] != shape[3]:
            raise PreconditionError(
                "coefficient tensor has shape %r, expected (N, N, k + 1, k + 1)" % (shape,)
            )
        # build_mesh rejects N < 1, and Basis a degree k outside [1, MAX_DEGREE]
        object.__setattr__(self, "mesh", build_mesh(shape[0]))
        object.__setattr__(self, "basis", Basis(shape[2] - 1))


def as_vector(coeffs):
    """Ravel (i, j, a, b) coefficients into the Kronecker ordering (i, a, j, b)."""
    return np.ascontiguousarray(coeffs.transpose(0, 2, 1, 3)).ravel()


def as_coeffs(vec, n, nmodes):
    """Inverse of :func:`as_vector`; a view of `vec`, not a copy."""
    return vec.reshape(n, nmodes, n, nmodes).transpose(0, 2, 1, 3)


def _reference_blocks(basis):
    """The reference-cell matrices of the modes phi_a = sqrt(a + 1/2) P_a on [-1, 1].

    In closed form: der[c, a] = int phi_c phi_a' is 2 sqrt((c + 1/2)(a + 1/2))
    when c < a and c + a is odd, else 0; jmat = int xi phi_c phi_a is
    tridiagonal with (c + 1) / sqrt((2c + 1)(2c + 3)) at (c, c + 1) and
    (c + 1, c); er = sqrt(a + 1/2) and el = (-1)^a sqrt(a + 1/2) are the mode
    values at xi = 1 and xi = -1.  der is formed from er er^T, so integration
    by parts, der + der^T = er er^T - el el^T, holds exactly.
    """
    m = basis.nmodes
    er = np.sqrt(np.arange(m) + 0.5)
    el = er * (-1.0) ** np.arange(m)
    c, a = np.indices((m, m))
    der = np.where((c < a) & ((c + a) % 2 == 1), 2.0 * np.outer(er, er), 0.0)
    n = np.arange(1.0, m)
    jmat = np.diag(n / np.sqrt((2.0 * n - 1.0) * (2.0 * n + 1.0)), 1)
    return der, jmat + jmat.T, el, er


def _one_d_operators(mesh, basis):
    """The five 1D operators (grad_x, grad_v, div_v, vmass, penalty) of the scheme.

    Dense arrays of order N (k + 1).  grad_v, vmass and penalty are written
    block by block onto their (k + 1) x (k + 1) block diagonals; even at
    N = 64, k = 2 the five hold a small fraction of the entries of the
    assembled operator.  The other two follow from integration by parts on
    the reference cell, der + der^T = er er^T - el el^T: with the alternating
    fluxes the v-divergence is the adjoint of the v-gradient, div_v = grad_v^T,
    and the upwind x-gradient differs from -grad_v^T only by the first
    cell's lower-face term (2/h) el el^T, which is h penalty:
    grad_x = h penalty - grad_v^T.
    """
    n, h, m = mesh.n, mesh.h, basis.nmodes
    der, jmat, el, er = _reference_blocks(basis)
    left = np.outer(el, el)  # the two traces on a cell's lower face
    two_h = 2.0 / h

    grad_v_inner = der - np.outer(er, er)
    grad_v = _block_diagonals(n, m, {0: two_h * grad_v_inner, 1: two_h * np.outer(er, el)},
                              first=two_h * (grad_v_inner + left))
    vmass = _block_diagonals(
        n, m, {0: mesh.centers[:, None, None] * np.eye(m) + 0.5 * h * jmat}
    )
    penalty = _block_diagonals(n, m, {}, first=(2.0 / h ** 2) * left)
    div_v = np.ascontiguousarray(grad_v.T)
    return h * penalty - div_v, grad_v, div_v, vmass, penalty


def _block_diagonals(n, m, diagonals, first=None):
    """An (n m, n m) array with the blocks `diagonals[offset]` on the block
    diagonal `offset` (one (m, m) block for all cells, or one per cell) and
    zeros elsewhere; `first`, if given, replaces the first diagonal block.
    """
    out = np.zeros((n, m, n, m))
    for offset, block in diagonals.items():
        rows = np.arange(max(0, -offset), n - max(0, offset))
        out[rows, :, rows + offset, :] = block
    if first is not None:
        out[0, :, 0, :] = first
    return out.reshape(n * m, n * m)


def _step_factors(mesh, basis, theta):
    """The dense 1D factors (grad_x, vmass, v_block) of the spatial operator.

    The operator is grad_x (x) vmass + I (x) v_block, where
    v_block = (div_v - vmass) grad_v + theta penalty - I gathers transport
    and diffusion in v, the boundary penalty along v = 0 scaled by theta,
    and the negative unit zeroth-order shift coming from rewriting the drift
    divergence.
    """
    theta = _positive_finite(theta, "penalty parameter")
    grad_x, grad_v, div_v, vmass, penalty = _one_d_operators(mesh, basis)
    with np.errstate(over="ignore"):
        v_block = (div_v - vmass) @ grad_v + theta * penalty - np.eye(grad_v.shape[0])
    if not np.isfinite(v_block).all():
        raise SolverFailure("the v-block overflows at penalty parameter %r" % (theta,))
    return grad_x, vmass, v_block


def _sparse_operator(grad_x, vmass, v_block):
    """kron(grad_x, vmass) + kron(I, v_block) as a scipy CSR matrix."""
    import scipy.sparse as sp

    return (sp.kron(grad_x, vmass) + sp.kron(sp.identity(v_block.shape[0]), v_block)).tocsr()


def assemble_spatial(mesh, basis, theta):
    """Sparse spatial operator acting on the primary unknown.

    grad_x (x) vmass + I (x) v_block, assembled from the factors of
    :func:`_step_factors`.  The time steps never use it; it needs scipy,
    which is imported on the first call.
    """
    return _sparse_operator(*_step_factors(mesh, basis, theta))


@dataclass(eq=False)
class LDGSystem:
    """The time-step system S = d0 * I + G (x) V + I (x) B and its x-upwind block sweep.

    In the (i, a, J) ordering, with J = (j, b) running over nv = N * m
    v-indices, the step matrix is kron(I_N, A) + kron(S_x, E): A is the x-cell
    block, S_x the sub-diagonal shift and E = -K kron(er^T, I_nv) the coupling
    to the upwind cell, where K = kron(kappa, V) and kappa = (2/h) el.  Hence
    the cells are solved in the flow direction, A u_i = r_i + K tau_{i-1},
    with tau_i = kron(er^T, I_nv) u_i the right trace of cell i.  How a sweep
    solves the cells is the subclass's: :class:`DenseSweepSystem` applies the
    dense inverse of A, :class:`EigenSweepSystem` diagonalizes the v-factor;
    :func:`assemble_system` chooses between them.  Either sweep is a fixed
    handful of products that use numpy alone.

    :meth:`solve` sweeps a group of consecutive time steps, one after the
    other, and then checks all their residuals in one batched pass,
    matrix-free from the 1D factors, against the normwise backward-error
    scale norm_bound ||x|| + ||b||, b the right-hand side (Rigal & Gaches,
    J. ACM 14, 1967).  `norm_bound` = d0 + beta(G) beta(V) + beta(B), with
    beta(X) = sqrt(||X||_1 ||X||_inf) >= ||X||_2, bounds ||S||_2 from above.
    Immutable after construction.

    `matrix` (the assembled step matrix) and `lu` (the SuperLU factors of A)
    are built with scipy on first access, for inspection and tests only.
    """

    grad_x: np.ndarray = field(repr=False)  # G, shape (nv, nv)
    vmass: np.ndarray = field(repr=False)  # V, shape (nv, nv)
    v_block: np.ndarray = field(repr=False)  # B, shape (nv, nv)
    d0: float
    right: np.ndarray = field(repr=False)  # x-mode values er at the right cell edge
    norm_bound: float  # an upper bound of ||S||_2

    @cached_property
    def matrix(self):
        """The assembled step matrix d0 * I + spatial, in scipy CSR format."""
        import scipy.sparse as sp

        spatial = _sparse_operator(self.grad_x, self.vmass, self.v_block)
        return (self.d0 * sp.identity(spatial.shape[0]) + spatial).tocsr()

    @cached_property
    def lu(self):
        """SuperLU factors of the x-cell block A; no time step uses them."""
        import scipy.sparse.linalg as spla

        cell = self.right.size * self.v_block.shape[0]
        return spla.splu(self.matrix[:cell, :cell].tocsc())

    def solve(self, rhs, coupling, out):
        """Solve a group of g consecutive time steps; raise SolverFailure if one fails.

        `out` has shape (p + g, ndof); its first p rows are earlier
        solutions, read but not written.  Row r of the (g, ndof) `rhs` holds
        step p + r's history, partial-sum and load terms, and `coupling` the
        CQ weights d_1 .. d_{p+g-1}, so row r solves

            (d0 I + spatial) x_{p+r} = rhs_r - sum_{j=1}^{p+r} d_j x_{p+r-j}

        by forward substitution in time, one sweep per row, into row p + r of
        `out`.  Then every new row's residual is checked in one pass, and the
        first row whose backward error ||S x - b|| / (norm_bound ||x|| + ||b||),
        in the 2-norm with b its right-hand side, exceeds SOLVE_RTOL raises
        SolverFailure; the rows after it were computed from its solution.
        `rhs` is overwritten by the right-hand sides b.
        """
        p = out.shape[0] - rhs.shape[0]
        lags = np.ascontiguousarray(coupling[::-1])  # d_{p+g-1} .. d_1; a reversed view is slow
        # a failed row feeds non-finite values into the later rows; the check
        # below reports the first failed row, so no overflow warning is needed
        with np.errstate(all="ignore"):
            for r in range(p, out.shape[0]):
                if r:
                    rhs[r - p] -= lags[lags.size - r:] @ out[:r]
                self._sweep(rhs[r - p], out[r])
            (load, solution, resid), (e_load, e_x, e_resid) = _scaled_row_norms(
                rhs, out[p:], self._residuals(out[p:], rhs))
            # each norm is norms * 2**e; the scale norm_bound ||x|| + ||b|| is
            # taken in units of 2**e_resid, and a zero one has a zero residual
            bound, e_bound = math.frexp(self.norm_bound)
            scale = np.ldexp(bound * solution, e_x + e_bound - e_resid)
            scale += np.ldexp(load, e_load - e_resid)
            ratio = resid / np.maximum(scale, _TINY, out=scale)
        failed = np.flatnonzero(~(ratio <= SOLVE_RTOL))
        if failed.size:
            raise SolverFailure(
                "direct solve backward error %.3e exceeds %.1e (residual over"
                " ||S|| ||x|| + ||b||)" % (ratio[failed[0]], SOLVE_RTOL)
            )
        return out

    def _sweep(self, rhs, out):
        """Solve one step exactly for the 1-D `rhs`, into the 1-D `out`."""
        raise NotImplementedError

    def _residuals(self, x, rhs):
        """The residuals M x_r - rhs_r of the rows, as a new (g, ndof) array.

        M x is d0 X + G (X V^T) + X B^T on each row's (nv, nv) view X; at
        most two arrays of the group's size exist at a time, the result one.
        """
        g, nv = x.shape[0], self.v_block.shape[0]
        u = x.reshape(g * nv, nv)
        t = u @ self.vmass.T
        resid = self.grad_x @ t.reshape(g, nv, nv)
        np.matmul(u, self.v_block.T, out=t)
        resid += t.reshape(g, nv, nv)
        np.multiply(u, self.d0, out=t)
        resid += t.reshape(g, nv, nv)
        resid = resid.reshape(g, -1)
        return np.subtract(resid, rhs, out=resid)


@dataclass(eq=False)
class DenseSweepSystem(LDGSystem):
    """The block sweep with the dense inverse of the x-cell block A.

    u_i = y_i + lift tau_{i-1}, with y_i = A^{-1} r_i and lift = A^{-1} K,
    and the right traces obey tau_i = c_i + T tau_{i-1}, where c_i is the
    trace of y_i and T the trace of lift.  Every y_i comes from one product
    with the dense A^{-1}, stored transposed and contiguous as the product
    reads it; the recurrence is solved by the doubling scan of
    :func:`_trace_scan` with the stored powers (T^T)^(2^p).
    """

    inverse_t: np.ndarray = field(repr=False)  # dense A^{-T}, shape (m * nv, m * nv)
    lift_t: np.ndarray = field(repr=False)  # (A^{-1} K)^T, shape (nv, m * nv)
    powers: np.ndarray = field(repr=False)  # (T^T)^(2^p), shape (ceil(log2 N), nv, nv)

    def _sweep(self, rhs, out):
        cell, nv = self.inverse_t.shape[0], self.lift_t.shape[0]
        y = out.reshape(-1, cell)  # row i is y_i
        np.matmul(rhs.reshape(-1, cell), self.inverse_t, out=y)
        # row i holds c_i, then tau_i once the scan has passed it
        traces = _trace_scan(self.right @ y.reshape(y.shape[0], self.right.size, nv),
                             self.powers)
        y[1:] += traces[:-1] @ self.lift_t


@dataclass(eq=False)
class EigenSweepSystem(LDGSystem):
    """The block sweep by fast diagonalization in v (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964).

    With U_i the (m, nv) view of u_i, A u_i = (G_d U_i + U_i M^T) V^T, where
    G_d is the diagonal block of G and M = V^{-1} (d0 I + B).  Given
    M^T = Q diag(lambda) Q^{-1}, the columns of W_i = U_i Q decouple:

        (G_d + lambda_J I) w_{iJ} = z_{iJ} + kappa sigma_{i-1, J},

    with Z_i = R_i V^{-T} Q and sigma_i = Q^T tau_i = W_i^T er.  So
    w_{iJ} = y_{iJ} + l_J sigma_{i-1, J}, with y_{iJ} = C_J z_{iJ},
    C_J = (G_d + lambda_J I)^{-1} and l_J = C_J kappa, and each trace obeys
    the scalar recurrence sigma_{iJ} = er^T y_{iJ} + t_J sigma_{i-1, J} with
    t_J = er^T l_J, solved by the doubling scan elementwise.  A sweep is one
    product into the eigenbasis, the m x m solves, the scan, the rank-one
    lift and one product back, U_i = W_i Q^{-1}.
    """

    to_eigen: np.ndarray = field(repr=False)  # V^{-T} Q, shape (nv, nv)
    from_eigen: np.ndarray = field(repr=False)  # Q^{-1}, shape (nv, nv)
    cells: np.ndarray = field(repr=False)  # cells[a, b, J] = C_J[a, b], shape (m, m, nv)
    lifts: np.ndarray = field(repr=False)  # lifts[a, J] = l_J[a], shape (m, nv)
    powers: np.ndarray = field(repr=False)  # t^(2^p), shape (ceil(log2 N), nv)

    def _sweep(self, rhs, out):
        m, nv = self.lifts.shape
        z = out.reshape(-1, nv)
        np.matmul(rhs.reshape(-1, nv), self.to_eigen, out=z)
        w = np.einsum("abj,ibj->iaj", self.cells, z.reshape(-1, m, nv))
        # row i holds er^T y_i, then sigma_i once the scan has passed it
        traces = _trace_scan(self.right @ w, self.powers, np.multiply)
        for a in range(m):  # one (N - 1, nv) temporary at a time
            w[1:, a] += traces[:-1] * self.lifts[a]
        np.matmul(w.reshape(-1, nv), self.from_eigen, out=z)


#: Sums of squares in this range are free of overflow and of harmful underflow.
_SAFE_SQUARES = (2.0 ** -900, np.finfo(float).max)

_TINY = np.finfo(float).tiny


def _scaled_row_norms(*arrays):
    """The 2-norms of the rows of each (g, n) array as (norms, e), that of row
    r of arrays[s] being norms[s, r] * 2**e[s][r].

    The sums of squares of all rows are tested once: when every one is safe,
    each e[s] is 0.  Otherwise each row is scaled by 2**-e, with 2**e the
    power of two just above its largest entry: every entry is then below 1,
    so no norm overflows, and the scaling is exact, so a ratio of two norms
    is that of the unscaled ones times a power of two.
    """
    norms = np.empty((len(arrays), arrays[0].shape[0]))
    for row, rows in zip(norms, arrays):
        np.einsum("ij,ij->i", rows, rows, out=row)
    lo, hi = _SAFE_SQUARES
    if lo <= norms.min() and norms.max() <= hi:  # false for a NaN
        return np.sqrt(norms, out=norms), (0,) * len(arrays)
    e = [np.frexp(np.abs(rows).max(axis=1))[1] for rows in arrays]
    return [np.linalg.norm(np.ldexp(rows, -es[:, None]), axis=1) for rows, es in zip(arrays, e)], e


def _doubling_powers(transfer_t, n, product=np.matmul):
    """The powers transfer_t^(2^p) for p < ceil(log2 n), stacked; empty at n = 1.

    `product` is np.matmul for a matrix, np.multiply for the diagonal of one.
    """
    count = (n - 1).bit_length()
    powers = np.empty((count,) + transfer_t.shape)
    if count:
        powers[0] = transfer_t
    for p in range(1, count):
        product(powers[p - 1], powers[p - 1], out=powers[p])
    return powers


def _trace_scan(traces, powers, product=np.matmul):
    """Solve tau_i = c_i + product(tau_{i-1}, P) for the rows of `traces`, in place.

    Row i holds c_i on entry and tau_i on return, with tau_0 = c_0 and
    powers[p] = P^(2^p); `product` is np.matmul for a matrix P, np.multiply
    for a diagonal one given as a vector.  After the pass with shift s = 2^p
    every row holds the sum of its last 2s terms; the right-hand side of each
    pass is formed before the update, so rows read the previous pass
    (Hillis & Steele, CACM 29, 1986).  Exact: ceil(log2 N) passes reach
    every lag below N.
    """
    s = 1
    for power in powers:
        traces[s:] += product(traces[:-s], power)
        s *= 2
    return traces


#: The eigen sweep is used from this many v-unknowns nv = N (k + 1) on.  It
#: costs about 4 m^3 N^3 flops a step, m = k + 1, against
#: 2 m^4 N^3 + 2 m^3 N^3 + 2 m^2 N^3 log2 N for the dense sweep, but in more
#: and smaller operations.  Measured on both (2 vCPUs, OpenBLAS, 2 threads),
#: it was slower at nv = 32 (k = 1) and nv = 60 (k = 2), even at nv = 60
#: (k = 1), and faster at every size from nv = 88 on; 96 keeps a margin.
EIGEN_SWEEP_MIN_NV = 96

#: The largest 2-norm condition number of the eigenvectors Q that the eigen
#: sweep accepts, since the rounding of its two changes of basis grows with
#: it.  Measured, it was at most 11.3 (nv <= 1024, k <= 30, d0 in [1e-3, 1e6]).
EIGEN_SWEEP_MAX_COND = 30.0


def _norm_bound(grad_x, vmass, v_block, d0):
    """d0 + beta(G) beta(V) + beta(B), with beta(X) = sqrt(||X||_1 ||X||_inf) >= ||X||_2."""
    def beta(x):
        return math.sqrt(np.linalg.norm(x, 1)) * math.sqrt(np.linalg.norm(x, np.inf))

    with np.errstate(over="ignore"):
        bound = d0 + beta(grad_x) * beta(vmass) + beta(v_block)
    if not math.isfinite(bound):
        raise SolverFailure("the norm of the step matrix overflows")
    return bound


def assemble_system(factors, d0, basis):
    """Set up the block sweep for d0 * I + spatial once for all time steps.

    `factors` is the triple (grad_x, vmass, v_block) of dense 1D factors of
    the spatial operator kron(grad_x, vmass) + kron(I, v_block).  Where the
    run's plan says so, the eigen sweep is tried (:func:`_eigen_system`);
    elsewhere, or when it does not apply, the dense one
    (:func:`_dense_system`) is set up.
    """
    eigen = _run_plan(factors[2].shape[0], basis.nmodes).eigen
    system = _eigen_system(factors, d0, basis) if eigen else None
    return system if system is not None else _dense_system(factors, d0, basis)


def _dense_system(factors, d0, basis):
    """The dense sweep's system.

    Every x-cell of the uniform mesh has the same diagonal block
    A = d0 I + kron(grad_x[:m, :m], vmass) + kron(I_m, v_block), and the
    upwind coupling is K = -kron(grad_x[m:2m, :1], vmass) / er[0].  Both are
    formed dense, of order m * nv; no ndof-sized matrix is built.
    """
    grad_x, vmass, v_block = factors
    bound = _norm_bound(grad_x, vmass, v_block, d0)
    m = basis.nmodes
    nv = v_block.shape[0]
    cell = m * nv
    block = np.kron(grad_x[:m, :m], vmass)
    diagonal = block.reshape(m, nv, m, nv)
    for a in range(m):
        diagonal[a, :, a, :] += v_block
    block.flat[::cell + 1] += d0
    try:
        # the inverse of A^T is A^{-T}: the sweep's product reads the inverse
        # transposed, so it is formed contiguous in that layout
        inverse_t = np.linalg.inv(block.T)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("the x-cell block cannot be inverted: %s" % (exc,)) from exc
    del block, diagonal
    if not np.isfinite(inverse_t).all():
        raise SolverFailure("the x-cell block has no finite inverse")
    right = _reference_blocks(basis)[3]
    if nv > m:
        coupling = -np.kron(grad_x[m:2 * m, :1], vmass) / right[0]
    else:
        coupling = np.zeros((cell, nv))
    lift_t = coupling.T @ inverse_t  # (A^{-1} K)^T
    del coupling
    # transfer^T[K, J] = sum_a er[a] lift[a nv + J, K]
    transfer_t = right @ lift_t.reshape(nv, right.size, nv)
    return DenseSweepSystem(
        grad_x=grad_x, vmass=vmass, v_block=v_block, d0=d0, right=right, norm_bound=bound,
        inverse_t=inverse_t, lift_t=lift_t, powers=_doubling_powers(transfer_t, nv // m),
    )


def _eigen_system(factors, d0, basis):
    """The eigen sweep's system, or None when M = V^{-1} (d0 I + B) has a
    complex eigenvalue, eigenvectors Q with a condition number above
    EIGEN_SWEEP_MAX_COND, or a shifted cell block G_d + lambda_J I without a
    finite inverse.
    """
    grad_x, vmass, v_block = factors
    bound = _norm_bound(grad_x, vmass, v_block, d0)
    m = basis.nmodes
    nv = v_block.shape[0]
    shifted = v_block + d0 * np.eye(nv)
    try:
        lam, q = np.linalg.eig(np.linalg.solve(vmass, shifted).T)  # M^T = Q diag(lam) Q^{-1}
        if lam.dtype.kind == "c" or not np.linalg.cond(q) <= EIGEN_SWEEP_MAX_COND:
            return None
        from_eigen = np.linalg.inv(q)
        cells = np.linalg.inv(grad_x[:m, :m] + lam[:, None, None] * np.eye(m))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(cells).all():
        return None
    right = _reference_blocks(basis)[3]
    kappa = -grad_x[m:2 * m, 0] / right[0] if nv > m else np.zeros(m)
    lifts = cells @ kappa  # (nv, m)
    return EigenSweepSystem(
        grad_x=grad_x, vmass=vmass, v_block=v_block, d0=d0, right=right, norm_bound=bound,
        to_eigen=np.linalg.solve(vmass.T, q), from_eigen=from_eigen,
        cells=np.ascontiguousarray(cells.transpose(1, 2, 0)), lifts=np.ascontiguousarray(lifts.T),
        powers=_doubling_powers(lifts @ right, nv // m, np.multiply),
    )


def build_system(mesh, basis, d0, theta):
    """Build the dense 1D factors and set up the step system's sweep."""
    return assemble_system(_step_factors(mesh, basis, theta), d0, basis)


def project_initial(g0, mesh, basis):
    """Cell-wise L2 projection of the initial data onto the discrete space.

    A projection that is not finite raises PreconditionError.
    """
    return DGField(_finite_projection(g0, mesh, basis, "the initial data g0"))


@dataclass(eq=False)
class Trajectory:
    """All time levels of one run; `fields[n]` is the state at t = n * tau.

    `levels` is the single array that `march` returned, one raveled level
    per row; a T = 0 run holds only the projection.  `fields` and `final`
    wrap its rows in DGFields, whose coefficients view the rows, on first
    access, and `final` is always `fields[-1]`.
    """

    mesh: Mesh2D
    basis: Basis
    tau: float
    levels: np.ndarray = field(repr=False)

    @cached_property
    def fields(self):
        return [self._field(level) for level in self.levels[:-1]] + [self.final]

    @cached_property
    def final(self):
        return self._field(self.levels[-1])

    def _field(self, level):
        return DGField(as_coeffs(level, self.mesh.n, self.basis.nmodes))


def _integral_steps(t_final, tau):
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise PreconditionError("final time must be finite and nonnegative, got %r" % (t_final,))
    if not math.isfinite(t_final / tau):
        raise PreconditionError(
            "final time %r holds more steps of %r than a float can count" % (t_final, tau)
        )
    steps = round(t_final / tau)
    if abs(steps * tau - t_final) > 1e-9 * max(t_final, tau):
        raise PreconditionError(
            "final time %r is not an integral multiple of the step %r" % (t_final, tau)
        )
    return int(steps)


#: Steps per block of the history engine: the lags from before a block enter
#: it in a few GEMMs, those inside it step by step in LDGSystem.solve.
HISTORY_BLOCK = 16

#: Lags up to HISTORY_WINDOW are summed directly; longer ones come from the
#: sum-of-exponentials accumulators, which no table run reaches.  A multiple
#: of HISTORY_BLOCK, so the accumulators advance a whole block.
HISTORY_WINDOW = 320

#: Bytes allowed for a group's buffer of right-hand sides, and per temporary
#: of one column chunk of the far field.
BUFFER_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class _RunPlan:
    """The shape of one run, as :func:`_run_plan` decides it."""

    eigen: bool  # set-up tries the eigen sweep
    far: bool  # the sum-of-exponentials far field runs
    width: int  # columns per chunk of the far field; 0 without one
    rows: int  # steps per LDGSystem.solve call
    arrays: dict  # the run's arrays by name, each with its size in doubles


def _run_plan(nv, nmodes, steps=0, alpha=1.0, terms=0):
    """The plan of a run of `steps` steps of order `alpha` with nv = N (k + 1)
    v-unknowns, nmodes = k + 1 and `terms` source terms.

    A group's right-hand sides and each far-field chunk's temporaries fit
    BUFFER_BYTES.  Of the arrays, the sampled data is g0 or a source factor
    at its projection's points; the operators are the five 1D ones and the
    v-block; the eigen sweep's "dense fallback" reserves the difference to
    the dense sweep's, which set-up builds if the eigen sweep does not
    apply; the accumulators, one level per node of `soe_rule`, are counted
    at alpha = 1, where the rule has the most nodes.
    """
    n, m, ndof = nv // nmodes, nmodes, nv * nv
    eigen = nv >= EIGEN_SWEEP_MIN_NV
    past_window = steps > HISTORY_WINDOW + HISTORY_BLOCK
    far = past_window and alpha < 1.0
    nodes = soe_node_count(alpha, steps, HISTORY_WINDOW) if far else 0
    width = max(1, BUFFER_BYTES // (8 * max(nodes, HISTORY_BLOCK))) if far else 0
    rows = max(1, min(HISTORY_BLOCK, BUFFER_BYTES // (8 * ndof)))
    scan = (n - 1).bit_length()
    arrays = {"sampled data": (n * (m + 1)) ** 2, "levels": (steps + 1) * ndof}
    if steps:
        sweep = {"cell block": 2 * m ** 2 * ndof, "lift": m * ndof, "powers": scan * ndof}
        if eigen:
            dense = sum(sweep.values())
            sweep = {"transforms": 2 * ndof, "cell inverses": nv * m ** 2, "lifts": nv * m,
                     "powers": scan * nv}
            sweep["dense fallback"] = dense - sum(sweep.values())
        arrays.update({
            "weights": 2 * (steps + 1),  # with their partial sums
            "operators": 6 * ndof, **sweep,
            "source factors": terms * ndof, "amplitudes": terms * (steps + 1),
            "near weights": HISTORY_BLOCK * HISTORY_WINDOW, "group buffer": rows * ndof,
        })
    if past_window:
        arrays["accumulators"] = soe_node_count(1.0, steps, HISTORY_WINDOW) * ndof
    return _RunPlan(eigen, far, width, rows, arrays)


def _run_arrays(n, basis, steps, terms=0):
    """The arrays of a run on an n x n mesh by name, each with its size in
    doubles, as its plan counts them (:func:`_run_plan`)."""
    return _run_plan(n * basis.nmodes, basis.nmodes, steps, terms=terms).arrays


def _require_run_memory(n, basis, steps, terms=0):
    """Raise PreconditionError if the arrays of :func:`_run_arrays` cannot fit in
    physical memory, or if the run has more than MAX_STEPS steps.  Call it
    before allocating any of them.
    """
    if not isinstance(n, Integral) or n < 1:
        return  # build_mesh names the bad resolution
    require_memory(sum(_run_arrays(int(n), basis, steps, terms).values()),
                   "a run of %.4g steps at N = %d, k = %d" % (steps, n, basis.degree))
    if steps > MAX_STEPS:
        raise PreconditionError("a run of %d steps is more than the limit of %d"
                                % (steps, MAX_STEPS))


def march(system, weights, g0_vec, source):
    """Run the stepping loop on raw vectors; returns all levels, shape (steps+1, ndof).

    The run has as many steps as `weights`.  `source` is None when
    source-free, else a pair (amplitudes, factors): the (steps+1, K) array
    amplitudes[n, k] = a_k(t_n), whose row 0 is not read, and the (K, ndof)
    raveled projections P_k, so the load of step n is amplitudes[n] @ factors.

    The history sum -sum_{j=1}^{n-1} d_j g^{n-j} is taken over blocks of
    HISTORY_BLOCK steps.  Before a block is solved, its rows of the returned
    array, not yet solved, receive the lags from before the block and so
    serve as the accumulator:

    - lags up to HISTORY_WINDOW (plus the block's offset) from one Toeplitz
      GEMM of the weights with the stored levels;
    - longer lags, if the run's plan (:func:`_run_plan`) has a far field,
      from the sum-of-exponentials rule d_j ~ sum_l c_l e^{-j x_l} of
      :func:`fkramers.cq.soe_rule`, as in fast oblivious convolution
      quadrature (Schaedle, Lopez-Fernandez & Lubich, SISC 28, 2006): one
      accumulator row per node holds sum_i e^{-(p-i) x_l} g^i over the levels
      up to p = lo - HISTORY_WINDOW - 1 for the block starting at lo, is
      advanced by one GEMM per block and read out by another.

    A block is then solved in groups of the plan's size, one LDGSystem.solve
    call each: a group's buffer receives the partial-sum term, the history
    and the loads, and the solve adds the lags from the block's earlier rows
    step by step.  The arrays kept are the plan's, besides temporaries of a
    far-field chunk's and of a group's size.
    """
    d, s, steps = weights.d, weights.partial_sums, weights.steps
    plan = _run_plan(system.v_block.shape[0], system.right.size, steps, weights.alpha,
                     0 if source is None else len(source[1]))
    levels = np.zeros((steps + 1, g0_vec.size))
    levels[0] = g0_vec
    far = _FarField(weights, g0_vec.size) if plan.far else None
    # near[r, c] = d[W + r - c], the weight from column c of a window to row r
    near = d[np.minimum(np.subtract.outer(np.arange(HISTORY_BLOCK), np.arange(HISTORY_WINDOW))
                        + HISTORY_WINDOW, steps)]
    amplitudes, factors = (None, None) if source is None else source
    rhs = np.empty((min(plan.rows, steps), g0_vec.size))
    for lo in range(1, steps + 1, HISTORY_BLOCK):
        hi = min(lo + HISTORY_BLOCK, steps + 1)
        first = max(1, lo - HISTORY_WINDOW)
        if lo > first:
            np.matmul(near[:hi - lo, first - lo:], levels[first:lo], out=levels[lo:hi])
        if far is not None:
            far.add(levels, lo, hi, plan.width)
        for glo in range(lo, hi, plan.rows):
            ghi = min(glo + plan.rows, hi)
            group = rhs[:ghi - glo]
            np.multiply.outer(s[glo - 1:ghi - 1], g0_vec, out=group)
            group -= levels[glo:ghi]
            if factors is not None:
                group += amplitudes[glo:ghi] @ factors
            system.solve(group, d[1:ghi - lo], out=levels[lo:ghi])
    return levels


class _FarField:
    """A plan's "accumulators": sums of exponentials for the lags beyond HISTORY_WINDOW."""

    def __init__(self, weights, ndof):
        x, c = soe_rule(weights.alpha, weights.steps, HISTORY_WINDOW)
        r = np.arange(HISTORY_BLOCK)
        self.decay = np.exp(-HISTORY_BLOCK * x)
        # enter[l, r] weights level p - B + 1 + r on entering accumulator l
        self.enter = np.exp(-np.outer(x, HISTORY_BLOCK - 1 - r))
        # read[r, l]: accumulator l's share of row lo + r, lag lo + r - p = W + 1 + r
        self.read = (weights.d[0] * c) * np.exp(-np.outer(HISTORY_WINDOW + 1 + r, x))
        self.acc = np.zeros((x.size, ndof))

    def add(self, levels, lo, hi, width):
        """Advance the accumulators to p = lo - W - 1, add them to rows lo .. hi-1."""
        p = lo - HISTORY_WINDOW - 1
        if p < 1:
            return
        entering = levels[p - HISTORY_BLOCK + 1:p + 1]
        read = self.read[:hi - lo]
        self.acc *= self.decay[:, None]
        for c0 in range(0, self.acc.shape[1], width):
            cols = slice(c0, c0 + width)
            acc = self.acc[:, cols]
            acc += self.enter @ entering[:, cols]
            levels[lo:hi, cols] += read @ acc


def run(problem, n, k, tau, theta=1.0):
    """Solve the problem on an n x n mesh with degree-k elements and step tau.

    Returns the full trajectory.  T = 0 yields just the projected initial
    state.  The mesh must place a cell boundary on every discontinuity line
    of the problem.  The step system's sweep is set up and each source
    factor projected exactly once, and each amplitude a_k is called once, on
    the array of the step times t_1 .. t_steps; the load of step n is then
    sum_k a_k(t_n) P_k.  Initial data, source factors or amplitudes whose
    values are not finite, or do not broadcast to the points they are
    sampled at, raise PreconditionError.
    """
    tau = _positive_finite(tau, "time step")
    theta = _positive_finite(theta, "penalty parameter")
    basis = Basis(k)
    steps = _integral_steps(problem.t_final, tau)
    terms = problem.source_terms
    _require_run_memory(n, basis, steps, len(terms))
    mesh = build_mesh(n)
    require_mesh_aligned(problem.discontinuities, mesh)
    g0_field = project_initial(problem.g0, mesh, basis)
    if steps == 0:
        return Trajectory(mesh=mesh, basis=basis, tau=tau, levels=as_vector(g0_field.coeffs)[None])
    weights = cq_weights(problem.alpha, tau, steps)
    system = build_system(mesh, basis, weights.d[0], theta)
    source = None
    if terms:
        # one row per source term: its factor's projection, projected once,
        # and one column of amplitudes, a constant one broadcast; no step
        # reads row 0, the initial time, so it stays zero
        factors = np.stack([as_vector(p) for p in load_vector(problem, mesh, basis)])
        times = tau * np.arange(1, steps + 1)
        amplitudes = np.zeros((steps + 1, len(terms)))
        for term, (column, (a, _)) in enumerate(zip(amplitudes.T, terms), 1):
            column[1:] = _broadcast_data(a(times), times.shape, "source amplitude a_%d" % term,
                                         "the step times")
            bad = np.flatnonzero(~np.isfinite(column[1:]))
            if bad.size:
                raise PreconditionError("source amplitude a_%d is not finite at t = %r"
                                        % (term, float(times[bad[0]])))
        source = (amplitudes, factors)
    levels = march(system, weights, as_vector(g0_field.coeffs), source)
    return Trajectory(mesh=mesh, basis=basis, tau=tau, levels=levels)


def field_to_csv(fld):
    """CSV dump of a field: one row per coefficient, cells 1-based.

    Adding 0.0 prints an exact zero as 0.000E+00 whatever its sign bit.
    """
    lines = ["i,j,mode_a,mode_b,coefficient"]
    n, m = fld.mesh.n, fld.basis.nmodes
    for i in range(n):
        for j in range(n):
            for a in range(m):
                for b in range(m):
                    lines.append(
                        "%d,%d,%d,%d,%.3E" % (i + 1, j + 1, a, b, fld.coeffs[i, j, a, b] + 0.0)
                    )
    return "\n".join(lines) + "\n"
