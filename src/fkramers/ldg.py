"""Local discontinuous Galerkin discretization and the implicit stepping loop.

Space: full tensor modal basis of degree k per cell on a uniform square mesh.
The auxiliary gradient uses one-sided fluxes: in x the trace from the left
with zero inflow at x = 0, in v the trace from above with zero boundary
values at v = 0 and v = 1.  The diffusion flux takes the trace from below,
plus a penalty term theta/h acting on the solution trace along v = 0.

Because the basis is orthonormal per cell, element mass matrices are the
identity, and the auxiliary variables are eliminated element-locally.

The per-cell coefficient layout is (x-cell i, v-cell j, x-mode a, v-mode b).
Internally vectors are raveled in the order (i, a, j, b) so every global
operator is a Kronecker product of small 1D operators.  The spatial operator
has the two-factor form G (x) V + I (x) B: G is the upwind x-gradient, V the
velocity weight, and B gathers v-transport, diffusion, penalty and the shift.

G is block lower bidiagonal over the x-cells with equal diagonal blocks, so
each time step is solved exactly by an x-upwind block sweep (Reed & Hill,
1973): the dense inverse of a single x-cell block, formed once per run,
applied to all cells in one matrix product, then a recurrence over the cell
traces in the flow direction and one more product for the upwind coupling.
The step path keeps only the dense 1D factors G, V, B and arrays of order at
most (k + 1)^2 N, and uses numpy alone; scipy is imported only to build the
assembled sparse operator on request (`assemble_spatial`, `LDGSystem.matrix`
and `LDGSystem.lu`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Optional

import numpy as np

from .cq import cq_weights
from .errors import PreconditionError, SolverFailure, _positive_finite, require_memory
from .mesh import Basis, Mesh2D, build_mesh, gauss_rule, modal_project
from .problems import load_vector, require_mesh_aligned

#: Relative residual accepted from the direct solver.
SOLVE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DGField:
    """A discrete field: modal coefficients on every cell.

    The L2 norm over the square equals the Euclidean norm of `coeffs`.
    """

    mesh: Mesh2D
    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        m = self.basis.nmodes
        expected = (self.mesh.n, self.mesh.n, m, m)
        if self.coeffs.shape != expected:
            raise PreconditionError(
                "coefficient tensor has shape %r, expected %r" % (self.coeffs.shape, expected)
            )


def as_vector(coeffs):
    """Ravel (i, j, a, b) coefficients into the Kronecker ordering (i, a, j, b)."""
    return np.ascontiguousarray(coeffs.transpose(0, 2, 1, 3)).ravel()


def as_coeffs(vec, n, nmodes):
    """Inverse of :func:`as_vector`; a view of `vec`, not a copy."""
    return vec.reshape(n, nmodes, n, nmodes).transpose(0, 2, 1, 3)


def _reference_blocks(basis):
    """Small dense matrices on the reference interval used by all operators."""
    rule = gauss_rule(basis.degree + 2)
    tab = basis.eval_table(rule.nodes)
    dtab = basis.deriv_table(rule.nodes)
    der = (tab * rule.weights) @ dtab.T        # der[c, a] = int phi_c phi_a'
    jmat = (tab * (rule.weights * rule.nodes)) @ tab.T  # int xi phi_d phi_b
    el = basis.left_values()
    er = basis.right_values()
    return der, jmat, el, er


def _one_d_operators(mesh, basis):
    """The five 1D operators whose Kronecker products build the scheme.

    Dense arrays of order N (k + 1); even at N = 64, k = 2 the five hold a
    small fraction of the entries of the assembled operator.
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
    """The time-step system d0 * I + G (x) V + I (x) B and its x-upwind block sweep.

    In the (i, a, J) ordering, with J = (j, b) running over nv = N * m
    v-indices, the step matrix is kron(I_N, A) + kron(S, E): A is the x-cell
    block, S the sub-diagonal shift and E = -K kron(er^T, I_nv) the coupling
    to the upwind cell, where K = (2/h) kron(el, V).  Hence the cells are
    solved in the flow direction by u_i = y_i + lift tau_{i-1}, with
    y_i = A^{-1} r_i and lift = A^{-1} K, and the right traces
    tau_i = kron(er^T, I_nv) u_i obey tau_i = c_i + transfer tau_{i-1}, where
    c_i is the trace of y_i.  Every y_i comes from one product with the dense
    A^{-1}, and the residual is checked matrix-free from the 1D factors, so
    a step uses numpy alone.  Immutable after construction.

    `matrix` (the assembled step matrix) and `lu` (the SuperLU factors of A)
    are built with scipy on first access, for inspection and tests only.
    """

    grad_x: np.ndarray = field(repr=False)  # G, shape (nv, nv)
    vmass: np.ndarray = field(repr=False)  # V, shape (nv, nv)
    v_block: np.ndarray = field(repr=False)  # B, shape (nv, nv)
    d0: float
    inverse: np.ndarray = field(repr=False)  # dense A^{-1}, shape (m * nv, m * nv)
    lift: np.ndarray = field(repr=False)  # A^{-1} K, shape (m * nv, nv)
    transfer: np.ndarray = field(repr=False)  # trace of lift, shape (nv, nv)
    right: np.ndarray = field(repr=False)  # x-mode values er at the right cell edge

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

        cell = self.lift.shape[0]
        return spla.splu(self.matrix[:cell, :cell].tocsc())

    def solve(self, rhs):
        x = self._sweep(rhs)
        resid = self._apply(x)
        resid -= rhs
        # each norm is of its array scaled by 2**-e, with 2**e the power of two
        # just above the array's largest entry: every entry is then below 1, so
        # no norm overflows, and the scaling is exact, so the ratio is that of
        # the unscaled norms
        e = math.frexp(np.abs(rhs).max())[1]
        e_resid = math.frexp(np.abs(resid).max())[1]
        resid = np.linalg.norm(np.ldexp(resid, -e_resid, out=resid))
        load = max(np.linalg.norm(np.ldexp(rhs, -e)), math.ldexp(1e-30, -e))
        try:
            ratio = math.ldexp(resid / load, e_resid - e)
        except OverflowError:
            ratio = math.inf
        if not ratio <= SOLVE_RTOL:
            raise SolverFailure(
                "direct solve residual %.3e of the load norm exceeds %.1e" % (ratio, SOLVE_RTOL)
            )
        return x

    def _apply(self, x):
        """The step matrix times x, as d0 X + G (X V^T) + X B^T on x's (nv, nv) view."""
        u = x.reshape(-1, self.v_block.shape[0])
        out = self.grad_x @ (u @ self.vmass.T)
        out += u @ self.v_block.T
        out += self.d0 * u
        return out.ravel()

    def _sweep(self, rhs):
        cell, nv = self.lift.shape
        y = rhs.reshape(-1, cell) @ self.inverse.T  # row i is y_i
        # row i holds c_i, then tau_i once the recurrence has passed it
        traces = self.right @ y.reshape(y.shape[0], self.right.size, nv)
        for i in range(1, traces.shape[0]):
            traces[i] += self.transfer @ traces[i - 1]
        y[1:] += traces[:-1] @ self.lift.T
        return y.ravel()


def assemble_system(factors, d0, basis):
    """Set up the block sweep for d0 * I + spatial once for all time steps.

    `factors` is the triple (grad_x, vmass, v_block) of dense 1D factors of
    the spatial operator kron(grad_x, vmass) + kron(I, v_block).  Every
    x-cell of the uniform mesh has the same diagonal block
    A = d0 I + kron(grad_x[:m, :m], vmass) + kron(I_m, v_block), and the
    upwind coupling is K = -kron(grad_x[m:2m, :1], vmass) / er[0].  Both are
    formed dense, of order m * nv; no ndof-sized matrix is built.
    """
    d0 = _positive_finite(d0, "leading weight d0")
    grad_x, vmass, v_block = factors
    m = basis.nmodes
    nv = v_block.shape[0]
    if nv % m or any(f.shape != (nv, nv) for f in factors):
        raise PreconditionError(
            "a spatial operator of order %d does not fit degree-%d elements"
            % (nv * nv, basis.degree)
        )
    cell = m * nv
    block = np.kron(grad_x[:m, :m], vmass)
    diagonal = block.reshape(m, nv, m, nv)
    for a in range(m):
        diagonal[a, :, a, :] += v_block
    block.flat[::cell + 1] += d0
    try:
        inverse = np.linalg.inv(block)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("the x-cell block cannot be inverted: %s" % (exc,)) from exc
    del block, diagonal
    if not np.isfinite(inverse).all():
        raise SolverFailure("the x-cell block has no finite inverse")
    right = basis.right_values()
    if nv > m:
        coupling = -np.kron(grad_x[m:2 * m, :1], vmass) / right[0]
    else:
        coupling = np.zeros((cell, nv))
    lift = inverse @ coupling
    transfer = (right @ lift.reshape(right.size, -1)).reshape(nv, nv)
    return LDGSystem(
        grad_x=grad_x, vmass=vmass, v_block=v_block, d0=d0,
        inverse=inverse, lift=lift, transfer=transfer, right=right,
    )


def build_system(mesh, basis, d0, theta):
    """Build the dense 1D factors and set up the step system's sweep."""
    return assemble_system(_step_factors(mesh, basis, theta), d0, basis)


def project_initial(g0, mesh, basis, discontinuities=()):
    """Cell-wise L2 projection of the initial data onto the discrete space."""
    require_mesh_aligned(discontinuities, mesh)
    return DGField(mesh, basis, modal_project(g0, mesh, basis, basis.degree + 2))


@dataclass(eq=False)
class Trajectory:
    """All time levels of one run; `fields[n]` is the state at t = n * tau.

    The coefficients of every field view one row of the single array of
    levels that `march` returned; a T = 0 run holds only the projection.
    """

    problem: object
    mesh: Mesh2D
    basis: Basis
    tau: float
    theta: float
    times: np.ndarray
    fields: list
    system: Optional[LDGSystem]

    @property
    def final(self):
        return self.fields[-1]


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


def _require_run_memory(n, basis, steps):
    """Raise PreconditionError if a run's arrays cannot fit in physical memory.

    Counts, in doubles, what grows with the inputs: the sampled initial data
    and load, and every stored level; with steps, also the CQ weights and
    partial sums, the five dense 1D operators with the v-block, and what
    set-up holds at once: the x-cell block A, its inverse and lift.  Call it
    before allocating any of them.
    """
    if not isinstance(n, Integral) or n < 1:
        return  # build_mesh names the bad resolution
    m = basis.nmodes
    block = int(n) * m
    doubles = (int(n) * (m + 1)) ** 2 + (steps + 1) * block ** 2
    if steps:
        doubles += 2 * (steps + 1) + 6 * block ** 2 + 2 * (block * m) ** 2 + m * block ** 2
    require_memory(
        doubles,
        "a run of %.4g steps at N = %d, k = %d" % (steps, n, basis.degree),
    )


#: Size of the base blocks whose history is summed directly.
HISTORY_BLOCK = 16

#: Bytes allowed per temporary of one FFT column chunk.
FFT_CHUNK_BYTES = 1 << 18


def march(system, weights, g0_vec, load_fn, steps):
    """Run the stepping loop on raw vectors; returns all levels, shape (steps+1, ndof).

    load_fn(n) must return the raveled load at t_n, or None when source-free.

    The history sum -sum_{j=1}^{n-1} d_j g^{n-j} is the blocked lower-triangular
    Toeplitz convolution of Hairer, Lubich & Schlichte (SISC 6, 1985).  Lags
    inside the current base block of HISTORY_BLOCK steps are summed directly.
    When step m closes an odd-numbered block of size L = HISTORY_BLOCK * 2**l,
    one length-2L real FFT adds that block's contribution to rows m+1 .. m+L,
    which are not yet solved and so serve as the accumulator.  This costs
    O(steps * log(steps)**2 * ndof) time; storage is the returned array plus
    FFT temporaries of about FFT_CHUNK_BYTES each.
    """
    d = weights.d
    s = weights.partial_sums
    levels = np.zeros((steps + 1, g0_vec.size))
    levels[0] = g0_vec
    for n in range(1, steps + 1):
        b0 = n - (n - 1) % HISTORY_BLOCK
        rhs = s[n - 1] * g0_vec - levels[n]
        if n > b0:
            rhs -= d[n - b0:0:-1] @ levels[b0:n]
        extra = load_fn(n)
        if extra is not None:
            rhs = rhs + extra
        levels[n] = system.solve(rhs)
        if n % HISTORY_BLOCK == 0 and n < steps:
            # n closes an odd-numbered block whose size is n's lowest set bit
            _add_block_history(levels, d, n, n & -n)
    return levels


def _add_block_history(levels, d, m, size):
    """Add the lags from levels[m-size+1 .. m] to rows m+1 .. m+size of levels."""
    nfft = 2 * size
    kernel = np.fft.rfft(d[1:nfft], nfft)
    rows = min(size, levels.shape[0] - 1 - m)
    block = levels[m - size + 1:m + 1]
    width = max(1, FFT_CHUNK_BYTES // (8 * nfft))
    for c0 in range(0, levels.shape[1], width):
        c1 = c0 + width
        spec = np.fft.rfft(block[:, c0:c1], nfft, axis=0)
        spec *= kernel[:, None]
        conv = np.fft.irfft(spec, nfft, axis=0)
        levels[m + 1:m + 1 + rows, c0:c1] += conv[size - 1:size - 1 + rows]


def run(problem, n, k, tau, theta=1.0):
    """Solve the problem on an n x n mesh with degree-k elements and step tau.

    Returns the full trajectory.  T = 0 yields just the projected initial
    state.  The step system is set up, and its x-cell block inverted,
    exactly once.
    """
    tau = _positive_finite(tau, "time step")
    theta = _positive_finite(theta, "penalty parameter")
    basis = Basis(k)
    steps = _integral_steps(problem.t_final, tau)
    _require_run_memory(n, basis, steps)
    mesh = build_mesh(n)
    g0_field = project_initial(
        problem.g0, mesh, basis, discontinuities=problem.discontinuities
    )
    times = tau * np.arange(steps + 1)
    if steps == 0:
        return Trajectory(
            problem=problem, mesh=mesh, basis=basis, tau=tau, theta=theta,
            times=times, fields=[g0_field], system=None,
        )
    weights = cq_weights(problem.alpha, tau, steps)
    system = build_system(mesh, basis, weights.d[0], theta)

    if problem.f is None:
        load_fn = lambda n_: None
    else:
        def load_fn(n_):
            return as_vector(load_vector(problem, times[n_], mesh, basis))

    levels = march(system, weights, as_vector(g0_field.coeffs), load_fn, steps)
    fields = [DGField(mesh, basis, as_coeffs(level, mesh.n, basis.nmodes)) for level in levels]
    return Trajectory(
        problem=problem, mesh=mesh, basis=basis, tau=tau, theta=theta,
        times=times, fields=fields, system=system,
    )


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
