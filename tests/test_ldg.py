"""Spatial operator assembly, the factorized step system, and the marching loop.

The single-cell transport matrices below are derived by hand from the weak
form with the one-sided traces stated in the module docstring, using the
orthonormal basis on [0, 1]: psi_0 = 1, psi_1 = sqrt(3) (2 s - 1).
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fkramers import (
    Basis,
    DGField,
    PreconditionError,
    ProblemSpec,
    SolverFailure,
    assemble_spatial,
    build_mesh,
    cq_weights,
    get_problem,
    modal_evaluate,
    run,
)
from fkramers.cli import TEMPORAL_ALPHAS
from fkramers.cq import soe_rule
from fkramers.ldg import (
    EIGEN_SWEEP_MIN_NV,
    HISTORY_BLOCK,
    HISTORY_WINDOW,
    DenseSweepSystem,
    EigenSweepSystem,
    _dense_system,
    _doubling_powers,
    _eigen_system,
    _one_d_operators,
    _reference_blocks,
    _run_arrays,
    _run_plan,
    _step_factors,
    _trace_scan,
    as_coeffs,
    as_vector,
    assemble_system,
    build_system,
    field_to_csv,
    march,
    project_initial,
)
from fkramers.mesh import gauss_rule, legendre_table, modal_project
from fkramers.problems import load_vector
from oracles import (
    assemble_gradient,
    chunk_width,
    eigen_sweep_tried,
    far_field_runs,
    group_rows,
    history_combination,
    kron_one_d_operators,
    load_at,
    quadrature_reference_blocks,
    run_doubles,
    sparse_one_d_operators,
    splu_sweep,
    trace_loop,
)

SQ3 = math.sqrt(3.0)


def solve_one(system, rhs):
    """One step's solution, from a group of one; `rhs` is left as it is."""
    return system.solve(rhs[None].copy(), (), np.empty((1, rhs.size)))[0]


class TestGradientOperators:
    def test_single_cell_transport_matrix(self):
        # weak derivative in x, trace from the left, zero inflow at x = 0:
        # M[c, a] = -int psi_a psi_c' + psi_a(1) psi_c(1)
        mesh = build_mesh(1)
        d_x, _ = assemble_gradient(mesh, Basis(1))
        hand = np.array([[1.0, SQ3], [-SQ3, 3.0]])
        expected = np.kron(hand, np.eye(2))
        assert np.max(np.abs(d_x.toarray() - expected)) <= 1e-13

    def test_single_cell_vertical_matrix(self):
        # weak derivative in v with zero traces at both v-boundaries:
        # M[c, a] = -int psi_a psi_c', so only the (1, 0) entry survives
        mesh = build_mesh(1)
        _, d_v = assemble_gradient(mesh, Basis(1))
        hand = np.array([[0.0, 0.0], [-2.0 * SQ3, 0.0]])
        expected = np.kron(np.eye(2), hand)
        assert np.max(np.abs(d_v.toarray() - expected)) <= 1e-13

    def test_reproduces_polynomial_gradients(self):
        # g = x v (1 - v) satisfies every trace the fluxes impose (zero at
        # x = 0 and at both v-boundaries, continuous inside), so both
        # discrete gradients must be exact for degree 2 elements
        mesh = build_mesh(3)
        basis = Basis(2)
        d_x, d_v = assemble_gradient(mesh, basis)
        g = modal_project(lambda x, v: x * v * (1.0 - v), mesh, basis)
        gx = modal_project(lambda x, v: v * (1.0 - v) + 0.0 * x, mesh, basis)
        gv = modal_project(lambda x, v: x * (1.0 - 2.0 * v), mesh, basis)
        got_x = as_coeffs(d_x @ as_vector(g), mesh.n, basis.nmodes)
        got_v = as_coeffs(d_v @ as_vector(g), mesh.n, basis.nmodes)
        assert np.max(np.abs(got_x - gx)) <= 1e-12
        assert np.max(np.abs(got_v - gv)) <= 1e-12

    def test_horizontal_transport_is_upwind(self):
        # the x-flux takes the trace from the left, so a field supported in
        # the right column of cells cannot influence the left column
        mesh = build_mesh(2)
        basis = Basis(1)
        d_x, _ = assemble_gradient(mesh, basis)
        coeffs = np.zeros((2, 2, 2, 2))
        coeffs[1] = 1.0  # right column only
        out = as_coeffs(d_x @ as_vector(coeffs), 2, 2)
        assert np.all(out[0] == 0.0)
        assert np.any(out[1] != 0.0)


class TestPenalty:
    @pytest.mark.parametrize("n", [2, 4])
    def test_penalty_quadratic_form_on_constant(self, n):
        # the theta-difference isolates the v = 0 penalty; for g identically 1
        # its quadratic form is (1/h) * int_0^1 1 dx = 1/h
        mesh = build_mesh(n)
        basis = Basis(1)
        pen = assemble_spatial(mesh, basis, 2.0) - assemble_spatial(mesh, basis, 1.0)
        g = as_vector(modal_project(lambda x, v: np.ones_like(x) * np.ones_like(v), mesh, basis))
        assert float(g @ (pen @ g)) == pytest.approx(n, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf])
    def test_nonpositive_theta_rejected(self, theta):
        with pytest.raises(PreconditionError):
            assemble_spatial(build_mesh(2), Basis(1), theta)


def five_kron_spatial(mesh, basis, theta):
    """The spatial operator composed from five ndof-sized Kronecker products."""
    grad_x, grad_v, div_v, vmass, penalty = sparse_one_d_operators(mesh, basis)
    eye_block = sp.identity(mesh.n * basis.nmodes)
    d_x = sp.kron(grad_x, eye_block)
    d_v = sp.kron(eye_block, grad_v)
    t_v = sp.kron(eye_block, div_v)
    w = sp.kron(eye_block, vmass)
    pen = sp.kron(eye_block, penalty)
    eye = sp.identity(d_x.shape[0])
    return (w @ (d_x - d_v) + t_v @ d_v + theta * pen - eye).tocsr()


class TestSpatialAssembly:
    @pytest.mark.parametrize("theta", [1.0, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_matches_five_kron_composition(self, n, k, theta):
        # the two-factor form G (x) V + I (x) B, built from dense 1D operators,
        # is the mixed-product rewrite of w (d_x - d_v) + t_v d_v + theta pen - I
        # composed from the scipy.sparse 1D operators
        mesh = build_mesh(n)
        basis = Basis(k)
        got = assemble_spatial(mesh, basis, theta)
        ref = five_kron_spatial(mesh, basis, theta)
        assert got.nnz == ref.nnz
        scale = abs(ref).max()
        assert abs(got - ref).max() <= 1e-14 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_dense_one_d_operators_match_sparse(self, n, k):
        mesh = build_mesh(n)
        basis = Basis(k)
        for got, ref in zip(_one_d_operators(mesh, basis), sparse_one_d_operators(mesh, basis)):
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, ref.toarray())

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (16, 1), (20, 2), (64, 2), (5, 3)])
    def test_block_diagonals_match_kron_form(self, n, k):
        # grad_v, div_v = grad_v^T, vmass and penalty agree exactly; the first
        # block of grad_x = h penalty - grad_v^T rounds differently from the
        # kron form's where h is not a power of two
        mesh = build_mesh(n)
        basis = Basis(k)
        (grad_x, *got), (ref_x, *ref) = (_one_d_operators(mesh, basis),
                                         kron_one_d_operators(mesh, basis))
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        assert np.max(np.abs(grad_x - ref_x)) <= 1e-15 * np.max(np.abs(ref_x))

    @pytest.mark.parametrize("k", range(1, 31))
    def test_reference_blocks_match_quadrature(self, k):
        # integration by parts holds exactly for every degree the CLI accepts;
        # against Gauss quadrature of numpy's Legendre polynomials the closed
        # forms agree to rounding, relative in the Frobenius norm
        der, _, el, er = blocks = _reference_blocks(Basis(k))
        assert np.array_equal(der + der.T, np.outer(er, er) - np.outer(el, el))
        if k <= 12 or k == 30:
            tol = 1e-14 if k <= 12 else 1e-13
            for got, ref in zip(blocks, quadrature_reference_blocks(k)):
                assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_system_right_values_are_the_table_at_one(self, k):
        # the closed-form mode values at xi = 1 the sweep uses are the
        # Legendre table's there, bit for bit
        basis = Basis(k)
        system = assemble_system(_step_factors(build_mesh(2), basis, 1.0), 1.0, basis)
        assert system.right.tobytes() == legendre_table(k, [1.0])[:, 0].tobytes()


class TestSystem:
    def test_march_matches_dense_convolution_solve(self):
        # independent reference: dense solves with the convolution history
        # summed term by term straight from the definition
        mesh = build_mesh(2)
        basis = Basis(1)
        weights = cq_weights(0.5, 0.1, 3)
        system = build_system(mesh, basis, weights.d[0], 1.0)
        rng = np.random.default_rng(7)
        g0 = rng.standard_normal(16)
        levels = march(system, weights, g0, None)

        dense = system.matrix.toarray()
        d = weights.d
        ref = [g0]
        for n in range(1, 4):
            rhs = weights.partial_sums[n - 1] * g0
            for j in range(1, n):
                rhs = rhs - d[j] * ref[n - j]
            ref.append(np.linalg.solve(dense, rhs))
        for n in range(4):
            assert np.max(np.abs(levels[n] - ref[n])) <= 1e-12

    def test_march_is_linear(self):
        mesh = build_mesh(2)
        basis = Basis(1)
        weights = cq_weights(0.7, 0.2, 4)
        system = build_system(mesh, basis, weights.d[0], 1.0)
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal(16)
        v0 = rng.standard_normal(16)
        lu = march(system, weights, u0, None)
        lv = march(system, weights, v0, None)
        lw = march(system, weights, u0 + v0, None)
        assert np.max(np.abs(lw - (lu + lv))) <= 1e-11

    @pytest.mark.parametrize("steps", [1, 10, 17])
    def test_march_returns_a_level_per_weight(self, steps):
        weights = cq_weights(0.5, 0.1, steps)
        system = build_system(build_mesh(2), Basis(1), weights.d[0], 1.0)
        assert march(system, weights, np.ones(16), None).shape == (weights.steps + 1, 16)

    def test_matrix_unchanged_by_march(self):
        mesh = build_mesh(2)
        basis = Basis(1)
        weights = cq_weights(0.5, 0.1, 5)
        system = build_system(mesh, basis, weights.d[0], 1.0)
        before = system.matrix.toarray().tobytes()
        march(system, weights, np.ones(16), None)
        assert system.matrix.toarray().tobytes() == before

    def test_solver_failure_on_nonfinite_load(self):
        mesh = build_mesh(2)
        basis = Basis(1)
        system = build_system(mesh, basis, 1.0, 1.0)
        rhs = np.ones(16)
        rhs[3] = np.nan
        with pytest.raises(SolverFailure):
            solve_one(system, rhs)

    def test_residual_check_survives_huge_loads(self):
        # ||rhs||**2 overflows above ~1.3e154; the check must still judge a
        # sweep whose error is 1e-8 of the load, and pass the exact one
        system = build_system(build_mesh(2), Basis(1), 1.0, 1.0)
        rhs = 1e160 * np.random.default_rng(3).standard_normal(16)
        assert np.linalg.norm(rhs / 1e160) * 1e160 > 1e155
        with np.errstate(over="raise", invalid="raise"):
            x = solve_one(system, rhs)
            sweep = system._sweep

            def perturbed(r, out):
                sweep(r, out)
                out *= 1.0 + 1e-8

            system._sweep = perturbed
            with pytest.raises(SolverFailure):
                solve_one(system, rhs)
        assert np.all(np.isfinite(x))

    def test_singular_cell_block_is_solver_failure(self):
        # with G = 0 and B = -d0 I the x-cell block A is exactly zero
        basis = Basis(1)
        grad_x, vmass, v_block = _step_factors(build_mesh(2), basis, 1.0)
        factors = (np.zeros_like(grad_x), vmass, -np.eye(v_block.shape[0]))
        with pytest.raises(SolverFailure, match="cannot be inverted"):
            assemble_system(factors, 1.0, basis)

    def test_residual_is_the_assembled_matvec(self):
        # a group of three rows, each against its own product; a zero
        # right-hand side leaves the product itself as the residual
        system = build_system(build_mesh(8), Basis(2), 3.0, 2.5)
        x = np.random.default_rng(9).standard_normal((3, system.matrix.shape[0]))
        ref = (system.matrix @ x.T).T
        got = system._residuals(x, np.zeros_like(x))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestGroupSolve:
    """LDGSystem.solve on a group of g consecutive steps coupled by CQ weights."""

    @staticmethod
    def _group(n, k, g):
        weights = cq_weights(0.5, 0.01, max(g, 1))
        system = build_system(build_mesh(n), Basis(k), weights.d[0], 1.0)
        rhs = np.random.default_rng(n * 100 + k * 10 + g).standard_normal(
            (g, (n * (k + 1)) ** 2))
        return system, weights.d[1:g], rhs

    @staticmethod
    def _loop(system, coupling, rhs):
        """The group by forward substitution, one step per solve, and each row's right-hand side."""
        x = np.empty_like(rhs)
        eff = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            eff[r] = rhs[r] - coupling[r - 1::-1] @ x[:r] if r else rhs[r]
            x[r] = solve_one(system, eff[r])
        return x, eff

    @pytest.mark.parametrize("g", [1, 5, 16])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_matches_loop_of_single_solves(self, n, k, g):
        system, coupling, rhs = self._group(n, k, g)
        ref, _ = self._loop(system, coupling, rhs)
        out = np.empty_like(rhs)
        assert system.solve(rhs.copy(), coupling, out=out) is out
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("p", [1, 7, 15])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_leading_rows_enter_as_lags(self, n, k, p):
        # the first p rows of `out` are solved steps of the same block: the
        # new rows take their lags from them, and they are not written
        system, coupling, rhs = self._group(n, k, 16)
        ref, _ = self._loop(system, coupling, rhs)
        out = np.empty_like(rhs)
        out[:p] = ref[:p]
        leading = out[:p].copy()
        assert system.solve(rhs[p:].copy(), coupling, out=out) is out
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.array_equal(out[:p], leading)

    @pytest.mark.parametrize("g", [1, 5, 16])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_perturbed_row_is_named(self, n, k, g):
        # the middle row's sweep is off by 1e-8, a later one's by 3e-8: the
        # message names the middle row's backward error, computed from the
        # assembled matrix; the rows before it are exact, so its right-hand
        # side is too
        system, coupling, rhs = self._group(n, k, g)
        ref, eff = self._loop(system, coupling, rhs)
        mid = g // 2
        errors = {mid: 1e-8, g - 1: 3e-8} if g - 1 > mid else {mid: 1e-8}
        sweep = system._sweep
        rows = iter(range(g))

        def perturbed(r, out):
            sweep(r, out)
            out *= 1.0 + errors.get(next(rows), 0.0)

        system._sweep = perturbed
        x = ref[mid] * (1.0 + 1e-8)
        ratio = np.linalg.norm(system.matrix @ x - eff[mid]) / (
            system.norm_bound * np.linalg.norm(x) + np.linalg.norm(eff[mid]))
        with pytest.raises(SolverFailure, match="backward error %.3e exceeds" % ratio):
            system.solve(rhs, coupling, np.empty_like(rhs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("g", [1, 5, 16])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_nonfinite_row_fails_without_warning(self, n, k, g, bad):
        # the rows after the bad one are computed from its non-finite solution
        system, coupling, rhs = self._group(n, k, g)
        rhs[g // 2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="residual"):
                system.solve(rhs, coupling, np.empty_like(rhs))


#: every order at which a built-in problem's temporal table is computed
TABLE_ALPHAS = sorted({alpha for alphas in TEMPORAL_ALPHAS.values() for alpha in alphas})

#: Relative error allowed between the eigen sweep and the sparse LU sweep:
#: the largest measured over that test's grid was 3.5e-12 (the dense
#: sweep's 4.6e-13)
EIGEN_SWEEP_RTOL = 5e-11

#: How far the norm bound of a step system may lie above its 2-norm; the
#: largest ratio measured over that test's grid was 1.67
NORM_BOUND_FACTOR = 2.0

#: Bytes the eigen sweep's set-up may allocate at N = 64, k = 2, with the
#: 1D factors; 2.30 MiB measured
EIGEN_SETUP_PEAK = 3 * 2 ** 20


@pytest.fixture(scope="module", ids=lambda case: "%d-%d-%r" % case,
                params=[(k, n, theta) for k in (1, 2, 3) for n in (1, 2, 4, 16, 64)
                        for theta in (1.0, 2.5)])
def splu_references(request):
    """(basis, factors, rhs, [(d0, ref)]) of one (k, N, theta): the sparse LU
    sweep of one right-hand side at each leading weight, from far below to
    far above the spatial operator, shared by both sweeps' pins."""
    k, n, theta = request.param
    basis = Basis(k)
    factors = _step_factors(build_mesh(n), basis, theta)
    rhs = np.random.default_rng(n * 10 + k).standard_normal(factors[0].shape[0] ** 2)
    d0s = [1e-3, 1.0, 3.7, 1e4] + [cq_weights(a, 0.01, 1).d[0] for a in TABLE_ALPHAS]
    right = _reference_blocks(basis)[3]
    return basis, factors, rhs, [(d0, splu_sweep(factors, d0, right, rhs)) for d0 in d0s]


class TestBlockSweep:
    @pytest.mark.parametrize("theta", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_global_lu(self, k, n, theta):
        # the x-upwind sweep against a sparse LU of the whole step matrix, at
        # the leading CQ weight of every tabulated order with the default step
        mesh = build_mesh(n)
        basis = Basis(k)
        spatial = assemble_spatial(mesh, basis, theta)
        rhs = np.random.default_rng(n * 10 + k).standard_normal(spatial.shape[0])
        for alpha in TABLE_ALPHAS:
            d0 = cq_weights(alpha, 0.01, 1).d[0]
            got = solve_one(build_system(mesh, basis, d0, theta), rhs)
            ref = spla.splu((d0 * sp.identity(rhs.size) + spatial).tocsc()).solve(rhs)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_factor_has_no_fill_in_beyond_matrix(self):
        # only one x-cell block is factorized; a global LU of the N = 64,
        # k = 2 step matrix holds about 16 times the matrix's entries
        system = build_system(build_mesh(64), Basis(2), 3.0, 1.0)
        assert system.lu.L.nnz + system.lu.U.nnz <= system.matrix.nnz

    def test_dense_sweep_matches_splu_sweep(self, splu_references):
        # the dense inverse of the x-cell block against its sparse LU, over
        # leading weights from far below to far above the spatial operator
        self._check_sweep(_dense_system, splu_references, 1e-12)

    def test_eigen_sweep_matches_splu_sweep(self, splu_references):
        # the sweep in the eigenbasis of the v-factor, built at every size,
        # against the same sparse LU; its two changes of basis round more
        self._check_sweep(_eigen_system, splu_references, EIGEN_SWEEP_RTOL)

    @staticmethod
    def _check_sweep(make, references, rtol):
        basis, factors, rhs, refs = references
        for d0, ref in refs:
            system = make(factors, d0, basis)
            got = np.empty_like(rhs)
            system._sweep(rhs, got)
            assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref), d0

    @pytest.mark.parametrize("n, k, kind", [
        (1, 1, DenseSweepSystem), (8, 1, DenseSweepSystem), (16, 1, DenseSweepSystem),
        (30, 1, DenseSweepSystem), (20, 2, DenseSweepSystem), (15, 3, DenseSweepSystem),
        (12, 4, DenseSweepSystem), (64, 2, EigenSweepSystem), (32, 2, EigenSweepSystem),
        (96, 1, EigenSweepSystem), (4, 30, EigenSweepSystem),
    ])
    def test_sweep_is_chosen_by_size(self, n, k, kind):
        # every table system (nv <= 60) keeps the dense sweep; from
        # EIGEN_SWEEP_MIN_NV v-unknowns on the eigen sweep is set up
        assert (n * (k + 1) >= EIGEN_SWEEP_MIN_NV) == (kind is EigenSweepSystem)
        assert type(build_system(build_mesh(n), Basis(k), 3.7, 1.0)) is kind

    def test_ill_conditioned_eigenvectors_fall_back_to_dense(self, monkeypatch):
        monkeypatch.setattr("fkramers.ldg.EIGEN_SWEEP_MAX_COND", 1.0)
        assert _eigen_system(_step_factors(build_mesh(32), Basis(2), 1.0), 3.7, Basis(2)) is None
        assert type(build_system(build_mesh(32), Basis(2), 3.7, 1.0)) is DenseSweepSystem

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 2), (4, 1), (8, 2), (5, 3)])
    def test_norm_bound_is_close_above_the_norm(self, n, k, theta):
        # d0 + beta(G) beta(V) + beta(B) bounds ||S||_2 from above, and not by much
        for d0 in (1e-3, 1.0, 3.7, 1e4):
            system = build_system(build_mesh(n), Basis(k), d0, theta)
            norm = np.linalg.norm(system.matrix.toarray(), 2)
            assert norm <= system.norm_bound <= NORM_BOUND_FACTOR * norm, d0

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_scan_matches_trace_loop(self, n):
        # the doubling scan against the cell-by-cell recurrence of the sparse
        # sweep, on the traces and trace map of a real system
        basis = Basis(2)
        system = _dense_system(_step_factors(build_mesh(n), basis, 1.0), 3.7, basis)
        nv, cell = system.lift_t.shape
        right = system.right
        transfer = (right @ system.lift_t.T.reshape(right.size, -1)).reshape(nv, nv)
        y = np.random.default_rng(n).standard_normal((n, cell))
        traces = right @ y.reshape(n, right.size, nv)
        ref = trace_loop(traces.copy(), transfer)
        got = _trace_scan(traces, system.powers)
        assert system.powers.shape == ((n - 1).bit_length(), nv, nv)
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 70), st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_scan_matches_loop_property(self, n, nv, seed, diagonal):
        # any trace map of norm at most 0.9, at every length, powers of two
        # or not; a diagonal one, as the eigen sweep has, given as a vector
        rng = np.random.default_rng(seed)
        transfer = rng.standard_normal((nv, nv))
        if diagonal:
            transfer = np.diag(np.diag(transfer))
        transfer *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(transfer, 2), 1e-300)
        traces = rng.standard_normal((n, nv))
        ref = trace_loop(traces.copy(), transfer)
        if diagonal:
            got = _trace_scan(traces, _doubling_powers(np.diag(transfer), n, np.multiply),
                              np.multiply)
        else:
            got = _trace_scan(traces, _doubling_powers(transfer.T, n))
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_run_path_imports_no_scipy(self, tmp_path):
        # a fresh interpreter: import, one run and one CLI solve, and scipy
        # must still be absent, so no step can make a sparse solve
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            "import fkramers\n"
            "from fkramers import cli, get_problem, run\n"
            "run(get_problem('ex1b', 0.5, 0.5), 4, 1, 0.125)\n"
            "assert cli.main(['solve', '--N', '4', '--tau', '0.25', '--out', sys.argv[1]]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "solve.csv")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_stored_doubles_below_matrix_nnz(self):
        # what the step path keeps at N = 64, k = 2 (factors, inverse, lift,
        # transfer) holds fewer doubles than the assembled step matrix has
        # entries, 876,096
        system = build_system(build_mesh(64), Basis(2), 3.0, 1.0)
        stored = sum(v.size for v in vars(system).values() if isinstance(v, np.ndarray))
        assert stored <= 876_096

    def test_setup_peak_memory(self):
        # at N = 64, k = 2 the dense sweep's set-up holds the x-cell block,
        # LAPACK's copy of it and its inverse (2.65 MB each) and no
        # ndof-sized matrix
        assert self._setup_peak(_dense_system) <= 12 * 2 ** 20

    def test_eigen_setup_peak_memory(self):
        # the eigen sweep's set-up at the same size holds a few (nv, nv)
        # arrays of 0.29 MB each
        assert self._setup_peak(assemble_system) <= EIGEN_SETUP_PEAK

    @staticmethod
    def _setup_peak(make):
        basis = Basis(2)
        build_system(build_mesh(2), basis, 3.0, 1.0)  # warm the caches
        tracemalloc.start()
        try:
            system = make(_step_factors(build_mesh(64), basis, 1.0), 3.0, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(system) is (DenseSweepSystem if make is _dense_system else EigenSweepSystem)
        return peak


def reference_march(system, weights, g0_vec, load_fn, steps):
    """march() with every history sum taken directly by history_combination."""
    levels = np.empty((steps + 1, g0_vec.size))
    levels[0] = g0_vec
    for n in range(1, steps + 1):
        rhs = history_combination(weights, levels[1:n], g0_vec, n)
        extra = load_fn(n)
        if extra is not None:
            rhs = rhs + extra
        levels[n] = solve_one(system, rhs)
    return levels


def assert_levels_close(got, ref, rtol):
    """Every level agrees to rtol relative to the largest reference level so far.

    Rounding in a history sum, and the error of the sum-of-exponentials rule,
    scale with the levels that enter it, so a solution that decays by orders
    of magnitude (alpha = 1 decays exponentially) is matched relative to its
    earlier levels, not its own.
    """
    assert got.shape == ref.shape
    scale = np.maximum.accumulate(np.linalg.norm(ref, axis=1))
    err = np.linalg.norm(got - ref, axis=1)
    assert np.all(err <= rtol * scale), np.max(err / np.where(scale > 0, scale, 1.0))


class TestHistoryEngine:
    # the near field only: block boundaries, plus runs whose last block is
    # clipped
    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 31, 32, 33, 48, 100, 257])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_matches_direct_sum(self, alpha, steps):
        mesh = build_mesh(2)
        basis = Basis(1)
        weights = cq_weights(alpha, 0.01, steps)
        system = build_system(mesh, basis, weights.d[0], 1.0)
        g0 = np.random.default_rng(steps).standard_normal(16)
        got = march(system, weights, g0, None)
        ref = reference_march(system, weights, g0, lambda n: None, steps)
        assert_levels_close(got, ref, 1e-12)

    @pytest.mark.parametrize("problem_id", ["ex1b", "ex1c"])
    def test_long_run_matches_direct_sum(self, problem_id):
        # 2000 steps reach the far field for most lags; ex1c also carries a load
        problem = get_problem(problem_id, 0.5)
        tau = problem.t_final / 2000
        traj = run(problem, 4, 1, tau)
        mesh, basis = traj.mesh, traj.basis
        weights = cq_weights(problem.alpha, tau, 2000)

        if problem.f is None:
            load_fn = lambda n: None
        else:
            def load_fn(n):
                return as_vector(load_at(problem, n * tau, mesh, basis))

        system = build_system(mesh, basis, weights.d[0], 1.0)
        ref = reference_march(system, weights, as_vector(traj.fields[0].coeffs), load_fn, 2000)
        got = np.array([as_vector(fld.coeffs) for fld in traj.fields])
        assert_levels_close(got, ref, 1e-10)

    # the last run without the far field, the first ones with it (first far
    # block at HISTORY_WINDOW + HISTORY_BLOCK + 1), and one with many far blocks
    @pytest.mark.parametrize("steps", [
        HISTORY_WINDOW, HISTORY_WINDOW + 1, HISTORY_WINDOW + 2,
        HISTORY_WINDOW + HISTORY_BLOCK + 1, 3 * HISTORY_WINDOW + 5,
    ])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999, 1.0])
    def test_far_field_matches_direct_sum(self, alpha, steps):
        weights = cq_weights(alpha, 0.01, steps)
        system = build_system(build_mesh(2), Basis(1), weights.d[0], 1.0)
        g0 = np.random.default_rng(steps).standard_normal(16)
        got = march(system, weights, g0, None)
        ref = reference_march(system, weights, g0, lambda n: None, steps)
        assert_levels_close(got, ref, 1e-12)

    def test_far_field_with_load_matches_direct_sum(self):
        # N = 2 solves each block in one group of 16 steps
        self._check_load(2, 3 * HISTORY_WINDOW + 5)

    def test_far_field_with_load_in_split_groups_matches_direct_sum(self):
        # N = 12, k = 1 solves each block in groups of 14 and 2 steps; the
        # far field is active from step W + B + 1
        self._check_load(12, HISTORY_WINDOW + HISTORY_BLOCK + 17)

    def test_load_in_one_row_groups_matches_direct_sum(self):
        # N = 48, k = 1 solves every group as one row, so all but the first
        # step of a block take their in-block lags from the solve alone
        self._check_load(48, 40)

    @staticmethod
    def _check_load(n, steps):
        weights = cq_weights(0.5, 0.01, steps)
        system = build_system(build_mesh(n), Basis(1), weights.d[0], 1.0)
        rng = np.random.default_rng(7)
        ndof = (2 * n) ** 2
        g0 = rng.standard_normal(ndof)
        amplitudes = rng.standard_normal((steps + 1, 3))
        factors = rng.standard_normal((3, ndof))
        got = march(system, weights, g0, (amplitudes, factors))
        # the reference forms each step's load on its own
        ref = reference_march(system, weights, g0, lambda m: amplitudes[m] @ factors, steps)
        assert_levels_close(got, ref, 1e-12)

    def test_peak_memory_close_to_levels(self):
        # the unsolved rows of the returned array are the accumulator, and the
        # far field runs over column chunks, so no second full-size buffer
        # appears
        steps = 2000
        weights = cq_weights(0.5, 1.0 / steps, steps)
        system = build_system(build_mesh(16), Basis(1), weights.d[0], 1.0)
        g0 = np.random.default_rng(1).standard_normal(16 * 16 * 4)
        tracemalloc.start()
        try:
            levels = march(system, weights, g0, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * levels.nbytes

    @staticmethod
    def _march_peak(n, k, steps, terms=0):
        weights = cq_weights(0.5, 1.0 / steps, steps)
        system = build_system(build_mesh(n), Basis(k), weights.d[0], 1.0)
        rng = np.random.default_rng(1)
        g0 = rng.standard_normal((n * (k + 1)) ** 2)
        source = None
        if terms:
            source = (rng.standard_normal((steps + 1, terms)), rng.standard_normal((terms, g0.size)))
        tracemalloc.start()
        try:
            levels = march(system, weights, g0, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return levels, peak

    def test_near_field_allocates_no_block_of_levels(self):
        # a fine mesh over a few blocks, with a two-term source: the near
        # field writes into the returned array, so past it only a step's
        # vectors are allocated, the loads of a group included
        levels, peak = self._march_peak(64, 2, 50, terms=2)
        assert peak <= levels.nbytes + 2 ** 20

    def test_far_field_peak_memory(self):
        # past the returned array: the accumulators, one level per node, and
        # chunk temporaries of at most BUFFER_BYTES
        steps = 2000
        levels, peak = self._march_peak(16, 1, steps)
        nodes = soe_rule(0.5, steps, HISTORY_WINDOW)[0].size
        ndof = levels.shape[1]
        assert peak <= levels.nbytes + (nodes + HISTORY_BLOCK) * ndof * 8 + 2 ** 18


class TestRunArrays:
    """The arrays of a run as `_run_arrays` names them, against the one-formula
    estimate they replaced, the arrays a run leaves reachable and its peak."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 100000, 10 ** 12])
    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_sum_is_the_former_estimate(self, n, k):
        far = HISTORY_WINDOW + HISTORY_BLOCK
        for steps in [0, 1, 15, 100, far, far + 1, 2000, 10 ** 6, 10 ** 8, 10 ** 300,
                      int(np.finfo(float).max)]:
            for terms in (0, 1, 2):
                got = sum(_run_arrays(n, Basis(k), steps, terms).values())
                assert got == run_doubles(n, Basis(k), steps, terms), (steps, terms)

    @pytest.mark.parametrize("name, steps", [
        ("ex1a", 100), ("ex1c", 100), ("ex1b", 400), ("ex1c", 400), ("ex2", 400),
    ])
    def test_entries_match_the_arrays_of_a_run(self, name, steps):
        # inside the window and past it, each with and without a source
        problem = get_problem(name, 0.5)
        traj = run(problem, 4, 1, 1.0 / steps)
        system = build_system(traj.mesh, traj.basis, cq_weights(0.5, 1.0 / steps, steps).d[0], 1.0)
        ndof = traj.levels.shape[1]
        arrays = _run_arrays(4, traj.basis, steps, len(problem.source_terms))
        assert arrays["levels"] == traj.levels.size
        assert arrays["weights"] == 2 * (steps + 1)
        assert arrays["operators"] == (sum(a.size for a in _one_d_operators(traj.mesh, traj.basis))
                                       + system.v_block.size)
        assert arrays["cell block"] == 2 * system.inverse_t.size
        assert arrays["lift"] == system.lift_t.size
        assert arrays["powers"] == system.powers.size
        assert arrays["source factors"] == load_vector(problem, traj.mesh, traj.basis).size
        nodes = 0
        if steps > HISTORY_WINDOW + HISTORY_BLOCK:
            nodes = soe_rule(problem.alpha, steps, HISTORY_WINDOW)[0].size
        assert arrays.get("accumulators", 0) == nodes * ndof

    @pytest.mark.parametrize("name, steps", [("ex1b", 100), ("ex2", 400)])
    def test_entries_match_the_arrays_of_an_eigen_run(self, name, steps):
        # at N = 48, k = 1, nv = 96: the eigen sweep's arrays, and the dense
        # ones the fallback reserve stands for
        problem = get_problem(name, 0.5)
        basis = Basis(1)
        factors = _step_factors(build_mesh(48), basis, 1.0)
        d0 = cq_weights(0.5, 1.0 / steps, steps).d[0]
        system = assemble_system(factors, d0, basis)
        dense = _dense_system(factors, d0, basis)
        assert type(system) is EigenSweepSystem
        arrays = _run_arrays(48, basis, steps, len(problem.source_terms))
        assert arrays["transforms"] == system.to_eigen.size + system.from_eigen.size
        assert arrays["cell inverses"] == system.cells.size
        assert arrays["lifts"] == system.lifts.size
        assert arrays["powers"] == system.powers.size
        eigen = sum(arrays[name] for name in ("transforms", "cell inverses", "lifts", "powers"))
        assert eigen + arrays["dense fallback"] == (
            2 * dense.inverse_t.size + dense.lift_t.size + dense.powers.size)
        assert arrays["levels"] == (steps + 1) * 96 ** 2

    @pytest.mark.parametrize("fallback", [False, True])
    def test_sum_bounds_the_peak_above_the_crossover(self, fallback, monkeypatch):
        # ex2 at N = 64, k = 2 with 50 steps, on the eigen sweep and on the
        # dense one that set-up falls back to; the eigen sweep saves its
        # 4.7 MB of dense set-up and sweep arrays
        if fallback:
            monkeypatch.setattr("fkramers.ldg.EIGEN_SWEEP_MAX_COND", 1.0)
        problem = get_problem("ex2", 0.5)
        run(problem, 2, 2, 0.5)  # warm the caches
        tracemalloc.start()
        try:
            run(problem, 64, 2, 1.0 / 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = 8 * sum(_run_arrays(64, Basis(2), 50, len(problem.source_terms)).values())
        levels = 51 * 192 ** 2 * 8
        assert peak <= estimate
        assert peak - levels > 6 * 2 ** 20 if fallback else peak - levels < 4 * 2 ** 20

    @pytest.mark.parametrize("name, n, k, steps", [
        ("ex1b", 16, 1, 320), ("ex1b", 16, 1, 2000), ("ex1a", 16, 1, 100), ("ex2", 20, 2, 200),
        ("ex2", 64, 2, 50),
    ])
    def test_sum_is_close_to_the_peak_of_a_run(self, name, n, k, steps):
        problem = get_problem(name, 0.5)
        run(problem, 2, k, 0.5)  # warm the caches
        tracemalloc.start()
        try:
            run(problem, n, k, 1.0 / steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = 8 * sum(_run_arrays(n, Basis(k), steps, len(problem.source_terms)).values())
        assert estimate >= 2 ** 20
        assert 0.9 <= estimate / peak <= 1.5


class TestRunPlan:
    """The plan of a run against the decisions it replaced, each made where
    it was used: the sweep tried at set-up, the far field, its chunk width,
    the rows of a group and the arrays of the memory check."""

    # nv = 94/96 (k = 1) and 90/96/99 (k = 2) about the crossover; the last
    # three sizes give 16, 8 and 2 rows per group, the first five one row
    @pytest.mark.parametrize("n, k, rows", [
        (47, 1, 1), (48, 1, 1), (30, 2, 1), (32, 2, 1), (33, 2, 1), (8, 1, 16), (16, 1, 8),
        (20, 2, 2),
    ])
    def test_plan_matches_the_decisions_it_replaced(self, n, k, rows):
        nv = n * (k + 1)
        for steps in (0, HISTORY_WINDOW + HISTORY_BLOCK, HISTORY_WINDOW + HISTORY_BLOCK + 1, 2000):
            for alpha in (0.05, 0.5, 0.999, 1.0):
                for terms in (0, 2):
                    plan = _run_plan(nv, k + 1, steps, alpha, terms)
                    far = far_field_runs(steps, alpha)
                    assert plan.eigen == eigen_sweep_tried(nv)
                    assert plan.far == far
                    assert plan.width == (chunk_width(alpha, steps) if far else 0)
                    assert plan.rows == group_rows(nv ** 2) == rows
                    assert sum(plan.arrays.values()) == run_doubles(n, Basis(k), steps, terms)
                    assert ("transforms" in plan.arrays) == (steps > 0 and plan.eigen)
        # no case here falls back, so set-up follows the plan
        system = build_system(build_mesh(n), Basis(k), 3.7, 1.0)
        assert type(system) is (EigenSweepSystem if plan.eigen else DenseSweepSystem)


class TestRun:
    def test_zero_final_time_returns_projection_only(self):
        problem = ProblemSpec(
            name="ex1a", alpha=0.5, t_final=0.0,
            g0=lambda x, v: x * np.sin(np.pi * v), exact=None,
        )
        traj = run(problem, 4, 1, 0.1)
        assert len(traj.fields) == 1
        assert traj.levels.shape == (1, 4 * 4 * 2 * 2)
        assert traj.final is traj.fields[0]

    def test_non_integral_horizon_rejected(self):
        problem = get_problem("ex1a", 0.5)
        with pytest.raises(PreconditionError):
            run(problem, 2, 1, 0.3)

    def test_nonpositive_step_rejected(self):
        problem = get_problem("ex1a", 0.5)
        with pytest.raises(PreconditionError):
            run(problem, 2, 1, 0.0)

    @pytest.mark.parametrize("tau, theta, t_final", [
        (math.inf, 1.0, 1.0), (0.5, math.inf, 1.0), (0.5, 1.0, math.inf), (0.5, 1.0, -1.0),
    ])
    def test_nonfinite_input_rejected(self, tau, theta, t_final):
        problem = get_problem("ex1a", 0.5, t_final)
        with pytest.raises(PreconditionError, match="finite"):
            run(problem, 2, 1, tau, theta)

    @pytest.mark.parametrize("final_first", [True, False])
    def test_fields_built_lazily_from_levels(self, final_first):
        traj = run(get_problem("ex1a", 0.5), 2, 1, 0.25)
        assert "fields" not in vars(traj) and "final" not in vars(traj)
        final = traj.final if final_first else traj.fields[-1]
        assert traj.final is traj.fields[-1] is final
        assert len(traj.fields) == traj.levels.shape[0] == 5
        for fld, level in zip(traj.fields, traj.levels):
            assert np.shares_memory(fld.coeffs, level)
            assert np.array_equal(as_vector(fld.coeffs), level)

    def test_trajectory_layout(self):
        traj = run(get_problem("ex1a", 0.5), 2, 1, 0.25)
        assert len(traj.fields) == 5
        assert traj.final.coeffs.shape == (2, 2, 2, 2)
        assert traj.tau == 0.25
        # the fields' mesh and basis, read off the coefficients, are the run's
        for mesh, basis in ((traj.mesh, traj.basis), (traj.final.mesh, traj.final.basis)):
            assert (mesh.n, mesh.h, basis.degree) == (2, build_mesh(2).h, 1)
            assert np.array_equal(mesh.nodes, build_mesh(2).nodes)

    def test_fields_share_one_read_only_mesh(self):
        # build_mesh is memoized, so wrapping the levels builds no mesh
        traj = run(get_problem("ex1b", 0.5), 4, 1, 0.125)
        assert all(fld.mesh is traj.mesh for fld in traj.fields)
        with pytest.raises(ValueError, match="read-only"):
            traj.mesh.nodes[1] = 0.5

    def test_peak_memory_close_to_levels(self):
        # every field views a row of the array march returns, so the levels
        # are stored once
        steps = 2000
        tracemalloc.start()
        try:
            run(get_problem("ex1b", 0.5), 16, 1, 1.0 / steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (steps + 1) * (16 * 16 * 4) * 8

    def test_source_amplitudes_evaluated_once(self):
        calls = []

        def ramp(t):
            calls.append("ramp")
            return 2.0 * t

        def constant(t):
            calls.append("constant")
            return 0.5

        problem = ProblemSpec(
            name="ramp", alpha=0.5, t_final=1.0, g0=lambda x, v: 0.0, exact=None,
            source_terms=((ramp, lambda x, v: x * v), (constant, lambda x, v: 1.0)),
        )
        steps = 20
        traj = run(problem, 2, 1, 1.0 / steps)
        assert sorted(calls) == ["constant", "ramp"]
        # the constant's scalar is broadcast over the steps: the loads match
        # the source projected step by step
        weights = cq_weights(0.5, 1.0 / steps, steps)
        ref = reference_march(
            build_system(traj.mesh, traj.basis, weights.d[0], 1.0), weights, traj.levels[0],
            lambda m: as_vector(load_at(problem, m * (1.0 / steps), traj.mesh, traj.basis)), steps,
        )
        assert_levels_close(traj.levels, ref, 1e-12)

    def test_singular_amplitude_is_not_sampled_at_zero(self):
        # t**-0.5 is infinite at t = 0, which no step uses; under pytest's
        # warnings-as-errors a sample there fails the run
        problem = ProblemSpec(
            name="singular", alpha=0.5, t_final=1.0, g0=lambda x, v: x * v, exact=None,
            source_terms=((lambda t: t ** -0.5,
                           lambda x, v: np.sin(np.pi * x) * np.sin(np.pi * v)),),
        )
        tau, steps = 0.125, 8
        traj = run(problem, 4, 1, tau)
        weights = cq_weights(0.5, tau, steps)
        ref = reference_march(
            build_system(traj.mesh, traj.basis, weights.d[0], 1.0), weights, traj.levels[0],
            lambda m: as_vector(load_at(problem, m * tau, traj.mesh, traj.basis)), steps,
        )
        assert np.max(np.abs(traj.levels - ref)) <= 1e-12

    @staticmethod
    def _problem(g0=lambda x, v: x * v, factor=lambda x, v: x + v, amplitude=lambda t: t):
        # a second, finite term, so a bad first term is named by its index
        return ProblemSpec(
            name="data", alpha=0.5, t_final=1.0, g0=g0, exact=None,
            source_terms=((lambda t: 1.0, lambda x, v: x * v), (amplitude, factor)),
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_initial_data_rejected(self, bad):
        problem = self._problem(g0=lambda x, v: bad * x)
        with pytest.raises(PreconditionError, match="initial data g0 is not finite"):
            run(problem, 2, 1, 0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_source_factor_rejected(self, bad):
        problem = self._problem(factor=lambda x, v: bad * x)
        with pytest.raises(PreconditionError, match="source factor F_2 is not finite"):
            run(problem, 2, 1, 0.25)

    def test_nonfinite_amplitude_rejected(self):
        problem = self._problem(amplitude=lambda t: np.where(t == 0.5, np.inf, 1.0))
        with pytest.raises(PreconditionError, match=r"amplitude a_2 is not finite at t = 0\.5$"):
            run(problem, 2, 1, 0.25)

    def test_misshapen_initial_data_rejected(self):
        problem = self._problem(g0=lambda x, v: np.ones(3))
        with pytest.raises(PreconditionError, match=r"initial data g0 returned shape \(3,\), which"
                                                    r" does not broadcast to \(6, 6\)"):
            run(problem, 2, 1, 0.25)

    def test_misshapen_source_factor_rejected(self):
        problem = self._problem(factor=lambda x, v: np.ones((6, 6, 2)))
        with pytest.raises(PreconditionError, match=r"source factor F_2 returned shape"
                                                    r" \(6, 6, 2\), which does not broadcast"
                                                    r" to \(6, 6\)"):
            run(problem, 2, 1, 0.25)

    def test_misshapen_amplitude_rejected(self):
        problem = self._problem(amplitude=lambda t: np.ones(3))
        with pytest.raises(PreconditionError, match=r"source amplitude a_2 returned shape \(3,\),"
                                                    r" which does not broadcast to \(4,\), the"
                                                    r" shape of the step times"):
            run(problem, 2, 1, 0.25)

    def test_data_of_broadcastable_shape_accepted(self):
        # a row, a column and a scalar broadcast over the points they are sampled at
        problem = self._problem(g0=lambda x, v: x + 0.0 * v[:, :1], factor=lambda x, v: v,
                                amplitude=lambda t: 2.0)
        assert np.isfinite(run(problem, 2, 1, 0.25).levels).all()

    def test_degree_above_limit_rejected(self):
        # Basis checks the degree before any rule or array is built
        with pytest.raises(PreconditionError, match="MAX_DEGREE = 30"):
            run(get_problem("ex1a", 0.5, 0.5), 1, 31, 0.5)
        with pytest.raises(PreconditionError, match="MAX_DEGREE = 30"):
            DGField(np.zeros((1, 1, 32, 32)))

    def test_run_agrees_with_manual_steps(self):
        # drive the direct-sum reference loop with the same loads and compare
        # every level
        problem = get_problem("ex2", 0.6)
        n, k, tau, steps = 2, 1, 0.25, 4
        traj = run(problem, n, k, tau)
        mesh, basis = traj.mesh, traj.basis
        weights = cq_weights(problem.alpha, tau, steps)
        system = build_system(mesh, basis, weights.d[0], 1.0)
        g0 = as_vector(project_initial(problem.g0, mesh, basis).coeffs)
        levels = reference_march(
            system, weights, g0,
            lambda m: as_vector(load_at(problem, m * tau, mesh, basis)), steps,
        )
        for m in range(steps + 1):
            got = as_vector(traj.fields[m].coeffs)
            assert np.max(np.abs(levels[m] - got)) <= 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestFieldHelpers:
    @settings(deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 4))
    def test_vector_round_trip(self, data, n, nmodes):
        vec = data.draw(arrays(np.float64, (n * nmodes) ** 2, elements=finite))
        coeffs = data.draw(arrays(np.float64, (n, n, nmodes, nmodes), elements=finite))
        view = as_coeffs(vec, n, nmodes)
        assert np.shares_memory(view, vec)
        assert np.array_equal(as_vector(view), vec)
        assert np.array_equal(as_coeffs(as_vector(coeffs), n, nmodes), coeffs)

    def test_shape_validation(self):
        for shape in ((2, 2, 3), (2, 3, 2, 2), (2, 2, 2, 3), (2, 2, 1, 1), (0, 0, 2, 2)):
            with pytest.raises(PreconditionError):
                DGField(np.zeros(shape))

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (16, 1), (64, 2), (20, 30)])
    def test_mesh_and_basis_from_shape(self, n, k):
        fld = DGField(np.zeros((n, n, k + 1, k + 1)))
        mesh = build_mesh(n)
        assert (fld.mesh.n, fld.mesh.h, fld.basis) == (mesh.n, mesh.h, Basis(k))
        assert np.array_equal(fld.mesh.nodes, mesh.nodes)
        with pytest.raises(TypeError):
            DGField(mesh, Basis(k), fld.coeffs)

    def test_l2_norm_matches_quadrature(self):
        mesh = build_mesh(2)
        basis = Basis(2)
        rng = np.random.default_rng(5)
        fld = DGField(rng.standard_normal((2, 2, 3, 3)))
        rule = gauss_rule(basis.degree + 3)
        vals = modal_evaluate(fld.coeffs, mesh, basis, rule.nodes)
        w = 0.5 * mesh.h * rule.weights
        quad = math.sqrt(float(np.einsum("ipjq,p,q->", vals ** 2, w, w)))
        assert float(np.linalg.norm(fld.coeffs)) == pytest.approx(quad, rel=1e-13)

    def test_zeros_layout(self):
        fld = DGField(np.zeros((3, 3, 3, 3)))
        assert fld.coeffs.shape == (3, 3, 3, 3)
        assert np.linalg.norm(fld.coeffs) == 0.0

    def test_field_csv_layout(self):
        fld = DGField(np.zeros((2, 2, 2, 2)))
        text = field_to_csv(fld)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,mode_a,mode_b,coefficient"
        assert len(lines) == 1 + 2 * 2 * 2 * 2
        assert lines[1] == "1,1,0,0,0.000E+00"
