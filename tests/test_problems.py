"""Benchmark problem data, source terms, and the fractional-form consistency check."""

import math

import numpy as np
import pytest

from fkramers import (
    Basis,
    PROBLEM_IDS,
    PreconditionError,
    ProblemSpec,
    build_mesh,
    get_problem,
    run,
)
from fkramers.problems import load_vector, require_mesh_aligned
from oracles import caputo_derivative, load_at


class TestCaputoOracle:
    """The oracle itself must reproduce closed forms before it judges anything."""

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_power_alpha(self, alpha, t):
        got = caputo_derivative(lambda s: s ** alpha, t, alpha)
        assert got == pytest.approx(math.gamma(alpha + 1.0), abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_quadratic(self, alpha, t):
        got = caputo_derivative(lambda s: s ** 2, t, alpha)
        exact = 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        assert got == pytest.approx(exact, abs=1e-9)


class TestExample1:
    def test_case_a_data(self):
        p = get_problem("ex1a", 0.3)
        assert p.name == "ex1a" and p.f is None and p.exact is None
        assert p.discontinuities == ()
        assert float(p.g0(0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)
        assert float(p.g0(0.0, 0.25)) == 0.0

    def test_case_b_indicator(self):
        p = get_problem("ex1b", 0.2)
        assert p.discontinuities == (0.5,)
        assert float(p.g0(0.75, 0.25)) == 1.0
        assert float(p.g0(0.25, 0.25)) == 0.0
        assert float(p.g0(0.75, 0.75)) == 0.0
        assert float(p.g0(0.5, 0.25)) == 0.0  # jump line itself is outside

    def test_case_c_source(self):
        p = get_problem("ex1c", 0.5)
        assert np.all(np.asarray(p.g0(np.linspace(0, 1, 5), 0.3)) == 0.0)
        assert float(p.f(0.75, 0.25, 0.0)) == 0.0
        assert float(p.f(0.75, 0.25, 1.0)) == 1.0
        assert float(p.f(0.75, 0.25, 0.5)) == pytest.approx(0.5 ** 0.8, rel=1e-15)
        assert float(p.f(0.25, 0.25, 1.0)) == 0.0

    def test_unknown_case_rejected(self):
        with pytest.raises(PreconditionError):
            get_problem("ex1d", 0.5)


class TestExample2:
    def test_initial_data_matches_exact(self):
        p = get_problem("ex2", 0.5)
        x = np.linspace(0.1, 0.9, 5)[:, None]
        v = np.linspace(0.1, 0.9, 5)[None, :]
        assert np.max(np.abs(p.exact(x, v, 0.0) - p.g0(x, v))) <= 1e-15

    def test_solution_vanishes_on_boundary(self):
        p = get_problem("ex2", 0.4)
        grid = np.linspace(0.0, 1.0, 7)
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(p.exact(0.0, grid, t))) <= 1e-15
            assert np.max(np.abs(p.exact(1.0, grid, t))) <= 1e-12
            assert np.max(np.abs(p.exact(grid, 0.0, t))) <= 1e-15
            assert np.max(np.abs(p.exact(grid, 1.0, t))) <= 1e-12

    def test_source_vanishes_at_lower_velocity_boundary(self):
        p = get_problem("ex2", 0.7)
        x = np.linspace(0.0, 1.0, 9)
        assert np.max(np.abs(p.f(x, 0.0, 0.5))) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.35, 0.7])
    def test_source_satisfies_fractional_form(self, alpha):
        # residual of: caputo(G - G0) + v G_x - v G_v - G_vv - G - f = 0,
        # with the time term from the quadrature oracle and space derivatives
        # from five-point central differences
        p = get_problem("ex2", alpha)
        rng = np.random.default_rng(17 + int(10 * alpha))
        d = 1e-3
        for _ in range(5):
            x = float(rng.uniform(0.1, 0.9))
            v = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.1, 0.9))
            caputo = caputo_derivative(lambda s: p.exact(x, v, s), t, alpha)
            gx = (
                p.exact(x - 2 * d, v, t) - 8 * p.exact(x - d, v, t)
                + 8 * p.exact(x + d, v, t) - p.exact(x + 2 * d, v, t)
            ) / (12 * d)
            gv = (
                p.exact(x, v - 2 * d, t) - 8 * p.exact(x, v - d, t)
                + 8 * p.exact(x, v + d, t) - p.exact(x, v + 2 * d, t)
            ) / (12 * d)
            gvv = (
                -p.exact(x, v - 2 * d, t) + 16 * p.exact(x, v - d, t)
                - 30 * p.exact(x, v, t) + 16 * p.exact(x, v + d, t)
                - p.exact(x, v + 2 * d, t)
            ) / (12 * d * d)
            residual = caputo + v * gx - v * gv - gvv - p.exact(x, v, t) - p.f(x, v, t)
            assert abs(residual) <= 1e-8

    def test_source_finite_up_to_any_accepted_final_time(self):
        # the source grows like t**alpha times a factor below 18
        p = get_problem("ex2", 1.0, t_final=1e306)
        grid = np.linspace(0.0, 1.0, 41)
        assert np.isfinite(p.f(grid[:, None], grid[None, :], p.t_final)).all()
        with pytest.raises(PreconditionError):
            get_problem("ex2", 1.0, t_final=1e308)


class TestGetProblem:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_all_ids_resolve(self, pid):
        p = get_problem(pid, 0.5)
        assert p.name == pid and p.alpha == 0.5 and p.t_final == 1.0

    def test_final_time_override(self):
        assert get_problem("ex1a", 0.5, t_final=2.0).t_final == 2.0

    def test_unknown_id_rejected(self):
        with pytest.raises(PreconditionError):
            get_problem("ex3", 0.5)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.2])
    def test_bad_order_rejected(self, alpha):
        with pytest.raises(PreconditionError, match="fractional order must lie in"):
            get_problem("ex1a", alpha)

    def test_order_one_admitted(self):
        assert get_problem("ex2", 1.0).alpha == 1.0


def combined_load(problem, t, mesh, basis):
    """sum_k a_k(t) P_k from the projections `load_vector` makes once per run."""
    factors = load_vector(problem, mesh, basis)
    amplitudes = np.array([a(t) for a, _ in problem.source_terms], dtype=float)
    return np.tensordot(amplitudes, factors, axes=1)


class TestSourceTerms:
    def test_source_free_problems_have_no_terms(self):
        for pid in ("ex1a", "ex1b"):
            p = get_problem(pid, 0.5)
            assert p.source_terms == () and p.f is None

    def test_f_is_the_sum_of_the_terms(self):
        p = get_problem("ex2", 0.4)
        x = np.linspace(0.0, 1.0, 7)[:, None]
        v = np.linspace(0.0, 1.0, 5)[None, :]
        (a1, f1), (a2, f2) = p.source_terms
        assert np.array_equal(p.f(x, v, 0.3), a1(0.3) * f1(x, v) + a2(0.3) * f2(x, v))

    def test_f_is_read_only(self):
        p = get_problem("ex1c", 0.5)
        with pytest.raises(AttributeError):
            p.f = None

    def test_bare_source_keyword_rejected(self):
        with pytest.raises(TypeError):
            ProblemSpec(name="ex1a", alpha=0.5, t_final=1.0, g0=lambda x, v: x,
                        f=lambda x, v, t: x, exact=None)

    @pytest.mark.parametrize("n", [1, 4, 20])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_combined_projections_match_per_step_load(self, pid, k, n):
        # the load from the per-run projections against the old per-step
        # projection of f, at random times
        p = get_problem(pid, 0.6)
        mesh, basis = build_mesh(n), Basis(k)
        rng = np.random.default_rng(100 * n + 10 * k + PROBLEM_IDS.index(pid))
        if p.discontinuities and n == 1:
            with pytest.raises(PreconditionError, match="not a mesh line"):
                run(p, n, k, 0.5)
            with pytest.raises(PreconditionError, match="not a mesh line"):
                load_at(p, 0.5, mesh, basis)
            return
        for t in rng.uniform(0.0, 1.0, 4):
            ref = load_at(p, t, mesh, basis)
            got = combined_load(p, t, mesh, basis)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref), initial=0.0)


class TestLoadVector:
    def test_zero_source_gives_zeros(self):
        p = get_problem("ex1a", 0.5)
        load = load_vector(p, build_mesh(4), Basis(1))
        assert load.shape == (0, 4, 4, 2, 2)
        assert np.all(combined_load(p, 0.5, build_mesh(4), Basis(1)) == 0.0)

    def test_constant_source_modes(self):
        p = ProblemSpec(
            name="ex1a", alpha=0.5, t_final=1.0,
            g0=lambda x, v: 0.0 * x * v, exact=None,
            source_terms=((lambda t: 1.0, lambda x, v: 1.0 + 0.0 * x * v),),
        )
        mesh = build_mesh(4)
        load = combined_load(p, 0.3, mesh, Basis(1))
        assert np.allclose(load[:, :, 0, 0], mesh.h, atol=1e-14)
        other = load.copy()
        other[:, :, 0, 0] = 0.0
        assert np.max(np.abs(other)) <= 1e-14

    def test_block_source_support(self):
        p = get_problem("ex1c", 0.5)
        (load,) = load_vector(p, build_mesh(4), Basis(1))
        norms = np.linalg.norm(load, axis=(2, 3))
        inside = np.zeros((4, 4), dtype=bool)
        inside[2:4, 0:2] = True  # x in (0.5, 1), v in (0, 0.5)
        assert np.all(norms[inside] > 1e-3)
        assert np.max(norms[~inside]) == 0.0

    def test_misaligned_mesh_rejected(self):
        # run checks the alignment once, before it projects any data
        p = get_problem("ex1b", 0.5)
        with pytest.raises(PreconditionError) as err:
            run(p, 3, 1, 0.5)
        assert str(err.value) == "discontinuity line at coordinate 0.5 is not a mesh line for N=3"

    def test_aligned_meshes_accepted(self):
        p = get_problem("ex1c", 0.5)
        for n in (2, 4, 8, 10):
            load_vector(p, build_mesh(n), Basis(1))


class TestAlignment:
    def test_empty_lines_always_pass(self):
        require_mesh_aligned((), build_mesh(3))

    def test_aligned(self):
        require_mesh_aligned((0.5,), build_mesh(2))
        require_mesh_aligned((0.5, 0.25), build_mesh(4))

    def test_misaligned(self):
        with pytest.raises(PreconditionError, match="not a mesh line"):
            require_mesh_aligned((0.25,), build_mesh(2))
