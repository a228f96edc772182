"""Meshes, orthonormal Legendre bases, and Gauss rules."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fkramers import (
    Basis,
    PreconditionError,
    build_mesh,
    gauss_rule,
)
from fkramers.ldg import _reference_blocks
from fkramers.mesh import (
    MAX_QUAD_POINTS,
    _weighted_table,
    cell_points,
    legendre_table,
    modal_project,
)


def exact_legendre(degree, point):
    """Three-term recurrence in exact rational arithmetic, then orthonormalized."""
    x = Fraction(point)
    values = [Fraction(1), x]
    for n in range(2, degree + 1):
        values.append(((2 * n - 1) * x * values[n - 1] - (n - 1) * values[n - 2]) / n)
    return float(values[degree]) * math.sqrt(degree + 0.5)


class TestBuildMesh:
    def test_two_cells(self):
        mesh = build_mesh(2)
        assert mesh.n == 2
        assert mesh.h == 0.5
        assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0])

    def test_temporal_study_mesh(self):
        assert build_mesh(16).h == pytest.approx(1.0 / 16, abs=0.0)

    def test_zero_cells_rejected(self):
        with pytest.raises(PreconditionError, match="mesh resolution must be a positive integer"):
            build_mesh(0)

    def test_partition_of_unity(self):
        for n in (3, 7, 16):
            mesh = build_mesh(n)
            assert abs(mesh.h ** 2 * n * n - 1.0) <= 1e-14
            assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0

    def test_cell_points_cover_cells(self):
        mesh = build_mesh(4)
        rule = gauss_rule(3)
        pts = cell_points(mesh, rule.nodes)
        assert pts.shape == (4, 3)
        assert np.all(pts[1] > mesh.nodes[1]) and np.all(pts[1] < mesh.nodes[2])

    def test_mesh_immutable(self):
        mesh = build_mesh(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.n = 3


class TestLegendreEval:
    def test_constant_mode_is_orthonormal(self):
        for xi in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert legendre_table(0, xi)[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_linear_mode_odd(self):
        assert legendre_table(1, 0.0)[1, 0] == 0.0

    def test_quadratic_against_exact_recurrence(self):
        assert legendre_table(2, 0.5)[2, 0] == pytest.approx(
            exact_legendre(2, Fraction(1, 2)), abs=1e-14
        )

    @pytest.mark.parametrize("degree", [3, 4, 5, 7])
    def test_higher_degrees_against_exact_recurrence(self, degree):
        for point in (Fraction(-9, 10), Fraction(1, 3), Fraction(4, 5)):
            assert legendre_table(degree, float(point))[degree, 0] == pytest.approx(
                exact_legendre(degree, point), abs=1e-13
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_orthonormality_under_quadrature(self, k):
        rule = gauss_rule(k + 1)
        table = legendre_table(k, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(k + 1))) <= 1e-13


class TestGaussRule:
    def test_midpoint(self):
        rule = gauss_rule(1)
        assert np.allclose(rule.nodes, [0.0]) and np.allclose(rule.weights, [2.0])

    def test_two_point_integrates_square(self):
        rule = gauss_rule(2)
        assert float(rule.weights @ rule.nodes ** 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_five_point_integrates_eighth_power(self):
        rule = gauss_rule(5)
        assert float(rule.weights @ rule.nodes ** 8) == pytest.approx(2.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("q", [0, -1, MAX_QUAD_POINTS + 1])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(PreconditionError):
            gauss_rule(q)

    @pytest.mark.parametrize("q", [1, 2, 5, 8, 32])
    def test_weights_positive_and_sum_to_two(self, q):
        rule = gauss_rule(q)
        assert np.all(rule.weights > 0.0)
        assert float(rule.weights.sum()) == pytest.approx(2.0, abs=1e-13)

    def test_rule_is_shared(self):
        assert gauss_rule(4) is gauss_rule(4)
        assert gauss_rule(np.int64(4)) is gauss_rule(4)

    def test_arrays_read_only(self):
        rule = gauss_rule(3)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights *= 2.0
        assert np.array_equal(rule.weights, np.polynomial.legendre.leggauss(3)[1])

    @pytest.mark.parametrize("q", range(1, MAX_QUAD_POINTS + 1))
    def test_bitwise_equal_to_leggauss(self, q):
        nodes, weights = np.polynomial.legendre.leggauss(q)
        rule = gauss_rule(q)
        assert rule.q == q
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("q", [2, 3, 5, 8])
    def test_exact_for_random_polynomials(self, q):
        rng = np.random.default_rng(2024 + q)
        rule = gauss_rule(q)
        for _ in range(20):
            coeffs = rng.standard_normal(2 * q)  # degree 2q - 1
            powers = np.arange(2 * q)
            analytic = float(coeffs @ np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0))
            numeric = float(rule.weights @ np.polyval(coeffs[::-1], rule.nodes))
            assert numeric == pytest.approx(analytic, abs=1e-12 * max(1.0, abs(analytic)))


class TestBasis:
    def test_mode_count(self):
        assert Basis(1).nmodes == 2
        assert Basis(3).nmodes == 4

    def test_degree_zero_rejected(self):
        with pytest.raises(PreconditionError):
            Basis(0)

    def test_endpoint_tables(self):
        # the closed-form mode values at the cell ends are the table's at -1 and 1
        _, _, el, er = _reference_blocks(Basis(2))
        assert np.array_equal(el, legendre_table(2, [-1.0])[:, 0])
        assert np.array_equal(er, legendre_table(2, [1.0])[:, 0])

    def test_basis_immutable(self):
        basis = Basis(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.degree = 3


class TestModalProject:
    def test_projection_l2_norm_matches_coefficients(self):
        # orthonormal basis: the L2 norm of the projected field equals the
        # Euclidean norm of its coefficients
        mesh = build_mesh(4)
        basis = Basis(2)
        coeffs = modal_project(lambda x, v: np.sin(np.pi * x) * np.sin(np.pi * v), mesh, basis)
        # || sin sin ||_{L2} = 1/2 and the degree-2 projection captures it closely
        assert float(np.linalg.norm(coeffs)) == pytest.approx(0.5, abs=2e-4)

    def test_reproduces_polynomial(self):
        mesh = build_mesh(3)
        basis = Basis(2)
        fn = lambda x, v: (1.0 + 2.0 * x - v) * (x - 0.25 * v)
        coeffs = modal_project(fn, mesh, basis)
        rule = gauss_rule(3)
        from fkramers.mesh import modal_evaluate

        vals = modal_evaluate(coeffs, mesh, basis, rule.nodes)
        pts = cell_points(mesh, rule.nodes)
        exact = fn(pts[:, :, None, None], pts[None, None, :, :])
        assert np.max(np.abs(vals - exact)) <= 1e-12

    @pytest.mark.parametrize("dq", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_matches_einsum_contraction(self, n, k, dq):
        # the two matmuls against the three-operand einsum they replaced, on
        # a rule of k + dq points: the projection's own rule of k + 2 points
        # agrees to rounding, and the quadrature error of the others shows
        mesh = build_mesh(n)
        basis = Basis(k)
        q = k + dq
        fn = lambda x, v: np.exp(x - 2.0 * v) * np.cos(3.0 * x * v) + (x > 0.5)
        got = modal_project(fn, mesh, basis)

        rule = gauss_rule(q)
        pts = cell_points(mesh, rule.nodes).ravel()
        grid = fn(pts[:, None], pts[None, :]).reshape(n, q, n, q)
        tab = legendre_table(k, rule.nodes) * rule.weights
        ref = 0.5 * mesh.h * np.einsum("ipjq,ap,bq->ijab", grid, tab, tab)
        assert got.shape == ref.shape
        if dq == 2:
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        else:
            assert np.max(np.abs(got - ref)) > 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dq", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cached_table_matches_uncached_product(self, k, dq):
        # the shared weighted table against the table built afresh from the
        # basis and the rule, and, on the projection's rule of k + 2 points,
        # a projection through it against one through the fresh table
        mesh = build_mesh(4)
        basis = Basis(k)
        q = k + dq
        rule = gauss_rule(q)
        fresh = legendre_table(k, rule.nodes) * rule.weights
        table = _weighted_table(k, q)
        assert table is _weighted_table(k, q)
        assert table.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        if dq != 2:
            return

        fn = lambda x, v: np.exp(x - 2.0 * v) * np.cos(3.0 * x * v)
        pts = cell_points(mesh, rule.nodes).ravel()
        vals = fn(pts[:, None], pts[None, :])
        half = np.matmul(fresh, vals.reshape(mesh.n, q, mesh.n * q))
        ref = half.reshape(-1, q) @ fresh.T
        ref *= 0.5 * mesh.h
        ref = ref.reshape(mesh.n, k + 1, mesh.n, k + 1).transpose(0, 2, 1, 3)
        assert modal_project(fn, mesh, basis).tobytes() == ref.tobytes()
