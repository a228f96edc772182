"""One-sided 1D projections and the face identities of their tensor product.

The oracle here solves the defining moment/endpoint conditions in the
monomial basis with exact monomial integrals, independently of the modal
Legendre machinery under test.  The closed form is also pinned to the
solve-based projection it replaced, `oracles.solve_projection`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from fkramers import PreconditionError, build_mesh, lemma_identity_residuals
from fkramers.mesh import MAX_DEGREE
from fkramers.projections import Projection1D, _tensor_apply
from oracles import solve_projection, solve_tensor_projection

#: Degrees on which the closed form is pinned to the solve-based oracle.
PINNED_DEGREES = (1, 2, 3, 5, 8)


def monomial_moment(lo, hi, m):
    """Exact integral of x**m over [lo, hi]."""
    return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)


def oracle_projection(kind, u_coef, interval, k):
    """Solve the moment/endpoint system for the projection in monomial form.

    u_coef are 1D power-basis coefficients of the function being projected;
    returns the power-basis coefficients of its degree-k projection.
    """
    lo, hi = interval
    a = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    for r in range(k):
        for c in range(k + 1):
            a[r, c] = monomial_moment(lo, hi, r + c)
        integrated = npoly.polyint(npoly.polymul(u_coef, np.eye(1, r + 1, r)[0]))
        b[r] = npoly.polyval(hi, integrated) - npoly.polyval(lo, integrated)
    point = lo if kind == "plus" else hi
    a[k] = point ** np.arange(k + 1)
    b[k] = npoly.polyval(point, u_coef)
    return np.linalg.solve(a, b)


class TestProjection1D:
    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_polynomials(self, kind, k):
        rng = np.random.default_rng(10 * k + len(kind))
        u_coef = rng.standard_normal(k + 1)
        proj = Projection1D(kind, k, (0.25, 0.75))
        coeffs = proj.apply(lambda x: npoly.polyval(x, u_coef))
        sample = np.linspace(0.25, 0.75, 9)
        assert np.max(np.abs(proj.evaluate(coeffs, sample) - npoly.polyval(sample, u_coef))) <= 1e-12

    @settings(deadline=None)
    @given(
        st.sampled_from(["plus", "minus"]),
        st.integers(1, 4),
        st.floats(-2.0, 2.0),
        st.floats(0.01, 4.0),
        st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
    )
    def test_apply_properties(self, kind, k, lo, width, raw):
        # polynomials are written in the local variable s = (x - lo) / width
        hi = lo + width
        proj = Projection1D(kind, k, (lo, hi))

        def poly(coef):
            return lambda x: npoly.polyval((np.asarray(x) - lo) / width, coef)

        # any degree-k polynomial is reproduced
        exact = poly(raw[:k + 1])
        sample = np.linspace(lo, hi, 9)
        got = proj.evaluate(proj.apply(exact), sample)
        assert np.max(np.abs(got - exact(sample))) <= 1e-12

        # for degree k + 2, the endpoint value is kept ...
        u = poly(raw[:k + 3])
        coeffs = proj.apply(u)
        point = lo if kind == "plus" else hi
        assert abs(proj.evaluate(coeffs, np.array([point]))[0] - u(point)) <= 1e-12
        # ... and the residual is orthogonal to degree k - 1
        nodes, weights = np.polynomial.legendre.leggauss(k + 6)
        x = lo + 0.5 * width * (nodes + 1.0)
        resid = 0.5 * width * weights * (u(x) - proj.evaluate(coeffs, x))
        moments = [resid @ ((x - lo) / width) ** j for j in range(k)]
        assert np.max(np.abs(moments)) <= 1e-12 * max(1.0, width)

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_monomial_oracle(self, kind, k):
        # project x**(k+1), the lowest degree where the kinds differ
        u_coef = np.eye(1, k + 2, k + 1)[0]
        interval = (0.25, 0.75)
        coeffs = Projection1D(kind, k, interval).apply(lambda x: x ** (k + 1))
        expected = oracle_projection(kind, u_coef, interval, k)
        proj = Projection1D(kind, k, interval)
        sample = np.linspace(*interval, 11)
        got = proj.evaluate(coeffs, sample)
        assert np.max(np.abs(got - npoly.polyval(sample, expected))) <= 1e-11

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize("k", PINNED_DEGREES)
    def test_matches_solve_oracle(self, kind, k):
        # random degree-(k + 1) polynomials on random intervals; the closed
        # form agreed with the solve to 1.1e-13 relative at worst
        rng = np.random.default_rng(1000 * k + len(kind))
        for _ in range(200):
            lo, width = rng.uniform(-2.0, 2.0), rng.uniform(0.01, 4.0)
            coef = rng.standard_normal(k + 2)

            def u(x):
                return npoly.polyval((np.asarray(x) - lo) / width, coef)

            got = Projection1D(kind, k, (lo, lo + width)).apply(u)
            expected = solve_projection(kind, k, (lo, lo + width), u)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_max_degree_runs(self):
        proj = Projection1D("plus", MAX_DEGREE, (0.3, 0.9))
        coeffs = proj.apply(np.sin)
        assert proj.evaluate(coeffs, np.array([0.3]))[0] == pytest.approx(np.sin(0.3), abs=1e-13)
        sample = np.linspace(0.3, 0.9, 7)
        assert np.max(np.abs(proj.evaluate(coeffs, sample) - np.sin(sample))) <= 1e-13

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_degree_above_max_rejected(self, kind):
        with pytest.raises(PreconditionError, match="MAX_DEGREE"):
            Projection1D(kind, MAX_DEGREE + 1, (0.0, 1.0))

    def test_plus_exact_at_left_endpoint(self):
        proj = Projection1D("plus", 2, (0.3, 0.9))
        coeffs = proj.apply(np.sin)
        assert proj.evaluate(coeffs, np.array([0.3]))[0] == pytest.approx(np.sin(0.3), abs=1e-13)

    def test_minus_exact_at_right_endpoint(self):
        proj = Projection1D("minus", 2, (0.3, 0.9))
        coeffs = proj.apply(np.sin)
        assert proj.evaluate(coeffs, np.array([0.9]))[0] == pytest.approx(np.sin(0.9), abs=1e-13)

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_one_sided_needs_degree_one(self, kind):
        with pytest.raises(PreconditionError):
            Projection1D(kind, 0, (0.0, 1.0))

    def test_unknown_kind_rejected(self):
        # the L2 projection is modal_project's, not a kind here
        for kind in ("up", "plain"):
            with pytest.raises(PreconditionError, match="unknown projection kind"):
                Projection1D(kind, 1, (0.0, 1.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(PreconditionError):
            Projection1D("plus", 1, (0.5, 0.5))

    @pytest.mark.parametrize("interval", [
        (0.0, np.inf), (-np.inf, 0.0), (0.0, 1e-320), (-1e308, 1e308),
    ])
    def test_unusable_interval_rejected(self, interval):
        # each would give NaN coefficients: 2 / width or width itself is not finite
        with pytest.raises(PreconditionError, match="finite endpoints"):
            Projection1D("plus", 2, interval)


class TestLemmaIdentities:
    CELL = ((0.25, 0.5), (0.5, 0.75))

    @staticmethod
    def random_total_degree(rng, degree):
        coef = rng.standard_normal((degree + 1, degree + 1))
        i, j = np.indices(coef.shape)
        coef[i + j > degree] = 0.0
        return coef

    @pytest.mark.parametrize("k", [1, 2])
    def test_vanish_for_low_degree_data(self, k):
        rng = np.random.default_rng(k)
        u = self.random_total_degree(rng, k)  # already in the projected space
        nux = self.random_total_degree(rng, k)
        nuv = self.random_total_degree(rng, k)
        res1, res2 = lemma_identity_residuals(u, nux, nuv, self.CELL, k)
        assert abs(res1) <= 1e-13 and abs(res2) <= 1e-13

    def test_vanish_for_zero_test_function(self):
        rng = np.random.default_rng(42)
        u = self.random_total_degree(rng, 3)
        zero = np.zeros((3, 3))
        res1, res2 = lemma_identity_residuals(u, zero, zero, self.CELL, 2)
        assert res1 == 0.0 and res2 == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_full_degree_instances(self, k):
        # the identities hold exactly for u of total degree k+1, the content
        # of the superconvergence argument for the one-sided fluxes
        rng = np.random.default_rng(100 + k)
        mesh = build_mesh(4)
        for trial in range(10):
            i = int(rng.integers(0, 4))
            j = int(rng.integers(0, 4))
            cell = (
                (mesh.nodes[i], mesh.nodes[i + 1]),
                (mesh.nodes[j], mesh.nodes[j + 1]),
            )
            u = self.random_total_degree(rng, k + 1)
            nux = self.random_total_degree(rng, k)
            nuv = self.random_total_degree(rng, k)
            res1, res2 = lemma_identity_residuals(u, nux, nuv, cell, k)
            assert abs(res1) <= 1e-11
            assert abs(res2) <= 1e-11

    @pytest.mark.parametrize("k", PINNED_DEGREES)
    def test_tensor_projection_matches_solve_oracle(self, k):
        # the cell projection the identities use, against the tensor rows and
        # two solves it replaced, for u of total degree k + 1
        rng = np.random.default_rng(200 + k)
        u = self.random_total_degree(rng, k + 1)

        def u_at(x, v):
            return npoly.polyval2d(*np.broadcast_arrays(x, v), u)

        x_int, v_int = self.CELL
        got = _tensor_apply(Projection1D("minus", k, x_int), Projection1D("plus", k, v_int), u_at)
        expected = solve_tensor_projection(self.CELL, k, u_at)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_max_degree_runs(self):
        rng = np.random.default_rng(30)
        u = self.random_total_degree(rng, MAX_DEGREE + 1)
        nux = self.random_total_degree(rng, MAX_DEGREE)
        nuv = self.random_total_degree(rng, MAX_DEGREE)
        res1, res2 = lemma_identity_residuals(u, nux, nuv, self.CELL, MAX_DEGREE)
        assert abs(res1) <= 1e-11 and abs(res2) <= 1e-11
        with pytest.raises(PreconditionError, match="MAX_DEGREE"):
            lemma_identity_residuals(u, nux, nuv, self.CELL, MAX_DEGREE + 1)

    def test_degree_violations_rejected(self):
        u_too_big = np.zeros((4, 4))
        u_too_big[3, 3] = 1.0  # total degree 6 > k + 1
        ok = np.zeros((2, 2))
        with pytest.raises(PreconditionError):
            lemma_identity_residuals(u_too_big, ok, ok, self.CELL, 2)
        u_ok = np.zeros((3, 3))
        u_ok[1, 1] = 1.0
        nu_too_big = np.zeros((3, 3))
        nu_too_big[2, 2] = 1.0
        with pytest.raises(PreconditionError):
            lemma_identity_residuals(u_ok, nu_too_big, ok, self.CELL, 2)

    @pytest.mark.parametrize("cell", [((0.0, np.inf), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1e-320))])
    def test_unusable_cell_rejected(self, cell):
        u = np.zeros((3, 3))
        u[1, 1] = 1.0
        ok = np.zeros((2, 2))
        with pytest.raises(PreconditionError, match="finite endpoints"):
            lemma_identity_residuals(u, ok, ok, cell, 2)
