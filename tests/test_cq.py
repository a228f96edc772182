"""Convolution-quadrature weights, their sum-of-exponentials rule, and history recombination."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkramers import OrderOutOfRange, PreconditionError, cq_weights
from fkramers.cq import soe_rule
from fkramers.ldg import HISTORY_WINDOW
from oracles import history_combination


def binomial_series_coefficients(exponent, count):
    """Taylor coefficients of (1 - z)**exponent, computed independently."""
    c = np.empty(count + 1)
    c[0] = 1.0
    for n in range(1, count + 1):
        c[n] = c[n - 1] * (n - 1 - exponent) / n
    return c


class TestWeights:
    def test_classical_backward_euler_limit(self):
        w = cq_weights(1.0, 1.0, 3)
        assert np.allclose(w.d, [1.0, -1.0, 0.0, 0.0], atol=1e-15)

    def test_half_order_unit_step(self):
        w = cq_weights(0.5, 1.0, 3)
        assert np.allclose(w.d, [1.0, -0.5, -0.125, -0.0625], atol=1e-15)

    def test_leading_weight_scales_with_step(self):
        w = cq_weights(0.5, 0.1, 0)
        assert w.d[0] == pytest.approx(10.0 ** 0.5, rel=1e-14)
        assert w.steps == 0 and w.d.shape == (1,)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, 2.0])
    def test_order_outside_range_rejected(self, alpha):
        with pytest.raises(OrderOutOfRange):
            cq_weights(alpha, 0.1, 10)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_step_rejected(self, tau):
        with pytest.raises(PreconditionError):
            cq_weights(0.5, tau, 10)

    @pytest.mark.parametrize("steps", [-1, 1.5])
    def test_bad_step_count_rejected(self, steps):
        with pytest.raises(PreconditionError):
            cq_weights(0.5, 0.1, steps)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sign_pattern(self, alpha):
        w = cq_weights(alpha, 0.01, 2000)
        assert w.d[0] > 0.0
        assert np.all(w.d[1:] < 0.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_partial_sums_positive_and_decreasing(self, alpha):
        w = cq_weights(alpha, 0.05, 500)
        s = w.partial_sums
        assert np.all(s > 0.0)
        assert np.all(np.diff(s) < 0.0)
        assert w.partial_sums[0] == pytest.approx(w.d[0], abs=0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_partial_sums_match_binomial_series(self, alpha):
        # summing the weight generating function against 1/(1 - z) shows
        # tau**alpha S_n equals the n-th coefficient of (1 - z)**(alpha - 1)
        tau = 0.1
        w = cq_weights(alpha, tau, 200)
        expected = binomial_series_coefficients(alpha - 1.0, 200)
        assert np.allclose(tau ** alpha * w.partial_sums, expected, rtol=1e-13, atol=0.0)


class TestWeightProperties:
    # below alpha = 0.05 the first decrement d_1 = -alpha d_0 eventually
    # vanishes against d_0 in floating point, and the strict decrease with it
    @settings(deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(1e-3, 1.0), st.integers(0, 200))
    def test_weights_expand_generating_function(self, alpha, tau, steps):
        w = cq_weights(alpha, tau, steps)
        assert w.d[0] == tau ** -alpha
        if alpha < 1.0:
            assert np.all(w.d[1:] < 0.0)
            assert np.all(w.partial_sums > 0.0)
            assert np.all(np.diff(w.partial_sums) < 0.0)
        if steps >= 60:
            # the truncated series at z = 1/2 misses terms below 2**-60
            z = 0.5
            series = float(np.sum(w.d * z ** np.arange(steps + 1)))
            assert series == pytest.approx(((1.0 - z) / tau) ** alpha, rel=1e-12)


class TestHistoryCombination:
    def test_first_step_uses_only_initial_state(self):
        w = cq_weights(0.5, 0.1, 5)
        g0 = np.array([2.0, -3.0])
        r = history_combination(w, np.empty((0, 2)), g0, 1)
        assert np.allclose(r, w.d[0] * g0, atol=0.0)

    def test_classical_limit_recovers_backward_difference(self):
        w = cq_weights(1.0, 0.25, 6)
        g0 = np.array([1.0])
        past = np.array([[2.0], [5.0], [-1.0]])
        r = history_combination(w, past, g0, 4)
        # with d = (1/tau, -1/tau, 0, ...) the history reduces to g^{n-1}/tau
        assert np.allclose(r, past[-1] / 0.25, atol=1e-13)

    def test_scalar_hand_computation(self):
        w = cq_weights(0.5, 1.0, 4)
        # g^j = j^2 with g0 = 0: r = -(d_1 * 4 + d_2 * 1) + S_2 * 0 = 2.125
        r = history_combination(w, np.array([1.0, 4.0]), np.array(0.0), 3)
        assert float(r) == pytest.approx(2.125, abs=1e-15)

    def test_initial_state_weighting(self):
        w = cq_weights(0.5, 1.0, 4)
        r = history_combination(w, np.zeros((2,)), np.array(1.0), 3)
        assert float(r) == pytest.approx(w.partial_sums[2], abs=1e-15)

    def test_step_index_validated(self):
        w = cq_weights(0.5, 0.1, 3)
        for bad in (0, 4, -2, 1.5):
            with pytest.raises(PreconditionError):
                history_combination(w, np.empty((0,)), np.array(0.0), bad)

    def test_past_shape_validated(self):
        w = cq_weights(0.5, 0.1, 5)
        with pytest.raises(PreconditionError):
            history_combination(w, np.zeros((1, 2)), np.zeros(2), 3)
        with pytest.raises(PreconditionError):
            history_combination(w, np.zeros((2, 3)), np.zeros(2), 3)


class TestConsistency:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_first_order_on_linear_ramp(self, alpha):
        # discrete fractional derivative of g(t) = t at t = 1 approaches
        # t**(1-alpha)/Gamma(2-alpha) at first order in tau
        exact = 1.0 / math.gamma(2.0 - alpha)
        errs = []
        for steps in (32, 64, 128):
            tau = 1.0 / steps
            w = cq_weights(alpha, tau, steps)
            g = tau * np.arange(steps + 1)
            # d_0 g^n - r with zero initial state equals the CQ derivative at t_n
            r = history_combination(w, g[1:steps], np.array(0.0), steps)
            approx = w.d[0] * g[steps] - float(r)
            errs.append(abs(approx - exact))
        rate = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert rate >= 0.9
        assert errs[-1] < errs[0]


class TestSoeRule:
    """The sum-of-exponentials rule against the weights in 40-digit arithmetic.

    d_j / d_0 = Gamma(j - alpha) / (Gamma(-alpha) Gamma(j + 1)).  j - alpha is
    formed in mpmath: formed in float, its rounding, amplified by Gamma,
    would put the reference itself off by up to 7e-12 at j = 10^4.
    """

    @pytest.mark.parametrize("steps", [HISTORY_WINDOW + 2, 2000, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.8, 0.999])
    def test_matches_exact_weights(self, alpha, steps):
        nodes, coeffs = soe_rule(alpha, steps, HISTORY_WINDOW)
        lags = np.random.default_rng(steps).integers(HISTORY_WINDOW + 1, steps + 1, 40)
        lags = np.unique(np.concatenate([[HISTORY_WINDOW + 1, HISTORY_WINDOW + 2, steps], lags]))
        a = mpmath.mpf(alpha)
        worst = 0.0
        with mpmath.workdps(40):
            for j in lags:
                got = float(np.sum(coeffs * np.exp(-float(j) * nodes)))
                ref = mpmath.gamma(mpmath.mpf(int(j)) - a) / (
                    mpmath.gamma(-a) * mpmath.gamma(mpmath.mpf(int(j)) + 1)
                )
                worst = max(worst, float(abs(got / ref - 1)))
        assert worst <= 5e-15

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
    def test_coefficients_negative_and_nodes_positive(self, alpha):
        nodes, coeffs = soe_rule(alpha, 2000, HISTORY_WINDOW)
        assert nodes.shape == coeffs.shape
        assert np.all(nodes > 0.0) and np.all(coeffs < 0.0)
