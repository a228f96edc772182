"""Error measures, convergence tables, stability probe, and the decay diagnostic."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from fkramers import (
    Basis,
    ConvergenceTable,
    DGField,
    PreconditionError,
    ProblemSpec,
    build_mesh,
    get_problem,
    l2_error,
    modal_project,
    nodal_reconstruction_error,
    nodal_values,
    rates_from_errors,
    regularity_diagnostic,
    run,
    spatial_study,
    stability_probe,
    temporal_study,
)
from fkramers.ldg import as_vector
from fkramers.study import trajectory_growth
from oracles import loop_nodal_values


def projected(fn, n, k):
    return DGField(modal_project(fn, build_mesh(n), Basis(k)))


def zero_field(n, k):
    return DGField(np.zeros((n, n, k + 1, k + 1)))


class TestRates:
    def test_halving_arithmetic(self):
        assert rates_from_errors((10, 20), (4.0, 1.0)) == (pytest.approx(2.0, abs=1e-14),)

    def test_nonuniform_resolutions(self):
        # error ~ 1/N gives rate exactly one on a 4 -> 12 step
        assert rates_from_errors((4, 12), (3.0, 1.0))[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("resolutions, errors", [
        ((10, 10), (4.0, 1.0)),
        ((10, 10, 20), (4.0, 2.0, 1.0)),
        ((10, 20, 10), (4.0, 2.0, 1.0)),
        ((10, 20), (4.0, 0.0)),
        ((10, 20), (0.0, 1.0)),
        ((0, 4), (1.0, 0.5)),
        ((-4, 8), (1.0, 0.5)),
        ((4.0, math.inf), (1.0, 0.5)),
        ((4, math.nan), (1.0, 0.5)),
        ((10, 20), (math.inf, 1.0)),
        ((10, 20), (1.0, math.inf)),
    ])
    def test_degenerate_input_rejected(self, resolutions, errors):
        with pytest.raises(PreconditionError):
            rates_from_errors(resolutions, errors)

    @pytest.mark.parametrize("resolutions, errors", [
        ((4, 8), (1.0,)),
        ((4,), (1.0, 0.5)),
        ((4, 8, 16), (1.0, 0.5)),
    ])
    def test_mismatched_lengths_rejected(self, resolutions, errors):
        message = "got %d resolutions and %d errors" % (len(resolutions), len(errors))
        with pytest.raises(PreconditionError, match=message):
            rates_from_errors(resolutions, errors)

    @pytest.mark.parametrize("errors", [(1e-320, 1e300), (1e300, 1e-320)])
    def test_extreme_error_ratio_gives_finite_rate(self, errors):
        # the ratio of the errors under- or overflows, their logs do not
        expected = mpmath.log(mpmath.mpf(errors[0]) / mpmath.mpf(errors[1])) / mpmath.log(2)
        (rate,) = rates_from_errors((4, 8), errors)
        assert rate == pytest.approx(float(expected), rel=1e-14)

    def test_reproduces_tabulated_rate(self):
        # rounded stored errors reproduce the tabulated rate to table precision
        rate = rates_from_errors((4, 8), (1.032e-01, 2.625e-02))[0]
        assert rate == pytest.approx(1.9755, abs=2e-3)


class TestL2Error:
    def test_identical_fields(self):
        fld = projected(lambda x, v: np.cos(x) * v, 3, 2)
        assert l2_error(fld, fld) == 0.0

    def test_distance_to_callable(self):
        # || sin(pi x) sin(pi v) || = 1/2 over the unit square
        zero = zero_field(8, 2)
        err = l2_error(zero, lambda x, v: np.sin(np.pi * x) * np.sin(np.pi * v))
        assert err == pytest.approx(0.5, abs=1e-10)

    def test_time_argument_passthrough(self):
        zero = zero_field(8, 2)
        fn = lambda x, v, t: t * np.sin(np.pi * x) * np.sin(np.pi * v)
        assert l2_error(zero, fn, t=2.0) == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_fields_rejected(self):
        for other in (zero_field(3, 1), zero_field(2, 2)):
            with pytest.raises(PreconditionError, match="different discretizations"):
                l2_error(zero_field(2, 1), other)

    def test_field_distance_is_exact(self):
        a = projected(lambda x, v: x + v, 2, 1)
        b = DGField(a.coeffs * 2.0)
        assert l2_error(a, b) == pytest.approx(float(np.linalg.norm(a.coeffs)), rel=1e-14)


class TestNodalValues:
    def test_one_sided_constant(self):
        fld = projected(lambda x, v: 1.0 + 0.0 * x * v, 2, 2)
        vals = nodal_values(fld)
        assert vals.shape == (5, 5)
        assert np.max(np.abs(vals - 1.0)) <= 1e-13

    def test_average_clamps_boundary(self):
        fld = projected(lambda x, v: 1.0 + 0.0 * x * v, 2, 1)
        vals = nodal_values(fld)
        assert np.max(np.abs(vals[1:-1, 1:-1] - 1.0)) <= 1e-13
        assert np.all(vals[0, :] == 0.0) and np.all(vals[-1, :] == 0.0)
        assert np.all(vals[:, 0] == 0.0) and np.all(vals[:, -1] == 0.0)

    def test_one_sided_takes_ascending_last_trace(self):
        # per-cell constants: the shared interior node keeps the trace of the
        # cell later in the scan (larger x index here)
        h = 0.5
        coeffs = np.zeros((2, 2, 3, 3))
        coeffs[0, :, 0, 0] = 1.0 * h  # left column: constant 1
        coeffs[1, :, 0, 0] = 3.0 * h  # right column: constant 3
        fld = DGField(coeffs)
        vals = nodal_values(fld)
        assert vals[1, 2] == pytest.approx(1.0, rel=1e-13)
        assert vals[2, 2] == pytest.approx(3.0, rel=1e-13)  # overwritten by right cell

    def test_average_averages_interior_traces(self):
        h = 0.5
        coeffs = np.zeros((2, 2, 2, 2))
        coeffs[0, :, 0, 0] = 1.0 * h
        coeffs[1, :, 0, 0] = 3.0 * h
        fld = DGField(coeffs)
        vals = nodal_values(fld)
        assert vals[1, 1] == pytest.approx(2.0, rel=1e-13)  # mean of 1 and 3


    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 20])
    def test_matches_cell_loop_bytes(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        fld = DGField(rng.standard_normal((n, n, k + 1, k + 1)))
        assert nodal_values(fld).tobytes() == loop_nodal_values(fld).tobytes()


class TestNodalReconstructionError:
    def test_exact_for_continuous_bilinear(self):
        # piecewise-bilinear, continuous, zero on the boundary: the averaged
        # and clamped degree-1 reconstruction reproduces it exactly
        hat = lambda s: 1.0 - np.abs(2.0 * s - 1.0)
        fn = lambda x, v: hat(x) * hat(v)
        fld = projected(fn, 2, 1)
        assert nodal_reconstruction_error(fld, fn) <= 1e-13

    def test_exact_for_degree_two_field(self):
        fn = lambda x, v: x * (1.0 - x) * v * (1.0 - v)
        fld = projected(fn, 3, 2)
        assert nodal_reconstruction_error(fld, fn) <= 1e-13

    def test_time_argument(self):
        fn = lambda x, v, t: t * x * (1.0 - x) * v * (1.0 - v)
        fld = projected(lambda x, v: fn(x, v, 2.0), 3, 2)
        assert nodal_reconstruction_error(fld, fn, t=2.0) <= 1e-13
        assert nodal_reconstruction_error(fld, fn, t=1.0) > 1e-3

    def test_measures_interpolation_distance(self):
        # for the zero field the measure is the norm of the exact function's
        # nodal interpolant, not of the function itself
        fn = lambda x, v: np.sin(np.pi * x) * np.sin(np.pi * v)
        zero = zero_field(4, 1)
        err = nodal_reconstruction_error(zero, fn)
        assert 0.4 <= err <= 0.6  # close to ||fn|| = 1/2 but not equal

    def test_huge_values_do_not_overflow(self):
        # the squares of values near 2**1000 overflow; the error scales exactly
        fn = lambda x, v: np.sin(np.pi * x) * np.sin(np.pi * v)
        big = lambda x, v: 2.0 ** 1000 * fn(x, v)
        zero = zero_field(4, 2)
        err = nodal_reconstruction_error(zero, fn)
        assert nodal_reconstruction_error(zero, big) == 2.0 ** 1000 * err


class TestTemporalStudy:
    def test_smoke_first_order(self):
        table = temporal_study(get_problem("ex1a", 0.5), n=2, k=1, inv_taus=(4, 8, 16))
        assert table.axis == "1/tau"
        assert table.resolutions == (4, 8, 16)
        assert all(e > 0 for e in table.errors)
        assert table.errors[0] > table.errors[1] > table.errors[2]
        for rate in table.rates:
            assert 0.7 <= rate <= 1.5

    def test_bad_resolution_rejected(self):
        with pytest.raises(PreconditionError):
            temporal_study(get_problem("ex1a", 0.5), n=2, k=1, inv_taus=(0, 4))

    @pytest.mark.parametrize("t_final", [0.0, -1.0, float("nan")])
    def test_nonpositive_final_time_rejected_before_any_run(self, t_final, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        problem = get_problem("ex1a", 0.5, t_final=t_final)
        with pytest.raises(PreconditionError,
                           match=re.escape("needs a positive final time, got %r" % (t_final,))):
            temporal_study(problem, n=2, k=1, inv_taus=(4, 8))

    def test_empty_resolutions_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        with pytest.raises(PreconditionError, match=r"resolutions, got \(\)"):
            temporal_study(get_problem("ex1a", 0.5), n=2, k=1, inv_taus=())
        with pytest.raises(PreconditionError, match=r"resolution, got \(\)"):
            spatial_study(get_problem("ex2", 0.5), 1, 0.25, resolutions=())

    @pytest.mark.parametrize("study, kwargs", [
        (temporal_study, {"n": 2, "k": 1, "inv_taus": (2.9, 4.5)}),
        (spatial_study, {"k": 1, "tau": 0.25, "resolutions": (2.7, 4.2)}),
        (spatial_study, {"k": 1, "tau": 0.25, "resolutions": (4, 8, 0)}),
        (temporal_study, {"n": 2, "k": 1, "inv_taus": (2, 2)}),
        (spatial_study, {"k": 1, "tau": 0.25, "resolutions": (2, 4, 2)}),
    ], ids=["temporal", "spatial", "spatial_zero", "temporal_repeated", "spatial_repeated"])
    def test_bad_resolutions_rejected_before_any_run(self, study, kwargs, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        values = kwargs.get("inv_taus", kwargs.get("resolutions"))
        with pytest.raises(PreconditionError, match=re.escape("got %r" % (values,))):
            study(get_problem("ex2", 0.5), **kwargs)

    def test_peak_memory_close_to_levels_of_one_run(self):
        # each final is kept as a copy, so the levels of the 80- and 160-step
        # runs are freed before the 320-step one allocates
        temporal_study(get_problem("ex1a", 0.5), n=2, k=1, inv_taus=(2,))  # warm the caches
        tracemalloc.start()
        try:
            temporal_study(get_problem("ex1a", 0.5), n=16, k=1, inv_taus=(80, 160))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (320 + 1) * (16 * 16 * 4) * 8


class TestSpatialStudy:
    def test_smoke_second_order(self):
        table = spatial_study(get_problem("ex2", 0.5), 1, 0.25, resolutions=(2, 4))
        assert table.axis == "N"
        assert table.errors[0] > table.errors[1]
        assert table.rates[0] == pytest.approx(2.0, abs=0.35)

    def test_needs_exact_solution(self):
        with pytest.raises(PreconditionError):
            spatial_study(get_problem("ex1a", 0.5), 1, 0.1, resolutions=(2, 4))

    def test_peak_memory_close_to_levels_of_one_run(self):
        # the N = 16 run is freed before the N = 20 one allocates
        spatial_study(get_problem("ex2", 0.5), 2, 0.25, resolutions=(2, 4))  # warm the caches
        tracemalloc.start()
        try:
            spatial_study(get_problem("ex2", 0.5), 2, 0.005, resolutions=(16, 20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (200 + 1) * (20 * 20 * 9) * 8


class TestTable:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            ConvergenceTable("N", 0.5, (4, 8), (1.0,))
        with pytest.raises(PreconditionError):
            ConvergenceTable("N", 0.5, (4,), (1.0, 0.5))
        with pytest.raises(PreconditionError):
            ConvergenceTable("N", 0.5, (4, 8), (1.0, float("nan")))
        with pytest.raises(PreconditionError):
            ConvergenceTable("N", 0.5, (4, 8), (1.0, float("inf")))

    def test_rates_computed_from_errors(self):
        table = ConvergenceTable("N", 0.5, (4, 8, 16), (1.0, 0.25, 0.125))
        assert table.rates == rates_from_errors((4, 8, 16), (1.0, 0.25, 0.125)) == (2.0, 1.0)

    def test_csv_layout(self):
        table = ConvergenceTable("N", 0.5, (4, 8), (1.032e-1, 2.625e-2))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "resolution,error,rate"
        assert lines[1] == "4,1.032E-01,"
        assert lines[2] == "8,2.625E-02,1.9751"

    def test_markdown_layout(self):
        table = ConvergenceTable("1/tau", 0.3, (10, 20), (2.726e-4, 1.329e-4))
        text = table.to_markdown()
        assert "| 10 | 20 |" in text
        assert "2.726E-04" in text and "1.0364" in text


class TestStability:
    def test_zero_start_reports_zero(self):
        from fkramers import build_system, cq_weights

        w = cq_weights(0.5, 0.25, 4)
        system = build_system(build_mesh(2), Basis(1), w.d[0], 1.0)
        assert trajectory_growth(system, w, np.zeros(16)) == 0.0

    def test_probe_is_reproducible_and_small(self):
        a = stability_probe(0.5, n=2, k=1, tau=0.25, trials=3, seed=4)
        b = stability_probe(0.5, n=2, k=1, tau=0.25, trials=3, seed=4)
        assert a == b
        assert 0.0 < a <= 5.0

    @pytest.mark.parametrize("kwargs, match", [
        ({"tau": 0.3}, "integral multiple"),
        ({"tau": math.nan}, "time step must be positive and finite"),
        ({"t_final": math.inf}, "final time must be finite"),
        ({"t_final": 0.0}, "at least one step"),
        ({"trials": 0}, "at least one trial"),
        ({"trials": 2.5}, "integer count of at least one trial, got 2.5"),
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
        ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
    ], ids=["non_integral", "nan_step", "inf_horizon", "zero_horizon", "zero_trials",
            "fractional_trials", "negative_seed", "fractional_seed"])
    def test_non_integral_horizon_rejected(self, kwargs, match):
        args = {"n": 2, "k": 1, "tau": 0.25, "trials": 1, **kwargs}
        with pytest.raises(PreconditionError, match=match):
            stability_probe(0.5, **args)


class TestRegularity:
    def test_degenerate_for_steady_zero_solution(self):
        p = ProblemSpec(
            name="ex1a", alpha=0.5, t_final=1.0,
            g0=lambda x, v: 0.0 * x * v, exact=None,
        )
        fit = regularity_diagnostic(p, n=2, k=1, tau=0.125)
        assert fit.degenerate
        assert math.isnan(fit.slope)

    def test_slope_invariant_under_data_scaling(self):
        base = get_problem("ex1b", 0.5)
        scaled = ProblemSpec(
            name="ex1b", alpha=0.5, t_final=1.0,
            g0=lambda x, v: 10.0 * base.g0(x, v), exact=None,
            discontinuities=(0.5,),
        )
        f1 = regularity_diagnostic(base, n=4, k=1, tau=1.0 / 16)
        f2 = regularity_diagnostic(scaled, n=4, k=1, tau=1.0 / 16)
        assert f1.slope == pytest.approx(f2.slope, abs=1e-9)
        assert np.allclose(f2.quotients, 10.0 * f1.quotients, rtol=1e-9)

    def test_too_few_steps_rejected(self):
        with pytest.raises(PreconditionError):
            regularity_diagnostic(get_problem("ex1b", 0.5), n=2, k=1, tau=0.5)

    def test_five_steps_rejected_with_their_count(self):
        # the fit window [2, steps // 2] of 5 steps holds one point
        with pytest.raises(PreconditionError, match="too few steps for a regularity fit: 5"):
            regularity_diagnostic(get_problem("ex1b", 0.5), n=2, k=1, tau=0.2)

    def test_too_few_steps_rejected_before_the_run(self, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        with pytest.raises(PreconditionError, match="too few steps for a regularity fit: 5"):
            regularity_diagnostic(get_problem("ex1b", 0.5), n=2, k=1, tau=0.2)

    def test_quotients_match_field_differences(self):
        # the quotients come from the rows of the levels array; they must be
        # bitwise those of the differences of the trajectory's fields
        problem = get_problem("ex1b", 0.5)
        fit = regularity_diagnostic(problem, n=4, k=1, tau=1.0 / 16)
        traj = run(problem, 4, 1, 1.0 / 16)
        vecs = [as_vector(f.coeffs) for f in traj.fields]
        ref = np.array([np.linalg.norm(b - a, axis=0) for a, b in zip(vecs, vecs[1:])]) / traj.tau
        assert np.array_equal(fit.quotients, ref)

    def test_times_are_the_step_times(self):
        problem = get_problem("ex1b", 0.5)
        fit = regularity_diagnostic(problem, n=4, k=1, tau=1.0 / 16)
        assert fit.times.tobytes() == ((1.0 / 16) * np.arange(17))[1:].tobytes()

    def test_peak_memory_close_to_levels(self):
        # the differences are taken pair by pair, so no stacked copy of the
        # levels appears next to the array the run returns
        steps = 2000
        tracemalloc.start()
        try:
            regularity_diagnostic(get_problem("ex1b", 0.5), n=16, k=1, tau=1.0 / steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (steps + 1) * (16 * 16 * 4) * 8
