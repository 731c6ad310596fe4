"""Initial estimation and linear least squares."""

import numpy as np
import pytest

from hangerfit import (
    FrequencyTrace,
    LinearParams,
    NoResonanceError,
    NonConvergenceError,
    ParameterError,
    SingularJacobianError,
    eval_linear_s21,
    estimate_initial,
    fit_linear,
    fit_nonlinear,
    loaded_linewidth,
    synthesize_linear,
)
from hangerfit import linearfit
from hangerfit.duffing import seed_nonlinear_guess
from hangerfit.linearfit import (
    _fit_variables,
    _linear_line_shape,
    _linear_scales,
    _noise_sigma,
    _params_at,
    _params_to_vector,
    _solve,
    _vector_to_params,
)

from conftest import (
    assert_jacobians_built_at_their_points,
    central_difference_jacobian,
    column_relative_errors,
    evaluations_at_floor,
    record_costs,
    record_solves,
    single_jacobian,
)


def make_params(**overrides):
    values = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9,
                  internal_loss=5e-7, coupling_loss=1e-6)
    values.update(overrides)
    return LinearParams(**values)


def make_trace(p: LinearParams, span_linewidths=10.0, n_points=401,
               noise=0.0, seed=0):
    half = 0.5 * span_linewidths * loaded_linewidth(p)
    freqs = np.linspace(p.resonant_freq - half, p.resonant_freq + half, n_points)
    return synthesize_linear(p, freqs, noise, seed)


class TestEstimateInitial:
    def test_lands_in_convergence_basin(self):
        p = make_params()
        trace = make_trace(p, noise=0.005, seed=2)
        guess = estimate_initial(trace)
        linewidth = loaded_linewidth(p)
        assert abs(guess.resonant_freq - p.resonant_freq) < 0.2 * linewidth
        assert guess.total_loss == pytest.approx(p.total_loss, rel=0.30)

    def test_flat_trace_raises_no_resonance(self):
        freqs = np.linspace(5e9 - 1e5, 5e9 + 1e5, 101)
        rng = np.random.default_rng(0)
        s21 = 1.0 + 0.001 * (rng.normal(size=101) + 1j * rng.normal(size=101))
        with pytest.raises(NoResonanceError):
            estimate_initial(FrequencyTrace(freqs=freqs, s21=s21))

    def test_recovers_electric_delay(self):
        p = make_params(electric_delay=50e-9, phase_offset=0.3)
        trace = make_trace(p, span_linewidths=30.0, n_points=1201, noise=0.002, seed=4)
        guess = estimate_initial(trace)
        assert guess.electric_delay == pytest.approx(50e-9, rel=0.10)


class TestNoiseSigma:
    @pytest.mark.parametrize("span_linewidths, n_points", [(10.0, 401), (1000.0, 40001)])
    @pytest.mark.parametrize("noise", [1e-4, 1e-2])
    @pytest.mark.parametrize("fano", [-0.5, 0.5])
    @pytest.mark.parametrize("delay", [0.0, 100e-9])
    def test_reads_the_true_sigma(self, delay, fano, noise, span_linewidths, n_points):
        # Cable delay and Fano slope cancel in second differences; the line
        # shape's own curvature reads high only on a coarse 401-point grid.
        p = make_params(electric_delay=delay, fano_asymmetry=fano, phase_offset=0.4)
        trace = make_trace(p, span_linewidths, n_points, noise=noise, seed=0)
        assert 0.8 <= _noise_sigma(trace.s21) / noise <= 1.35


class TestCouplingRange:
    @pytest.mark.parametrize("delay", [0.0, 50e-9])
    @pytest.mark.parametrize("fano", [-0.3, 0.3])
    @pytest.mark.parametrize("qc_over_qi", [0.1, 1.0, 1.5, 3.0, 10.0, 100.0])
    def test_recovers_q_i_and_q_c(self, qc_over_qi, fano, delay):
        # Undercoupled dips (Q_c/Q_i >= 1.5) are shallow: the initial estimate
        # must neither lose them to an edge nor to an inflated noise reading.
        # 2001 points make 5 % at least 4 standard errors at Q_c/Q_i = 100.
        p = make_params(internal_loss=1e-6, coupling_loss=1e-6 / qc_over_qi,
                        fano_asymmetry=fano, electric_delay=delay, phase_offset=0.4)
        report = fit_linear(make_trace(p, n_points=2001, noise=1e-3, seed=0))
        assert report.params.q_internal == pytest.approx(p.q_internal, rel=0.05)
        assert report.details["q_c"] == pytest.approx(p.q_coupling, rel=0.05)


class TestFitLinear:
    def test_noise_free_recovery_to_machine_level(self):
        p = make_params(amplitude=0.8, electric_delay=30e-9, phase_offset=0.7,
                        fano_asymmetry=0.2)
        trace = make_trace(p)
        report = fit_linear(trace)
        assert report.converged
        fitted = report.params
        for name in ("amplitude", "phase_offset", "fano_asymmetry",
                     "resonant_freq", "internal_loss", "coupling_loss"):
            assert getattr(fitted, name) == pytest.approx(getattr(p, name),
                                                          rel=1e-6, abs=1e-9)
        assert fitted.electric_delay == pytest.approx(30e-9, rel=1e-6)
        assert report.residual_rms < 1e-12

    def test_solve_stops_at_the_rounding_floor(self, monkeypatch):
        # A 100 ns delay puts phases of ~3000 rad into the model's exp.
        p = make_params(electric_delay=100e-9, phase_offset=0.7, internal_loss=1e-6,
                        coupling_loss=1e-5)
        costs = record_costs(monkeypatch, linearfit)
        report = fit_linear(make_trace(p, span_linewidths=30.0, noise=0.01, seed=4))
        assert report.converged
        assert evaluations_at_floor(costs[0]) <= 2

    def test_noisy_round_trip(self):
        p = make_params(resonant_freq=5e9, internal_loss=5e-7, coupling_loss=1e-6,
                        fano_asymmetry=0.2, electric_delay=10e-9)
        trace = make_trace(p, noise=0.01, seed=11)
        report = fit_linear(trace)
        assert report.converged
        assert report.params.q_internal == pytest.approx(p.q_internal, rel=0.03)
        assert abs(report.params.resonant_freq - p.resonant_freq) < 0.1 * loaded_linewidth(p)

    def test_reports_raw_and_corrected_coupling_q(self):
        p = make_params(fano_asymmetry=0.3)
        report = fit_linear(make_trace(p))
        assert report.details["q_c"] == pytest.approx(p.q_coupling, rel=1e-4)
        assert report.details["q_c_raw"] == pytest.approx(
            p.q_coupling / np.cos(0.3), rel=1e-4)

    def test_corrected_qc_matches_generator_with_asymmetry(self):
        p = make_params(fano_asymmetry=0.3)
        trace = make_trace(p, noise=0.005, seed=8)
        report = fit_linear(trace)
        assert report.details["q_c"] == pytest.approx(p.q_coupling, rel=0.05)

    def test_five_point_trace_rejected(self):
        with pytest.raises(ParameterError):
            FrequencyTrace(freqs=np.linspace(1e9, 2e9, 5),
                           s21=np.ones(5, dtype=complex))

    def test_nine_point_trace_underdetermined(self):
        # Both fits need p + 3 points for p parameters.
        p = make_params()
        trace = make_trace(p, n_points=9)
        with pytest.raises(ParameterError, match="need >= 10 points to fit 7 parameters"):
            fit_linear(trace)
        trace = make_trace(p, n_points=11)
        guess = seed_nonlinear_guess(trace, p, 1e12)
        with pytest.raises(ParameterError, match="need >= 12 points to fit 9 parameters"):
            fit_nonlinear(trace, guess)

    def test_amplitude_scale_invariance(self):
        # Noise-free: the minimum is sharp, so both fits land on it exactly
        # and the 1e-6 comparison is meaningful.
        p = make_params(fano_asymmetry=0.1)
        trace = make_trace(p)
        report_1 = fit_linear(trace)
        scale = 7.5
        scaled = FrequencyTrace(freqs=trace.freqs, s21=scale * trace.s21,
                                instrument_power=trace.instrument_power,
                                attenuation=trace.attenuation,
                                temperature=trace.temperature, label=trace.label)
        report_2 = fit_linear(scaled)
        assert report_2.params.amplitude == pytest.approx(
            scale * report_1.params.amplitude, rel=1e-6)
        for name in ("electric_delay", "phase_offset", "fano_asymmetry",
                     "internal_loss", "coupling_loss"):
            assert getattr(report_2.params, name) == pytest.approx(
                getattr(report_1.params, name), rel=1e-6, abs=1e-12)
        assert report_2.params.resonant_freq == pytest.approx(
            report_1.params.resonant_freq, abs=1e-6 * loaded_linewidth(p))

    def test_residual_whiteness_on_synthetic(self):
        p = make_params()
        trace = make_trace(p, noise=0.01, seed=15)
        report = fit_linear(trace)
        model = eval_linear_s21(report.params, trace.freqs)
        resid = trace.s21 - model
        lag1 = np.abs(np.sum(resid[:-1] * np.conj(resid[1:]))) / np.sum(np.abs(resid)**2)
        assert lag1 < 0.2
        assert "nonlinear_suspected" not in report.diagnostics

    def test_constant_trace_with_explicit_guess_is_singular(self):
        freqs = np.linspace(5e9 - 1e5, 5e9 + 1e5, 64)
        trace = FrequencyTrace(freqs=freqs, s21=np.zeros(64, dtype=complex) + 1e-30)
        with pytest.raises((SingularJacobianError, NoResonanceError)):
            fit_linear(trace, guess=make_params())

    def test_constant_trace_is_singular_before_the_initial_estimate(self):
        freqs = np.linspace(5e9 - 1e5, 5e9 + 1e5, 64)
        trace = FrequencyTrace(freqs=freqs, s21=np.full(64, 0.5 + 0.5j))
        with pytest.raises(SingularJacobianError):
            fit_linear(trace)

    def test_low_frequency_trace_has_a_positive_resonance_floor(self):
        # A quarter span below 1 kHz reaches -9 kHz; the f_r bound stays > 0.
        p = make_params(resonant_freq=20e3, internal_loss=1 / 6, coupling_loss=1 / 6)
        trace = synthesize_linear(p, np.linspace(1e3, 41e3, 401), 0.01, 1)
        lower, _ = linearfit._linear_bounds(trace)
        assert lower[4] > 0
        report = fit_linear(trace)
        assert report.converged
        assert report.params.resonant_freq == pytest.approx(20e3, abs=0.01 * loaded_linewidth(p))

    def test_low_snr_flagged(self):
        p = make_params()
        trace = make_trace(p, noise=0.2, seed=3)
        report = fit_linear(trace)
        assert "low_snr" in report.diagnostics


class TestLinearJacobian:
    def test_matches_central_differences_in_scaled_variables(self):
        p = make_params(amplitude=0.8, electric_delay=50e-9, phase_offset=0.4,
                        fano_asymmetry=0.3)
        trace = make_trace(p, n_points=201)
        freqs = trace.freqs
        f_center = float(np.mean(freqs))
        x = _params_to_vector(p)
        scales = _linear_scales(x, trace)

        def params_at(u):
            return _params_at(u * scales, f_center, _vector_to_params)

        def model(u):
            s21 = eval_linear_s21(params_at(u), freqs)
            return np.concatenate([s21.real, s21.imag])

        u = _fit_variables(x, f_center) / scales
        jac = single_jacobian(_linear_line_shape(_params_to_vector(params_at(u))[None],
                                                 freqs[None]), f_center) * scales
        reference = central_difference_jacobian(model, u)
        assert np.all(column_relative_errors(jac, reference) <= 1e-5)

    def test_fit_evaluation_builds_its_jacobian_at_its_point(self, monkeypatch):
        records = record_solves(monkeypatch, linearfit)
        fit_linear(make_trace(make_params(fano_asymmetry=0.2), noise=0.01, seed=4))
        assert_jacobians_built_at_their_points(*records[0])


def solve_one(evaluate, x0, bounds, scales):
    """``_solve`` on a stack of one problem, whose ``evaluate(x)`` returns
    the residuals and a function giving the Jacobian; returns its result."""
    def stacked(x, rows):
        r, jacobian = evaluate(x[0])
        return r[None], lambda sel: np.array(jacobian(), dtype=float)[None]
    return _solve(stacked, x0[None], (bounds[0][None], bounds[1][None]), scales[None])[0]


class TestSolve:
    """The least-squares core on problems with known answers."""

    @staticmethod
    def unbounded(p):
        return np.full(p, -np.inf), np.full(p, np.inf)

    def test_linear_problem_matches_lstsq(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(40, 3)) * np.array([1.0, 1e3, 1e-4])
        target = rng.normal(size=40)
        scales = np.array([1.0, 1e-3, 1e4])
        solution = solve_one(lambda x: (design @ x - target, lambda: design),
                             np.zeros(3), self.unbounded(3), scales)
        x, cov, resid = solution.x, solution.covariance, solution.residuals
        reference, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert solution.converged
        np.testing.assert_allclose(x, reference, rtol=1e-12)
        np.testing.assert_allclose(resid, design @ reference - target, rtol=1e-12, atol=1e-12)
        s_squared = np.sum(resid**2) / (40 - 3)
        np.testing.assert_allclose(cov, s_squared * np.linalg.inv(design.T @ design),
                                   rtol=1e-9)

    def test_rosenbrock_reaches_its_minimum(self):
        def evaluate(x):
            return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                    lambda: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))

        solution = solve_one(evaluate, np.array([-1.2, 1.0]), self.unbounded(2), np.ones(2))
        assert solution.converged
        np.testing.assert_allclose(solution.x, [1.0, 1.0], rtol=0, atol=1e-8)

    def test_minimum_outside_the_box_sits_on_the_bound(self):
        # Coupled columns: the unbounded minimum has x = (2, -1), beyond x0 <= 1,
        # so x1 must follow from the reduced problem with x0 held at 1.
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [2.0, 1.0]])
        target = design @ np.array([2.0, -1.0]) + np.array([0.1, -0.1, 0.05, 0.0])
        bounds = (np.full(2, -np.inf), np.array([1.0, np.inf]))
        solution = solve_one(lambda x: (design @ x - target, lambda: design),
                             np.zeros(2), bounds, np.ones(2))
        x = solution.x
        reduced, *_ = np.linalg.lstsq(design[:, 1:], target - design[:, 0], rcond=None)
        assert solution.converged
        assert x[0] == 1.0
        assert x[1] == pytest.approx(reduced[0], abs=1e-9)
        assert np.all(np.isfinite(solution.covariance))

    def test_start_at_the_minimum_stops_on_the_gradient(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        target = np.array([0.0, 1.5, 1.5, 3.5])
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        calls = []

        def evaluate(x):
            calls.append(x)
            return design @ x - target, lambda: design

        result = solve_one(evaluate, solution, self.unbounded(2), np.ones(2))
        assert result.converged
        assert len(calls) == 1
        assert (result.evaluations, result.jacobians) == (1, 1)
        np.testing.assert_array_equal(result.x, solution)

    def test_nan_residual_is_returned_as_its_error(self):
        result = solve_one(lambda x: (np.full(4, np.nan), lambda: np.ones((4, 2))),
                           np.zeros(2), self.unbounded(2), np.ones(2))
        assert isinstance(result, NonConvergenceError)

    def test_zero_jacobian_is_singular(self):
        result = solve_one(lambda x: (np.array([1.0, 2.0, 3.0]), lambda: np.zeros((3, 2))),
                           np.zeros(2), self.unbounded(2), np.ones(2))
        assert isinstance(result, SingularJacobianError)


def assert_same_solution(stacked, alone):
    """Two results of one problem agree bit for bit, counts included."""
    assert not isinstance(alone, Exception)
    for name in ("x", "covariance", "residuals"):
        np.testing.assert_array_equal(getattr(stacked, name), getattr(alone, name))
    assert (stacked.converged, stacked.evaluations, stacked.jacobians) == \
        (alone.converged, alone.evaluations, alone.jacobians)


class TestStackedSolve:
    """One stacked solve gives each problem exactly the result it gets alone."""

    # Problem 0 has its Fano asymmetry bounded below the truth, so its
    # solve ends on that bound.
    BOUNDED = 0

    @pytest.fixture
    def captured(self, monkeypatch):
        traces = []
        for qc_over_qi in (0.1, 1.0, 10.0):
            for fano in (0.3, -0.3):
                for delay in (0.0, 100e-9):
                    p = make_params(internal_loss=1e-6, coupling_loss=1e-6 / qc_over_qi,
                                    fano_asymmetry=fano, electric_delay=delay,
                                    phase_offset=0.4)
                    traces.append(make_trace(p, noise=1e-3, seed=len(traces)))
        calls = []
        solve = linearfit._solve

        def capturing(evaluate, x0, bounds, scales):
            calls.append((evaluate, x0, bounds, scales))
            return solve(evaluate, x0, bounds, scales)

        monkeypatch.setattr(linearfit, "_solve", capturing)
        linearfit.fit_linear_stack(traces)
        (evaluate, x0, (lower, upper), scales), = calls
        upper = upper.copy()
        upper[self.BOUNDED, 3] = 0.1
        return evaluate, x0, (lower, upper), scales

    @staticmethod
    def solve_rows(evaluate, x0, bounds, scales, index):
        """``_solve`` of the problems ``index`` of the captured stack."""
        def sub(x, rows):
            return evaluate(x, [index[i] for i in rows])
        return _solve(sub, x0[index], (bounds[0][index], bounds[1][index]), scales[index])

    def test_each_problem_matches_its_solve_alone(self, captured):
        evaluate, x0, bounds, scales = captured
        stacked = _solve(*captured)
        assert len(stacked) == 12
        assert stacked[self.BOUNDED].x[3] == 0.1
        for k, solution in enumerate(stacked):
            alone, = self.solve_rows(evaluate, x0, bounds, scales, [k])
            assert_same_solution(solution, alone)

    def test_reversed_stack_gives_the_same_results(self, captured):
        evaluate, x0, bounds, scales = captured
        stacked = _solve(*captured)
        order = list(range(len(x0)))[::-1]
        for k, solution in zip(order, self.solve_rows(evaluate, x0, bounds, scales, order)):
            assert_same_solution(solution, stacked[k])

    def test_several_held_patterns_in_one_stack(self, captured, monkeypatch):
        # Problem 1 ends on its Fano bound and on an internal-loss bound below
        # the truth, so one round groups problems with no held column, with
        # Fano held (problem 0) and with Fano and internal_loss held.
        evaluate, x0, (lower, upper), scales = captured
        upper = upper.copy()
        upper[1, 3], upper[1, 5] = 0.1, 0.8e-6
        x0 = np.minimum(x0, upper)
        patterns = []
        free_groups = linearfit._free_groups

        def recording(free):
            groups = free_groups(free)
            patterns.append({tuple(np.flatnonzero(~free[positions[0]]).tolist())
                             for positions, _ in groups})
            return groups

        monkeypatch.setattr(linearfit, "_free_groups", recording)
        stacked = _solve(evaluate, x0, (lower, upper), scales)
        assert any({(), (3,), (3, 5)} <= seen for seen in patterns)
        assert stacked[1].x[3] == 0.1
        assert stacked[1].x[5] == pytest.approx(0.8e-6, rel=1e-12)
        for k, solution in enumerate(stacked):
            alone, = self.solve_rows(evaluate, x0, (lower, upper), scales, [k])
            assert_same_solution(solution, alone)

    def test_non_finite_jacobian_fails_its_problem_alone(self, captured):
        evaluate, x0, bounds, scales = captured
        bad = 5

        def poisoned(x, rows):
            r, jacobian = evaluate(x, rows)

            def build(sel):
                built = jacobian(sel)
                built[np.asarray(rows)[sel] == bad] = np.nan
                return built
            return r, build

        stacked = _solve(poisoned, x0, bounds, scales)
        assert isinstance(stacked[bad], NonConvergenceError)
        assert "Jacobian is not finite" in str(stacked[bad])
        for k, solution in enumerate(stacked):
            if k != bad:
                alone, = self.solve_rows(evaluate, x0, bounds, scales, [k])
                assert_same_solution(solution, alone)

    def test_stack_reports_equal_single_fits(self):
        traces = [make_trace(make_params(fano_asymmetry=0.2), n_points=n, noise=0.01, seed=n)
                  for n in (241, 201, 241)]
        for stacked, trace in zip(linearfit.fit_linear_stack(traces), traces):
            assert stacked == fit_linear(trace)
