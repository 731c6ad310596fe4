"""Initial estimation and linear least squares."""

import numpy as np
import pytest

from hangerfit import (
    FrequencyTrace,
    LinearParams,
    NoResonanceError,
    ParameterError,
    SingularJacobianError,
    eval_linear_s21,
    estimate_initial,
    fit_linear,
    fit_nonlinear,
    loaded_linewidth,
    synthesize_linear,
)
from hangerfit.duffing import seed_nonlinear_guess
from hangerfit.linearfit import (
    _fit_variables,
    _linear_jacobian,
    _linear_scales,
    _params_at,
    _params_to_vector,
    _vector_to_params,
)

from conftest import central_difference_jacobian, column_relative_errors


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
        assert report.residual_rms < 1e-8

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
            return _params_at(u, scales, f_center, _vector_to_params)

        def model(u):
            s21 = eval_linear_s21(params_at(u), freqs)
            return np.concatenate([s21.real, s21.imag])

        u = _fit_variables(x, scales, f_center)
        jac = _linear_jacobian(params_at(u), freqs, f_center) * scales
        reference = central_difference_jacobian(model, u)
        assert np.all(column_relative_errors(jac, reference) <= 1e-5)
