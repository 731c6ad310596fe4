"""TLS loss model: limits, monotonicity, combined loss, round-trip fits."""

import numpy as np
import pytest

from hangerfit import (
    InsufficientSpanError,
    ParameterError,
    TlsParams,
    eval_combined_loss,
    eval_tls_loss,
    fit_tls,
)
from hangerfit import linearfit, tls
from hangerfit.model import thermal_tanh_factor
from hangerfit.tls import _tls_loss, _tls_start

from conftest import (
    assert_jacobians_built_at_their_points,
    central_difference_jacobian,
    column_relative_errors,
    record_solves,
)


def make_tls(**overrides):
    values = dict(q_tls=4e6, n_c=10.0, alpha_tls=0.5, delta_0=2.5e-7,
                  temperature=0.010, f_r=5e9)
    values.update(overrides)
    return TlsParams(**values)


class TestEvalTls:
    def test_high_power_saturates_to_residual_loss(self):
        t = make_tls()
        assert eval_tls_loss(t, 1e15) == pytest.approx(t.delta_0, rel=1e-3)

    def test_zero_photons_cold_limit(self):
        t = make_tls(temperature=1e-4)  # tanh -> 1
        assert eval_tls_loss(t, 0.0) == pytest.approx(t.delta_0 + 1.0 / t.q_tls,
                                                      rel=1e-12)

    def test_critical_photon_number_halves_tls_term(self):
        t = make_tls(alpha_tls=1.0, delta_0=0.0, temperature=1e-4)
        assert eval_tls_loss(t, t.n_c) == pytest.approx(0.5 / t.q_tls, rel=1e-9)

    def test_strictly_decreasing_in_photon_number(self):
        t = make_tls()
        n = np.geomspace(1e-2, 1e10, 200)
        losses = eval_tls_loss(t, n)
        assert np.all(np.diff(losses) < 0)

    def test_strictly_decreasing_in_temperature(self):
        losses = [eval_tls_loss(make_tls(temperature=temp), 10.0)
                  for temp in (0.01, 0.05, 0.1, 0.3)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_rejects_negative_photon_number(self):
        with pytest.raises(ParameterError):
            eval_tls_loss(make_tls(), -1.0)


class TestCombinedLoss:
    def test_zero_rate_reduces_to_tls(self):
        t = make_tls()
        n = np.geomspace(1, 1e8, 20)
        np.testing.assert_array_equal(eval_combined_loss(t, 0.0, n),
                                      eval_tls_loss(t, n))

    def test_zero_photons_reduces_to_tls(self):
        t = make_tls()
        assert eval_combined_loss(t, 1e3, 0.0) == eval_tls_loss(t, 0.0)

    def test_worked_two_photon_term(self):
        t = make_tls()
        extra = eval_combined_loss(t, 1e3, 1e3) - eval_tls_loss(t, 1e3)
        assert extra == pytest.approx(2e-4, rel=1e-12)

    def test_difference_exactly_linear_in_photon_number(self):
        t = make_tls()
        two_photon = 750.0
        n = np.linspace(0.0, 1e6, 50)
        diff = eval_combined_loss(t, two_photon, n) - eval_tls_loss(t, n)
        np.testing.assert_allclose(diff, two_photon * n / t.f_r, rtol=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ParameterError):
            eval_combined_loss(make_tls(), -1.0, 1.0)


def synthesize_points(t: TlsParams, n_powers=12, noise=0.02, seed=5,
                      two_photon=0.0):
    n = np.geomspace(1.0, 1e8, n_powers)
    rng = np.random.default_rng(seed)
    losses = eval_combined_loss(t, two_photon, n) * (1.0 + noise * rng.normal(size=n_powers))
    return n, losses


class TestFitTls:
    def test_round_trip_twelve_powers(self):
        truth = make_tls()
        n, losses = synthesize_points(truth, seed=18)
        report = fit_tls(n, losses, truth.temperature, truth.f_r)
        fitted: TlsParams = report.params
        assert fitted.q_tls == pytest.approx(truth.q_tls, rel=0.10)
        assert fitted.n_c == pytest.approx(truth.n_c, rel=0.10)
        assert fitted.alpha_tls == pytest.approx(truth.alpha_tls, rel=0.10)
        assert fitted.delta_0 == pytest.approx(truth.delta_0, rel=0.10)
        assert report.converged

    def test_power_independent_device(self):
        # Pure residual loss: the fitted TLS amplitude must be consistent
        # with zero within its standard error.
        rng = np.random.default_rng(9)
        n = np.geomspace(1.0, 1e8, 12)
        losses = 2.5e-7 * (1.0 + 0.02 * rng.normal(size=12))
        report = fit_tls(n, losses, 0.010, 5e9)
        amplitude = report.details["tls_loss"]
        assert amplitude <= report.std_errors["tls_loss"] + 1e-12
        assert report.params.delta_0 == pytest.approx(2.5e-7, rel=0.05)

    def test_round_trip_with_two_photon_term(self):
        truth = make_tls()
        # gamma*n_max/f_r = 0.4: an upturn a million times the residual loss.
        two_photon = 20.0
        n, losses = synthesize_points(truth, noise=0.01, seed=7,
                                      two_photon=two_photon)
        report = fit_tls(n, losses, truth.temperature, truth.f_r,
                         include_two_photon=True)
        assert report.details["two_photon_hz"] == pytest.approx(two_photon, rel=0.15)
        assert report.params.n_c == pytest.approx(truth.n_c, rel=0.20)

    @pytest.mark.parametrize("seed", range(8))
    def test_upturn_comparable_to_residual_loss(self, seed):
        truth = make_tls()
        # gamma*n_max/f_r = 5e-7 = 2*delta_0.
        two_photon = 0.025
        n, losses = synthesize_points(truth, noise=0.01, seed=seed,
                                      two_photon=two_photon)
        report = fit_tls(n, losses, truth.temperature, truth.f_r,
                         include_two_photon=True)
        assert report.details["two_photon_hz"] == pytest.approx(two_photon, rel=0.05)
        assert report.params.delta_0 == pytest.approx(truth.delta_0, rel=0.10)

    @pytest.mark.parametrize("seed", range(8))
    def test_upturn_leaves_the_start_knee_within_a_decade(self, seed):
        truth = make_tls()
        n, losses = synthesize_points(truth, noise=0.01, seed=seed, two_photon=0.025)
        x0, _, _ = _tls_start(n, losses, thermal_tanh_factor(truth.f_r, truth.temperature),
                              truth.f_r, include_two_photon=True)
        assert abs(x0[1] - np.log10(truth.n_c)) <= 1.0

    def test_three_points_insufficient(self):
        with pytest.raises(InsufficientSpanError):
            fit_tls([1.0, 1e4, 1e8], [1e-6, 8e-7, 5e-7], 0.010, 5e9)

    def test_narrow_span_insufficient(self):
        n = np.geomspace(1.0, 50.0, 8)
        with pytest.raises(InsufficientSpanError):
            fit_tls(n, np.full(8, 1e-6), 0.010, 5e9)

    def test_loss_scale_invariance(self):
        truth = make_tls()
        n, losses = synthesize_points(truth, noise=0.01, seed=21)
        first = fit_tls(n, losses, truth.temperature, truth.f_r)
        scale = 3.7
        second = fit_tls(n, scale * losses, truth.temperature, truth.f_r)
        assert second.details["tls_loss"] == pytest.approx(
            scale * first.details["tls_loss"], rel=1e-6)
        assert second.params.delta_0 == pytest.approx(
            scale * first.params.delta_0, rel=1e-6)
        assert second.params.n_c == pytest.approx(first.params.n_c, rel=1e-6)
        assert second.params.alpha_tls == pytest.approx(first.params.alpha_tls,
                                                        rel=1e-6)

    @staticmethod
    def below_knee_sweep():
        # All points sit below n_c, so n_c, alpha and delta_0 trade off
        # along a flat valley.
        truth = make_tls(q_tls=2e5, delta_0=3e-7)
        n = np.geomspace(3.4e-7, 4.0, 8)
        return truth, n, eval_tls_loss(truth, n)

    def test_exhausted_budget_reports_not_converged(self, monkeypatch):
        # A solve that runs out of its budget gives a report with
        # converged=False, not an error.
        monkeypatch.setattr(linearfit, "_MAX_ITERATIONS", 1)
        truth, n, losses = self.below_knee_sweep()
        report = fit_tls(n, losses, truth.temperature, truth.f_r)
        assert report.converged is False

    def test_sweep_below_knee_converges_to_truth(self):
        truth, n, losses = self.below_knee_sweep()
        report = fit_tls(n, losses, truth.temperature, truth.f_r)
        assert report.converged
        assert report.params.q_tls == pytest.approx(truth.q_tls, rel=1e-6)
        assert report.params.n_c == pytest.approx(truth.n_c, rel=1e-6)


class TestTlsJacobian:
    @pytest.mark.parametrize("two_photon", [None, 20.0])
    def test_matches_central_differences_in_scaled_variables(self, two_photon):
        truth = make_tls()
        n, losses = synthesize_points(truth, noise=0.01, seed=7,
                                      two_photon=two_photon or 0.0)
        tanh_factor = thermal_tanh_factor(truth.f_r, truth.temperature)
        # At the solver's start, where each scaled variable is of order one.
        x0, _, scales = _tls_start(n, losses, tanh_factor, truth.f_r,
                                   include_two_photon=two_photon is not None)

        def residuals(u):
            return np.log10(_tls_loss(u * scales, n, tanh_factor, truth.f_r)[0]) - np.log10(losses)

        u = x0 / scales
        jac = _tls_loss(u * scales, n, tanh_factor, truth.f_r)[1]() * scales
        reference = central_difference_jacobian(residuals, u)
        assert jac.shape == (n.size, 4 if two_photon is None else 5)
        assert np.all(column_relative_errors(jac, reference) <= 1e-5)

    @pytest.mark.parametrize("two_photon", [None, 20.0])
    def test_fit_evaluation_builds_its_jacobian_at_its_point(self, monkeypatch, two_photon):
        truth = make_tls()
        n, losses = synthesize_points(truth, noise=0.01, seed=7, two_photon=two_photon or 0.0)
        records = record_solves(monkeypatch, tls)
        fit_tls(n, losses, truth.temperature, truth.f_r,
                include_two_photon=two_photon is not None)
        assert_jacobians_built_at_their_points(*records[0])
