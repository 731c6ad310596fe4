"""Synthetic generators: determinism, noise statistics, sweep composition."""

import numpy as np
import pytest

from hangerfit import (
    LinearParams,
    NonlinearParams,
    TlsParams,
    dbm_to_watts,
    eval_linear_s21,
    eval_tls_loss,
    fit_linear,
    linewidth_grid,
    mean_photon_number,
    synthesize_linear,
    synthesize_nonlinear,
    synthesize_power_sweep,
)

from conftest import circle_deviation, drive_flux_for_xi


def make_params(**overrides):
    values = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9,
                  internal_loss=5e-7, coupling_loss=1e-6)
    values.update(overrides)
    return LinearParams(**values)


class TestLinearSynthesis:
    def test_zero_noise_is_exact_model(self):
        p = make_params()
        freqs = linewidth_grid(p)
        trace = synthesize_linear(p, freqs, 0.0, seed=1)
        np.testing.assert_array_equal(trace.s21, eval_linear_s21(p, freqs))

    def test_same_seed_reproduces(self):
        p = make_params()
        freqs = linewidth_grid(p)
        a = synthesize_linear(p, freqs, 0.01, seed=42)
        b = synthesize_linear(p, freqs, 0.01, seed=42)
        np.testing.assert_array_equal(a.s21, b.s21)

    def test_different_seed_differs(self):
        p = make_params()
        freqs = linewidth_grid(p)
        a = synthesize_linear(p, freqs, 0.01, seed=1)
        b = synthesize_linear(p, freqs, 0.01, seed=2)
        assert np.any(a.s21 != b.s21)

    def test_noise_level_matches_target(self):
        p = make_params(amplitude=0.8)
        freqs = linewidth_grid(p, n_points=401)
        trace = synthesize_linear(p, freqs, 0.01, seed=9)
        resid = trace.s21 - eval_linear_s21(p, freqs)
        per_quadrature = np.concatenate([resid.real, resid.imag])
        assert np.std(per_quadrature) == pytest.approx(0.01 * 0.8, rel=0.10)


class TestNonlinearSynthesis:
    def test_zero_nonlinearity_identical_to_linear(self):
        p = make_params()
        freqs = linewidth_grid(p)
        nl = NonlinearParams(linear=p, kerr=0.0, two_photon=0.0, drive_flux=0.0)
        a = synthesize_linear(p, freqs, 0.02, seed=7)
        b = synthesize_nonlinear(nl, freqs, "sweep_up", 0.02, seed=7)
        np.testing.assert_array_equal(a.s21, b.s21)

    def test_sweep_direction_hysteresis(self):
        p = make_params(internal_loss=4e-5, coupling_loss=1.6e-4)
        flux = drive_flux_for_xi(p, -1.5e3, -0.8)
        nl = NonlinearParams(linear=p, kerr=-1.5e3, two_photon=0.0, drive_flux=flux)
        freqs = linewidth_grid(p, span_linewidths=12.0, n_points=1001)
        up = synthesize_nonlinear(nl, freqs, "sweep_up", 0.0, seed=0)
        down = synthesize_nonlinear(nl, freqs, "sweep_down", 0.0, seed=0)
        assert np.max(np.abs(up.s21 - down.s21)) > 0.01

    def test_two_photon_loss_gives_elliptic_trace(self):
        p = make_params(internal_loss=4e-5, coupling_loss=1.6e-4)
        flux = drive_flux_for_xi(p, -1.5e3, -0.05)
        base = NonlinearParams(linear=p, kerr=-1.5e3, two_photon=0.0, drive_flux=flux)
        from hangerfit import normalized_drive_params
        atilde_sq = normalized_drive_params(base)[2]
        two_photon = 0.1 * p.resonant_freq * p.total_loss / atilde_sq
        nl = NonlinearParams(linear=p, kerr=-1.5e3, two_photon=two_photon,
                             drive_flux=flux)
        freqs = linewidth_grid(p, span_linewidths=12.0, n_points=801)
        trace = synthesize_nonlinear(nl, freqs, "sweep_up", 0.0, seed=0)
        assert circle_deviation(trace, p) > 0.0


class TestPowerSweep:
    def make_sweep(self, kerr=0.0, two_photon=0.0, noise=0.0,
                   powers=np.linspace(-95.0, -25.0, 8)):
        linear = make_params(coupling_loss=5e-6, internal_loss=5e-7)
        tls = TlsParams(q_tls=4e6, n_c=10.0, alpha_tls=0.5, delta_0=2.5e-7,
                        temperature=0.010, f_r=linear.resonant_freq)
        freqs = linewidth_grid(linear, span_linewidths=10.0, n_points=301)
        traces = synthesize_power_sweep(linear, tls, kerr, two_photon, powers,
                                        74.0, freqs, seed=3, noise_sigma=noise)
        return linear, tls, traces

    def test_trace_count_and_metadata(self):
        linear, tls, traces = self.make_sweep()
        assert len(traces) == 8
        assert traces[0].attenuation == 74.0
        assert traces[0].temperature == tls.temperature
        assert traces[3].instrument_power == pytest.approx(-65.0)

    def test_high_power_saturation_deepens_dip(self):
        # TLS saturation lowers delta_i toward delta_0, so the resonance
        # minimum |S21| = delta_i/(delta_i+delta_c) drops and the line narrows.
        linear, tls, traces = self.make_sweep()
        low_min = np.min(np.abs(traces[0].s21))
        high_min = np.min(np.abs(traces[-1].s21))
        assert high_min < low_min
        high_fit = fit_linear(traces[-1])
        power_w = dbm_to_watts(traces[-1].instrument_power - 74.0)
        n_high = mean_photon_number(power_w, high_fit.params)
        assert float(eval_tls_loss(tls, n_high)) == pytest.approx(
            high_fit.params.internal_loss, rel=0.02)
        assert high_fit.params.internal_loss == pytest.approx(tls.delta_0, rel=0.10)

    def test_single_power_matches_direct_synthesis(self):
        linear, tls, traces = self.make_sweep(kerr=-1.5e3, two_photon=20.0,
                                              powers=np.array([-60.0]))
        from hangerfit import NonlinearParams, input_photon_flux
        power_w = dbm_to_watts(-60.0 - 74.0)
        # The photon number that the TLS loss at it produces: a plain
        # fixed-point iteration, a contraction for alpha_tls = 0.5.
        delta_i = linear.internal_loss
        for _ in range(200):
            lin_k = LinearParams(amplitude=linear.amplitude, electric_delay=0.0,
                                 phase_offset=0.0, fano_asymmetry=0.0,
                                 resonant_freq=linear.resonant_freq,
                                 internal_loss=delta_i,
                                 coupling_loss=linear.coupling_loss)
            delta_i = float(eval_tls_loss(tls, mean_photon_number(power_w, lin_k)))
        params = NonlinearParams(linear=lin_k, kerr=-1.5e3, two_photon=20.0,
                                 drive_flux=input_photon_flux(power_w, linear.resonant_freq))
        freqs = linewidth_grid(linear, span_linewidths=10.0, n_points=301)
        direct = synthesize_nonlinear(params, freqs, "sweep_up", 0.0, seed=[3, 0])
        np.testing.assert_array_equal(traces[0].s21, direct.s21)

    @pytest.mark.parametrize("q_c", [1e6, 2e5, 5e6])
    def test_fitted_loss_is_tls_loss_at_fitted_photon_number(self, q_c):
        # The analysis pairs each power's fitted delta_i with the photon
        # number computed from that fit; on a noise-free sweep the pair
        # must lie on the TLS curve.
        tls = TlsParams(q_tls=5e6, n_c=10.0, alpha_tls=0.5, delta_0=5e-8,
                        temperature=0.010, f_r=5e9)
        linear = make_params(internal_loss=float(eval_tls_loss(tls, 0.0)),
                             coupling_loss=1.0 / q_c)
        powers = np.arange(-80.0, -14.0, 5.0)
        traces = synthesize_power_sweep(linear, tls, 0.0, 0.0, powers, 74.0,
                                        linewidth_grid(linear), seed=0)
        for power_dbm, trace in zip(powers, traces):
            fit = fit_linear(trace).params
            n_bar = mean_photon_number(dbm_to_watts(power_dbm - 74.0), fit)
            assert abs(fit.internal_loss / eval_tls_loss(tls, n_bar) - 1.0) <= 1e-9

    def test_rejects_unsorted_powers(self):
        linear = make_params()
        tls = TlsParams(q_tls=4e6, n_c=10.0, alpha_tls=0.5, delta_0=2.5e-7,
                        temperature=0.010, f_r=linear.resonant_freq)
        freqs = linewidth_grid(linear)
        from hangerfit import ParameterError
        with pytest.raises(ParameterError):
            synthesize_power_sweep(linear, tls, 0.0, 0.0, [-30.0, -60.0], 74.0,
                                   freqs, seed=0)
