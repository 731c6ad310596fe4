"""Duffing core: cubic roots vs oracles, line shape, fits, extraction."""

import math

import numpy as np
import pytest

from hangerfit import (
    BifurcationUnstableError,
    BranchPolicy,
    FrequencyTrace,
    InsufficientPowersError,
    LinearParams,
    LowSignalError,
    NonlinearParams,
    ParameterError,
    SingularJacobianError,
    ellipticity_metric,
    eval_linear_s21,
    eval_nonlinear_s21,
    extract_kerr_two_photon,
    fit_circle,
    fit_nonlinear,
    mean_photon_number,
    normalized_drive_params,
    photon_numbers,
    seed_nonlinear_guess,
    selected_photon_numbers,
    synthesize_nonlinear,
)
from hangerfit.duffing import (
    _nl_params,
    _nl_scales,
    _nl_vector,
    _nonlinear_jacobian,
    branch_jump_indices,
    positive_cubic_roots,
)
from hangerfit.linearfit import _fit_variables, _linear_jacobian, _params_at

from conftest import (
    bisection_roots,
    central_difference_jacobian,
    column_relative_errors,
    cubic_value,
    drive_flux_for_xi,
    oracle_root_count,
)

TWO_PI = 2 * math.pi


def make_linear(**overrides):
    values = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9,
                  internal_loss=4e-5, coupling_loss=1.6e-4)
    values.update(overrides)
    return LinearParams(**values)


class TestNormalizedDriveParams:
    def test_zero_rates_give_zero(self, base_linear):
        nl = NonlinearParams(linear=base_linear, kerr=0.0, two_photon=0.0,
                             drive_flux=1e9)
        xi, eta, _ = normalized_drive_params(nl)
        assert xi == 0.0 and eta == 0.0

    def test_zero_drive_gives_zero(self, base_linear):
        nl = NonlinearParams(linear=base_linear, kerr=-2e3, two_photon=1e3,
                             drive_flux=0.0)
        xi, eta, atilde_sq = normalized_drive_params(nl)
        assert xi == 0.0 and eta == 0.0 and atilde_sq == 0.0

    def test_worked_example_angular_normalization(self):
        # kappa_i = kappa_c = 5 kHz, flux 1e8/s, kerr -1.5 kHz.  The photon
        # normalization uses angular rates (this is what ties the solver to
        # the resonance photon-number formula), hence the 1/(2*pi).
        p = LinearParams(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                         fano_asymmetry=0.0, resonant_freq=5e9,
                         internal_loss=1e-6, coupling_loss=1e-6)
        nl = NonlinearParams(linear=p, kerr=-1.5e3, two_photon=0.0, drive_flux=1e8)
        xi, eta, atilde_sq = normalized_drive_params(nl)
        assert atilde_sq == pytest.approx(5e3 / TWO_PI, rel=1e-12)
        assert xi == pytest.approx(-750.0 / TWO_PI, rel=1e-12)
        assert eta == 0.0

    def test_eta_scales_with_two_photon_rate(self, base_linear):
        nl_1 = NonlinearParams(linear=base_linear, kerr=0.0, two_photon=1e3,
                               drive_flux=1e8)
        nl_2 = NonlinearParams(linear=base_linear, kerr=0.0, two_photon=3e3,
                               drive_flux=1e8)
        assert normalized_drive_params(nl_2)[1] == pytest.approx(
            3 * normalized_drive_params(nl_1)[1], rel=1e-12)


def roots_at(xi, eta, dt):
    """Ascending positive roots of the cubic at one detuning."""
    roots, counts = positive_cubic_roots(xi, eta, [dt])
    return roots[0, :counts[0]]


def selected_at(xi, eta, dt, policy="low"):
    ntilde, _ = selected_photon_numbers(xi, eta, [dt], policy)
    return float(ntilde[0])


class TestCubicSolver:
    def test_trivial_on_resonance(self):
        assert selected_at(0.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert roots_at(0.0, 0.0, 0.0).size == 1

    def test_trivial_half_linewidth(self):
        assert selected_at(0.0, 0.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_small_kerr_against_bisection(self):
        oracle = bisection_roots(0.01, 0.0, 0.0)
        selected = selected_at(0.01, 0.0, 0.0)
        assert len(oracle) == 1
        assert selected == pytest.approx(oracle[0], rel=1e-10)
        assert selected == pytest.approx(1.99681, rel=1e-5)

    def test_three_root_case_found_by_scan(self):
        # (xi, dt) pair inside the region located by the discriminant scan.
        xi, dt = -0.8, -1.5
        assert oracle_root_count(xi, 0.0, dt) == 3
        roots = roots_at(xi, 0.0, dt)
        assert roots.size == 3
        assert roots[0] < roots[1] < roots[2]
        assert selected_at(xi, 0.0, dt, policy="low") == roots[0]
        assert selected_at(xi, 0.0, dt, policy="high") == roots[2]
        oracle = bisection_roots(xi, 0.0, dt)
        np.testing.assert_allclose(roots, oracle, rtol=1e-8)

    def test_random_draws_match_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            xi = float(rng.uniform(-1.2, 1.2))
            eta = float(rng.uniform(0.0, 0.8))
            dt = float(rng.uniform(-3.0, 3.0))
            roots = roots_at(xi, eta, dt)
            oracle = bisection_roots(xi, eta, dt)
            assert len(oracle) == roots.size
            np.testing.assert_allclose(roots, oracle, rtol=1e-8)

    def test_roots_satisfy_cubic(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            xi = float(rng.uniform(-1.5, 1.5))
            eta = float(rng.uniform(0.0, 1.0))
            dt = float(rng.uniform(-4.0, 4.0))
            for root in roots_at(xi, eta, dt):
                residual = abs(cubic_value(xi, eta, dt, root))
                scale = max(1.0, abs((xi**2 + eta**2 / 4) * root**3),
                            abs((eta / 2 - 2 * xi * dt) * root**2),
                            abs((0.25 + dt**2) * root))
                assert residual < 1e-10 * scale

    def test_root_count_is_one_or_three(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            xi = float(rng.uniform(-2.0, 2.0))
            eta = float(rng.uniform(0.0, 1.0))
            dt = float(rng.uniform(-5.0, 5.0))
            _, counts = positive_cubic_roots(xi, eta, [dt])
            assert counts[0] in (1, 3)

    def test_single_root_grid_unchanged_by_a_three_root_point(self):
        # A grid with no three-root point takes the single-column path; the
        # same points on a grid that has one must give the same bits.
        xi = -0.8
        dense = np.linspace(-6.0, 6.0, 1201)
        _, counts = positive_cubic_roots(xi, 0.0, dense)
        single = dense[counts == 1]
        three = dense[counts == 3][0]
        roots, single_counts = positive_cubic_roots(xi, 0.0, single)
        assert np.all(single_counts == 1)
        mixed = np.sort(np.append(single, three))
        mixed_roots, mixed_counts = positive_cubic_roots(xi, 0.0, mixed)
        keep = mixed != three
        np.testing.assert_array_equal(mixed_roots[keep], roots)
        np.testing.assert_array_equal(mixed_counts[keep], single_counts)
        assert mixed_counts[~keep][0] == 3

    def test_rejects_negative_eta(self):
        with pytest.raises(ParameterError):
            positive_cubic_roots(0.1, -0.1, [0.0])
        with pytest.raises(ParameterError):
            selected_photon_numbers(0.1, -0.1, [0.0], "low")

    def test_policy_coercion_accepts_cli_spelling(self):
        assert BranchPolicy.coerce("sweep-up") is BranchPolicy.SWEEP_UP
        assert BranchPolicy.coerce("HIGH") is BranchPolicy.HIGH


class TestBranchSelection:
    def test_sweep_policies_differ_beyond_bifurcation(self):
        dts = np.linspace(-4.0, 1.0, 2001)
        up, counts = selected_photon_numbers(-0.8, 0.0, dts, "sweep_up")
        down, _ = selected_photon_numbers(-0.8, 0.0, dts, "sweep_down")
        differ = np.abs(up - down) > 1e-9 * np.maximum(up, down)
        assert differ.sum() > 0
        assert np.all(differ == (counts == 3))  # hysteresis exactly on the fold region

    def test_sweep_selection_continuous_outside_folds(self):
        dts = np.linspace(-4.0, 1.0, 2001)
        for policy in ("sweep_up", "sweep_down"):
            selected, counts = selected_photon_numbers(-0.8, 0.0, dts, policy)
            assert branch_jump_indices(selected, counts).size == 0

    def test_low_high_bracket_sweeps(self):
        dts = np.linspace(-4.0, 1.0, 801)
        low, _ = selected_photon_numbers(-0.8, 0.0, dts, "low")
        high, _ = selected_photon_numbers(-0.8, 0.0, dts, "high")
        up, _ = selected_photon_numbers(-0.8, 0.0, dts, "sweep_up")
        assert np.all(low <= up + 1e-12) and np.all(up <= high + 1e-12)

    def test_sweep_requires_monotone_grid(self):
        with pytest.raises(ParameterError):
            selected_photon_numbers(-0.8, 0.0, [0.0, -1.0, 1.0], "sweep_up")


class TestNonlinearLineShape:
    def test_zero_nonlinearity_equals_linear_model(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = LinearParams(amplitude=rng.uniform(0.2, 2.0),
                             electric_delay=rng.uniform(-50e-9, 50e-9),
                             phase_offset=rng.uniform(-3, 3),
                             fano_asymmetry=rng.uniform(-0.5, 0.5),
                             resonant_freq=rng.uniform(4.2e9, 7.8e9),
                             internal_loss=10**rng.uniform(-7, -5),
                             coupling_loss=10**rng.uniform(-6.7, -5.7))
            freqs = np.linspace(p.resonant_freq * (1 - 1e-5), p.resonant_freq * (1 + 1e-5), 401)
            nl = NonlinearParams(linear=p, kerr=0.0, two_photon=0.0,
                                 drive_flux=rng.uniform(0, 1e10))
            diff = np.abs(eval_nonlinear_s21(nl, freqs, "sweep_up")
                          - eval_linear_s21(p, freqs))
            assert np.max(diff) < 1e-12

    def test_pure_kerr_preserves_circle(self):
        lin = make_linear()
        flux = drive_flux_for_xi(lin, -1.5e3, -0.2)
        nl = NonlinearParams(linear=lin, kerr=-1.5e3, two_photon=0.0, drive_flux=flux)
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 801)
        z = eval_nonlinear_s21(nl, freqs, "sweep_up")
        center, radius = fit_circle(z)
        assert np.max(np.abs(np.abs(z - center) - radius)) / radius < 1e-9

    def test_two_photon_loss_breaks_circle(self):
        lin = make_linear()
        flux = drive_flux_for_xi(lin, -1.5e3, -0.05)
        nl_eta = NonlinearParams(linear=lin, kerr=-1.5e3,
                                 two_photon=0.1 * lin.resonant_freq * lin.total_loss
                                 / normalized_drive_params(
                                     NonlinearParams(linear=lin, kerr=0.0,
                                                     two_photon=0.0, drive_flux=flux))[2],
                                 drive_flux=flux)
        assert normalized_drive_params(nl_eta)[1] == pytest.approx(0.1, rel=1e-9)
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 801)
        trace = synthesize_nonlinear(nl_eta, freqs)
        metric = ellipticity_metric(trace, lin)
        assert metric > 1e-3  # visibly non-circular

    def test_negative_kerr_pulls_dip_down_in_frequency(self):
        lin = make_linear()
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 2001)
        dips = []
        for xi_target in (-0.02, -0.2):
            flux = drive_flux_for_xi(lin, -1.5e3, xi_target)
            nl = NonlinearParams(linear=lin, kerr=-1.5e3, two_photon=0.0, drive_flux=flux)
            mag = np.abs(eval_nonlinear_s21(nl, freqs, "sweep_up"))
            dips.append(freqs[np.argmin(mag)])
        assert dips[1] < dips[0] < lin.resonant_freq

    def test_photon_number_matches_calibration_at_resonance(self, base_linear):
        nl = NonlinearParams(linear=base_linear, kerr=0.0, two_photon=0.0,
                             drive_flux=1e8)
        from hangerfit.constants import PLANCK
        power_w = 1e8 * PLANCK * base_linear.resonant_freq
        n = photon_numbers(nl, [base_linear.resonant_freq], "low")[0]
        assert n == pytest.approx(mean_photon_number(power_w, base_linear), rel=1e-9)


class TestNonlinearJacobian:
    FREQS = np.linspace(5e9 * (1 - 1e-3), 5e9 * (1 + 1e-3), 201)

    def case(self, xi, eta):
        lin = make_linear(amplitude=0.8, electric_delay=50e-9, phase_offset=0.4,
                          fano_asymmetry=0.3)
        kerr = -1.5e3 if xi < 0 else 1.5e3
        flux = drive_flux_for_xi(lin, kerr, xi)
        g = normalized_drive_params(
            NonlinearParams(linear=lin, kerr=1.0, two_photon=0.0, drive_flux=flux))[0]
        return NonlinearParams(linear=lin, kerr=kerr, two_photon=eta / g, drive_flux=flux)

    @pytest.mark.parametrize("xi", [0.1, 0.9, -0.5])
    def test_matches_central_differences_in_scaled_variables(self, xi):
        p = self.case(xi, 0.3)
        xi_p, eta_p, _ = normalized_drive_params(p)
        f_center = float(np.mean(self.FREQS))
        dt = (self.FREQS - 5e9) / (5e9 * p.linear.total_loss)
        _, counts = positive_cubic_roots(xi_p, eta_p, dt)
        assert np.all(counts == 1)

        x = _nl_vector(p)
        trace = FrequencyTrace(freqs=self.FREQS,
                               s21=eval_nonlinear_s21(p, self.FREQS, "sweep_up"))
        scales = _nl_scales(x, trace, p.drive_flux)

        def params_at(u):
            return _params_at(u, scales, f_center, lambda v: _nl_params(v, p.drive_flux))

        def model(u):
            s21 = eval_nonlinear_s21(params_at(u), self.FREQS, "sweep_up")
            return np.concatenate([s21.real, s21.imag])

        u = _fit_variables(x, scales, f_center)
        jac = _nonlinear_jacobian(params_at(u), self.FREQS, f_center,
                                  BranchPolicy.SWEEP_UP) * scales
        reference = central_difference_jacobian(model, u)
        assert np.all(column_relative_errors(jac, reference) <= 1e-5)

    def test_zero_rates_give_exactly_the_linear_columns(self):
        lin = make_linear(fano_asymmetry=0.3, electric_delay=50e-9)
        p = NonlinearParams(linear=lin, kerr=0.0, two_photon=0.0, drive_flux=1e12)
        f_center = float(np.mean(self.FREQS))
        jac = _nonlinear_jacobian(p, self.FREQS, f_center, BranchPolicy.SWEEP_UP)
        np.testing.assert_array_equal(jac[:, :7], _linear_jacobian(lin, self.FREQS, f_center))


class TestEllipticityMetric:
    def test_linear_trace_is_circular(self, base_linear):
        lin = make_linear(fano_asymmetry=0.2, electric_delay=20e-9, phase_offset=0.5)
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 401)
        trace = synthesize_nonlinear(
            NonlinearParams(linear=lin, kerr=0.0, two_photon=0.0, drive_flux=0.0), freqs)
        assert ellipticity_metric(trace, lin) < 1e-9

    def test_degenerate_circle_raises_low_signal(self):
        lin = make_linear()
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 64)
        rng = np.random.default_rng(5)
        # Pure noise around the baseline: no resonance circle to speak of.
        s21 = 1.0 + 0.05 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        trace = FrequencyTrace(freqs=freqs, s21=s21)
        with pytest.raises(LowSignalError):
            ellipticity_metric(trace, lin)


class TestFitNonlinear:
    def synthesize_case(self, xi_target, eta_target, noise, seed, kerr=-1.5e3,
                        span_linewidths=12.0, n_points=501):
        lin = make_linear()
        flux = drive_flux_for_xi(lin, kerr, xi_target)
        kappa_hz = lin.resonant_freq * lin.total_loss
        base = NonlinearParams(linear=lin, kerr=kerr, two_photon=0.0, drive_flux=flux)
        atilde_sq = normalized_drive_params(base)[2]
        two_photon = eta_target * kappa_hz / atilde_sq if eta_target else 0.0
        truth = NonlinearParams(linear=lin, kerr=kerr, two_photon=two_photon,
                                drive_flux=flux)
        half = 0.5 * span_linewidths * kappa_hz
        freqs = np.linspace(lin.resonant_freq - half, lin.resonant_freq + half, n_points)
        trace = synthesize_nonlinear(truth, freqs, "sweep_up", noise, seed)
        return truth, trace

    def test_round_trip_below_bifurcation(self):
        # Dense grid keeps the strong kerr/f_r/two_photon correlations from
        # swamping the 5% targets at 1% noise.
        truth, trace = self.synthesize_case(0.05, 0.02, 0.01, seed=1, kerr=1.5e3,
                                            span_linewidths=6.0, n_points=2001)
        guess = seed_nonlinear_guess(trace, truth.linear, truth.drive_flux)
        report = fit_nonlinear(trace, guess, "sweep_up")
        assert report.converged
        assert report.params.kerr == pytest.approx(truth.kerr, rel=0.05)
        assert report.params.two_photon == pytest.approx(truth.two_photon, rel=0.05)

    def test_zero_two_photon_recovered_as_zero(self):
        truth, trace = self.synthesize_case(-0.05, 0.0, 0.01, seed=7)
        guess = seed_nonlinear_guess(trace, truth.linear, truth.drive_flux)
        report = fit_nonlinear(trace, guess, "sweep_up")
        assert report.params.two_photon <= 2 * report.std_errors["two_photon"] + 1e-12

    def test_linear_regime_flags_low_sensitivity(self):
        lin = make_linear()
        flux = drive_flux_for_xi(lin, -1.5e3, -1e-7)
        truth = NonlinearParams(linear=lin, kerr=-1.5e3, two_photon=0.0, drive_flux=flux)
        freqs = np.linspace(lin.resonant_freq * (1 - 1.2e-3),
                            lin.resonant_freq * (1 + 1.2e-3), 301)
        trace = synthesize_nonlinear(truth, freqs, "sweep_up", 0.01, seed=13)
        guess = NonlinearParams(linear=lin, kerr=0.0, two_photon=0.0, drive_flux=flux)
        report = fit_nonlinear(trace, guess, "sweep_up")
        assert "low_snr" in report.diagnostics
        assert report.std_errors["kerr"] >= abs(report.params.kerr)

    def test_constant_trace_is_singular(self):
        lin = make_linear()
        freqs = np.linspace(lin.resonant_freq * (1 - 1e-3), lin.resonant_freq * (1 + 1e-3), 64)
        trace = FrequencyTrace(freqs=freqs, s21=np.full(64, 0.5 + 0.5j))
        guess = NonlinearParams(linear=lin, kerr=-1.5e3, two_photon=0.0, drive_flux=1e12)
        with pytest.raises(SingularJacobianError):
            fit_nonlinear(trace, guess)

    def test_bifurcated_flag_set_beyond_critical_drive(self):
        truth, trace = self.synthesize_case(-0.8, 0.0, 0.0, seed=3)
        guess = NonlinearParams(linear=truth.linear, kerr=truth.kerr,
                                two_photon=0.0, drive_flux=truth.drive_flux)
        report = fit_nonlinear(trace, guess, "sweep_up")
        assert "bifurcated" in report.diagnostics
        assert report.details["max_photon_number"] > 0


class TestExtraction:
    def per_power_fits(self, kerr, two_photon, n_powers=6, noise=0.002, seed=19):
        lin = make_linear()
        fits, photon_counts = [], []
        for k, xi_target in enumerate(np.linspace(0.005, 0.05, n_powers)):
            flux = drive_flux_for_xi(lin, kerr, math.copysign(xi_target, kerr))
            truth = NonlinearParams(linear=lin, kerr=kerr, two_photon=two_photon,
                                    drive_flux=flux)
            freqs = np.linspace(lin.resonant_freq * (1 - 1.2e-3),
                                lin.resonant_freq * (1 + 1.2e-3), 401)
            trace = synthesize_nonlinear(truth, freqs, "sweep_up", noise, seed=[seed, k])
            guess = seed_nonlinear_guess(trace, lin, flux)
            report = fit_nonlinear(trace, guess, "sweep_up")
            fits.append(report)
            photon_counts.append(report.details["max_photon_number"])
        return fits, photon_counts

    def test_round_trip_slopes(self):
        fits, ns = self.per_power_fits(kerr=-1.5e3, two_photon=1.0e3)
        kerr, two_photon, diag = extract_kerr_two_photon(fits, ns)
        assert kerr == pytest.approx(-1.5e3, rel=0.05)
        assert two_photon == pytest.approx(1.0e3, rel=0.05)
        assert diag["kerr_r_squared"] > 0.99
        assert diag["two_photon_r_squared"] > 0.99

    def test_null_two_photon_within_error(self):
        fits, ns = self.per_power_fits(kerr=-1.5e3, two_photon=0.0)
        _, two_photon, diag = extract_kerr_two_photon(fits, ns)
        assert abs(two_photon) <= 2 * diag["two_photon_stderr_hz"] + 1e-9

    def test_too_few_powers(self):
        fits, ns = self.per_power_fits(kerr=-1.5e3, two_photon=1e3, n_powers=4)
        with pytest.raises(InsufficientPowersError):
            extract_kerr_two_photon(fits[:2], ns[:2])
