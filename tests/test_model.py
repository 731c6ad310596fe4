"""Linear model: worked examples, geometry invariants, domain validation."""

import math

import numpy as np
import pytest

from hangerfit import (
    FrequencyTrace,
    LinearParams,
    ParameterError,
    eval_linear_s21,
    loaded_linewidth,
    raw_qc,
)
from hangerfit.constants import BOLTZMANN, PLANCK
from hangerfit.model import thermal_tanh_factor

from conftest import fit_circle


def make_params(**overrides):
    values = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9,
                  internal_loss=1e-6, coupling_loss=1e-6)
    values.update(overrides)
    return LinearParams(**values)


class TestEvalLinear:
    def test_matched_losses_give_half_at_resonance(self):
        p = make_params()
        assert eval_linear_s21(p, [p.resonant_freq])[0] == pytest.approx(0.5 + 0j)

    def test_internal_three_times_coupling(self):
        p = make_params(internal_loss=3e-6)
        assert eval_linear_s21(p, [p.resonant_freq])[0] == pytest.approx(0.75 + 0j)

    def test_half_linewidth_detuning(self):
        p = make_params()
        f = p.resonant_freq * (1 + 0.5 * p.total_loss)
        assert eval_linear_s21(p, [f])[0] == pytest.approx(0.75 + 0.25j, abs=1e-12)

    def test_far_off_resonance_returns_baseline(self):
        p = make_params(amplitude=0.7)
        f = p.resonant_freq * (1 + 1e3 * p.total_loss)  # 1000 linewidths out
        assert abs(eval_linear_s21(p, [f])[0]) == pytest.approx(0.7, abs=1e-3 * 0.7)

    def test_resonance_is_global_magnitude_minimum(self):
        p = make_params(electric_delay=30e-9, phase_offset=1.1)
        freqs = np.linspace(p.resonant_freq * (1 - 5e-6), p.resonant_freq * (1 + 5e-6), 1001)
        mags = np.abs(eval_linear_s21(p, freqs))
        assert np.argmin(mags) == np.argmin(np.abs(freqs - p.resonant_freq))

    def test_conjugate_symmetry_about_resonance(self):
        p = make_params(internal_loss=7e-7, coupling_loss=2.2e-6)
        offsets = np.linspace(1e2, 5e4, 57)
        plus = eval_linear_s21(p, p.resonant_freq + offsets)
        minus = eval_linear_s21(p, p.resonant_freq - offsets)
        np.testing.assert_allclose(plus, np.conj(minus), rtol=0, atol=1e-14)

    def test_environment_removed_points_form_circle(self):
        p = make_params(amplitude=0.8, electric_delay=40e-9, phase_offset=0.7,
                        fano_asymmetry=0.25, internal_loss=8e-7, coupling_loss=1.7e-6)
        freqs = np.linspace(p.resonant_freq * (1 - 2e-5), p.resonant_freq * (1 + 2e-5), 801)
        env = p.amplitude * np.exp(1j * (2 * np.pi * freqs * p.electric_delay
                                         + p.phase_offset))
        z = eval_linear_s21(p, freqs) / env
        center, radius = fit_circle(z)
        deviation = np.max(np.abs(np.abs(z - center) - radius))
        assert deviation < 1e-10
        expected_diameter = p.coupling_loss / p.total_loss
        assert 2 * radius == pytest.approx(expected_diameter, rel=1e-9)

    def test_rejects_nonfinite_frequencies(self):
        with pytest.raises(ParameterError):
            eval_linear_s21(make_params(), [np.nan, 5e9])


class TestDerivedQuantities:
    def test_loaded_linewidth_direct_product(self):
        assert loaded_linewidth(make_params()) == pytest.approx(10e3)

    def test_loaded_linewidth_coupling_dominated(self):
        p = make_params(internal_loss=1e-12, coupling_loss=1e-6)
        assert loaded_linewidth(p) == pytest.approx(5e9 * 1e-6, rel=1e-5)

    def test_loaded_linewidth_worked_value(self):
        p = make_params(resonant_freq=4.2e9, internal_loss=5e-7, coupling_loss=1e-6)
        assert loaded_linewidth(p) == pytest.approx(6.3e3, rel=1e-12)

    def test_qc_correction_identity_at_zero_asymmetry(self):
        p = make_params(coupling_loss=1e-6)
        assert p.q_coupling == pytest.approx(1e6)
        assert raw_qc(p) == pytest.approx(1e6)

    def test_qc_raw_to_corrected_conversion(self):
        p = make_params(fano_asymmetry=0.3)
        assert raw_qc(p) * math.cos(0.3) == pytest.approx(p.q_coupling)

    def test_thermal_factor_at_base_temperature(self):
        arg = PLANCK * 5e9 / (2 * BOLTZMANN * 0.010)
        assert arg == pytest.approx(12.0, abs=0.01)
        factor = thermal_tanh_factor(5e9, 0.010)
        assert 0 < 1.0 - factor < 1e-10


class TestDomainValidation:
    def test_rejects_zero_amplitude(self):
        with pytest.raises(ParameterError):
            make_params(amplitude=0.0)

    @pytest.mark.parametrize("field", ["internal_loss", "coupling_loss"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-6, np.nan])
    def test_rejects_losses_outside_unit_interval(self, field, value):
        with pytest.raises(ParameterError):
            make_params(**{field: value})

    def test_rejects_degenerate_asymmetry(self):
        with pytest.raises(ParameterError):
            make_params(fano_asymmetry=np.pi / 2)

    def test_trace_requires_increasing_frequencies(self):
        freqs = np.linspace(1e9, 2e9, 16)
        s21 = np.ones(16, dtype=complex)
        bad = freqs.copy()
        bad[5] = bad[4]
        with pytest.raises(ParameterError):
            FrequencyTrace(freqs=bad, s21=s21)

    def test_trace_requires_finite_s21(self):
        freqs = np.linspace(1e9, 2e9, 16)
        s21 = np.ones(16, dtype=complex)
        s21[3] = np.nan
        with pytest.raises(ParameterError):
            FrequencyTrace(freqs=freqs, s21=s21)

    def test_trace_requires_min_length(self):
        with pytest.raises(ParameterError):
            FrequencyTrace(freqs=np.linspace(1e9, 2e9, 5), s21=np.ones(5, dtype=complex))

    def test_trace_requires_positive_temperature(self):
        freqs = np.linspace(1e9, 2e9, 16)
        with pytest.raises(ParameterError):
            FrequencyTrace(freqs=freqs, s21=np.ones(16, dtype=complex), temperature=0.0)

    def test_trace_arrays_are_frozen(self):
        trace = FrequencyTrace(freqs=np.linspace(1e9, 2e9, 16),
                               s21=np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            trace.freqs[0] = 0.0
