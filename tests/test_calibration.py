"""Power calibration: unit conversions and the photon-number formula."""

import numpy as np
import pytest

from hangerfit import (
    LinearParams,
    NonlinearParams,
    dbm_to_watts,
    input_photon_flux,
    mean_photon_number,
    photon_numbers,
)
from hangerfit.constants import PLANCK


def test_dbm_definition():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(-30.0) == pytest.approx(1e-6)


def test_attenuation_chain_74_db():
    # 0 dBm at the instrument through 74 dB of attenuation.
    assert dbm_to_watts(0.0 - 74.0) == pytest.approx(3.981e-11, rel=1e-3)


def test_flux_zero_power():
    assert input_photon_flux(0.0, 5e9) == 0.0


def test_flux_single_photon_per_second():
    assert input_photon_flux(PLANCK * 5e9, 5e9) == pytest.approx(1.0)


def test_flux_worked_value():
    assert input_photon_flux(1e-15, 5e9) == pytest.approx(3.018e8, rel=1e-3)


def test_mean_photon_number_worked_value(base_linear):
    p = LinearParams(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                     fano_asymmetry=0.0, resonant_freq=5e9,
                     internal_loss=1e-6, coupling_loss=1e-6)
    assert mean_photon_number(0.0, p) == 0.0
    assert mean_photon_number(1e-15, p) == pytest.approx(4.804e3, rel=1e-3)


def test_mean_photon_number_loss_ratio_scaling():
    kwargs = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9, coupling_loss=1e-6)
    matched = LinearParams(internal_loss=1e-6, **kwargs)
    doubled = LinearParams(internal_loss=2e-6, **kwargs)
    ratio = mean_photon_number(1e-15, doubled) / mean_photon_number(1e-15, matched)
    assert ratio == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_mean_photon_number_linear_in_power(base_linear):
    n1 = mean_photon_number(1e-16, base_linear)
    n2 = mean_photon_number(5e-16, base_linear)
    assert n2 == pytest.approx(5 * n1, rel=1e-12)


def test_mean_photon_number_peaks_at_critical_coupling():
    kwargs = dict(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                  fano_asymmetry=0.0, resonant_freq=5e9, internal_loss=1e-6)
    couplings = np.array([0.2e-6, 0.5e-6, 1e-6, 2e-6, 5e-6])
    values = [mean_photon_number(1e-15, LinearParams(coupling_loss=c, **kwargs))
              for c in couplings]
    assert np.argmax(values) == 2  # at coupling_loss == internal_loss
    assert values[0] < values[1] < values[2]
    assert values[2] > values[3] > values[4]


def test_duffing_solver_reproduces_mean_photon_number():
    """With zero nonlinearity at resonance, both photon-number routes agree."""
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        f_r = rng.uniform(2e9, 9e9)
        delta_i = 10.0 ** rng.uniform(-7.5, -5.0)
        delta_c = 10.0 ** rng.uniform(-7.0, -5.0)
        power_w = 10.0 ** rng.uniform(-18, -12)
        p = LinearParams(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                         fano_asymmetry=0.0, resonant_freq=f_r,
                         internal_loss=delta_i, coupling_loss=delta_c)
        nl = NonlinearParams(linear=p, kerr=0.0, two_photon=0.0,
                             drive_flux=input_photon_flux(power_w, f_r))
        n_duffing = photon_numbers(nl, [f_r], "low")[0]
        n_formula = mean_photon_number(power_w, p)
        assert n_duffing == pytest.approx(n_formula, rel=1e-9)
