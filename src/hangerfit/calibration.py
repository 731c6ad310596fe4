"""Drive-power calibration: dBm through the attenuation chain to photons.

The attenuation between the instrument and the device is treated as a
single flat scalar in dB per trace.  The mean intra-resonator photon
number for a hanger resonator driven at resonance is

    n = (2*P_in/(hbar*omega_r**2)) * delta_c/(delta_c + delta_i)**2

with ``omega_r = 2*pi*f_r`` (Bruno et al., Appl. Phys. Lett. 106, 182601
(2015)).  The same number falls out of the steady-state drive-response
equation in :mod:`hangerfit.duffing` when both nonlinear rates vanish,
which pins the photon-flux normalization ``|a_in|^2 = P_in/(h*f_r)``.
"""

from __future__ import annotations

import math

from .constants import HBAR, PLANCK, TWO_PI
from .errors import ParameterError
from .model import LinearParams

__all__ = [
    "dbm_to_watts",
    "input_photon_flux",
    "mean_photon_number",
]


def dbm_to_watts(power_dbm: float) -> float:
    """Convert dBm to watts: 1e-3 * 10**(p/10)."""
    if not math.isfinite(power_dbm):
        raise ParameterError("power in dBm must be finite")
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def input_photon_flux(power_w: float, f_r: float) -> float:
    """Incoming photon flux |a_in|^2 = P_in/(h*f_r) in photons/s."""
    if power_w < 0:
        raise ParameterError("power must be >= 0")
    if f_r <= 0:
        raise ParameterError("f_r must be > 0")
    return power_w / (PLANCK * f_r)


def mean_photon_number(power_w: float, p: LinearParams) -> float:
    """Mean intra-resonator photon number at resonance for drive power P_in.

    Linear in ``P_in``; at fixed ``delta_i`` it is maximized at critical
    coupling ``delta_c = delta_i``.
    """
    if power_w < 0:
        raise ParameterError("power must be >= 0")
    omega_r = TWO_PI * p.resonant_freq
    return (2.0 * power_w / (HBAR * omega_r**2)) * p.coupling_loss / p.total_loss**2
