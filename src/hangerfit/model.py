"""Domain types and the linear response model for hanger-type resonators.

The transmission past a side-coupled (notch/hanger) resonator is modeled as

    S21(f) = A * exp(i*(2*pi*f*t_d + phi))
             * (1 - (delta_c/(delta_c + delta_i)) * exp(i*alpha_f)
                    / (1 + 2i*dt))

with normalized detuning ``dt = (f - f_r) / (f_r*(delta_i + delta_c))``.
``A``, ``t_d`` and ``phi`` describe the measurement environment (cable
amplitude, electric delay, phase offset); ``alpha_f`` tilts the resonance
circle and produces asymmetric (Fano-like) line shapes from impedance
mismatch.  See Khalil et al., J. Appl. Phys. 111, 054510 (2012) and
Probst et al., Rev. Sci. Instrum. 86, 024706 (2015) for the lineage of
this parametrization.

Normalization convention: the detuning is divided by the *full* loaded
linewidth ``kappa_i + kappa_c`` (not its half), so fitted ``delta_i`` and
``delta_c`` are directly ``1/Q_i`` and ``1/Q_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, PLANCK, TWO_PI
from .errors import ParameterError

__all__ = [
    "FrequencyTrace",
    "LinearParams",
    "TlsParams",
    "NonlinearParams",
    "eval_linear_s21",
    "loaded_linewidth",
    "normalized_detuning",
    "raw_qc",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


@dataclass(frozen=True)
class FrequencyTrace:
    """One measured or synthetic complex S21 sweep with drive metadata.

    Attributes
    ----------
    freqs : np.ndarray
        Strictly increasing frequencies in Hz, length >= 8.
    s21 : np.ndarray
        Complex transmission, same length as ``freqs``, finite everywhere.
    instrument_power : float
        Source power at the instrument output, dBm.
    attenuation : float
        Total attenuation between instrument and device, dB (positive = loss).
    temperature : float
        Sample temperature in K.
    label : str
        Free-text identifier, e.g. the resonator name.
    """

    freqs: np.ndarray
    s21: np.ndarray
    instrument_power: float = 0.0
    attenuation: float = 0.0
    temperature: float = 0.010
    label: str = ""

    def __post_init__(self):
        # Copy so freezing the arrays cannot affect caller-owned buffers.
        freqs = np.array(self.freqs, dtype=float, copy=True)
        s21 = np.array(self.s21, dtype=complex, copy=True)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "s21", s21)
        _require(freqs.ndim == 1 and freqs.size >= 8, "need >= 8 frequency points")
        _require(s21.shape == freqs.shape, "freqs and s21 must have equal length")
        _require(np.all(np.isfinite(freqs)), "frequencies must be finite")
        _require(bool(np.all(np.diff(freqs) > 0)), "frequencies must be strictly increasing")
        _require(bool(np.all(np.isfinite(s21))), "s21 must be finite at every point")
        _require(math.isfinite(self.instrument_power), "instrument_power must be finite")
        _require(math.isfinite(self.attenuation) and self.attenuation >= 0,
                 "attenuation must be finite and >= 0")
        _require(self.temperature > 0, "temperature must be > 0")
        freqs.flags.writeable = False
        s21.flags.writeable = False

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True)
class LinearParams:
    """Parameters of the linear hanger line shape.

    ``internal_loss`` and ``coupling_loss`` are ``1/Q_i`` and ``1/Q_c``;
    ``coupling_loss`` is stored as the diameter-corrected value (the raw
    value is :func:`raw_qc`).
    """

    amplitude: float          # dimensionless baseline |S21|, > 0
    electric_delay: float     # s
    phase_offset: float       # rad
    fano_asymmetry: float     # rad, in (-pi/2, pi/2)
    resonant_freq: float      # Hz, > 0
    internal_loss: float      # 1/Q_i, in (0, 1)
    coupling_loss: float      # 1/Q_c, in (0, 1)

    def __post_init__(self):
        _require(math.isfinite(self.amplitude) and self.amplitude > 0,
                 "amplitude must be > 0")
        _require(math.isfinite(self.electric_delay), "electric_delay must be finite")
        _require(math.isfinite(self.phase_offset), "phase_offset must be finite")
        _require(abs(self.fano_asymmetry) < math.pi / 2,
                 "fano_asymmetry must lie in (-pi/2, pi/2)")
        _require(math.isfinite(self.resonant_freq) and self.resonant_freq > 0,
                 "resonant_freq must be > 0")
        for name in ("internal_loss", "coupling_loss"):
            value = getattr(self, name)
            _require(math.isfinite(value) and 0 < value < 1,
                     f"{name} must lie in (0, 1)")

    @property
    def q_internal(self) -> float:
        return 1.0 / self.internal_loss

    @property
    def q_coupling(self) -> float:
        return 1.0 / self.coupling_loss

    @property
    def total_loss(self) -> float:
        return self.internal_loss + self.coupling_loss


@dataclass(frozen=True)
class TlsParams:
    """Two-level-system loss model parameters.

    The power-dependent internal loss is

        delta_i(n) = (1/q_tls) * tanh(h*f_r/(2*k_B*T)) / (1 + n/n_c)**alpha_tls
                     + delta_0

    where ``n`` is the mean resonator photon number.  ``q_tls`` absorbs the
    product of the TLS participation ratio and loss tangent, which are not
    separately resolvable from a power sweep.
    """

    q_tls: float         # > 0 (may be inf for a power-independent device)
    n_c: float           # critical photon number, > 0
    alpha_tls: float     # saturation exponent, in (0, 2]
    delta_0: float       # power-independent residual loss, >= 0
    temperature: float   # K, > 0
    f_r: float           # Hz, > 0

    def __post_init__(self):
        _require(self.q_tls > 0, "q_tls must be > 0")
        _require(math.isfinite(self.n_c) and self.n_c > 0, "n_c must be > 0")
        _require(0 < self.alpha_tls <= 2, "alpha_tls must lie in (0, 2]")
        _require(math.isfinite(self.delta_0) and self.delta_0 >= 0,
                 "delta_0 must be >= 0")
        _require(self.temperature > 0, "temperature must be > 0")
        _require(math.isfinite(self.f_r) and self.f_r > 0, "f_r must be > 0")


@dataclass(frozen=True)
class NonlinearParams:
    """Linear parameters plus Kerr and two-photon-loss rates and the drive.

    ``kerr`` (signed) and ``two_photon`` (>= 0) are per-photon rates stored
    as ordinary frequencies in Hz: the frequency pull at photon number ``n``
    is ``kerr*n`` Hz, the extra loss rate is ``two_photon*n`` Hz.
    ``drive_flux`` is the incoming photon flux |a_in|^2 in photons/s,
    ``P_in/(h*f_r)`` for on-chip power ``P_in``.
    """

    linear: LinearParams
    kerr: float = 0.0        # Hz, signed
    two_photon: float = 0.0  # Hz, >= 0
    drive_flux: float = 0.0  # photons/s, >= 0

    def __post_init__(self):
        _require(isinstance(self.linear, LinearParams), "linear must be LinearParams")
        _require(math.isfinite(self.kerr), "kerr must be finite")
        _require(math.isfinite(self.two_photon) and self.two_photon >= 0,
                 "two_photon must be >= 0")
        _require(math.isfinite(self.drive_flux) and self.drive_flux >= 0,
                 "drive_flux must be >= 0")


def normalized_detuning(p: LinearParams, freqs) -> np.ndarray:
    """Detuning normalized by the full loaded linewidth.

    ``(f - f_r)/(f_r*(delta_i + delta_c))``; the 2*pi factors of the
    angular-frequency form cancel in the ratio.
    """
    f = np.asarray(freqs, dtype=float)
    return (f - p.resonant_freq) / (p.resonant_freq * p.total_loss)


def eval_linear_s21(p: LinearParams, freqs) -> np.ndarray:
    """Evaluate the linear hanger model at the given frequencies (Hz)."""
    f = np.asarray(freqs, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ParameterError("frequencies must be finite")
    dt = normalized_detuning(p, f)
    env = p.amplitude * np.exp(1j * (TWO_PI * f * p.electric_delay + p.phase_offset))
    depth = p.coupling_loss / (p.coupling_loss + p.internal_loss)
    return env * (1.0 - depth * np.exp(1j * p.fano_asymmetry) / (1.0 + 2j * dt))


def loaded_linewidth(p: LinearParams) -> float:
    """Full loaded linewidth ``f_r*(delta_i + delta_c)`` in Hz."""
    return p.resonant_freq * p.total_loss


def raw_qc(p: LinearParams) -> float:
    """Uncorrected coupling quality factor.

    Inverts the fit-time conversion Q_c_corrected = Q_c_raw * cos(alpha_f).
    """
    cos_a = math.cos(p.fano_asymmetry)
    if cos_a <= 0:
        raise ParameterError("asymmetry of +-pi/2 makes the correction degenerate")
    return (1.0 / p.coupling_loss) / cos_a


def thermal_tanh_factor(f_r: float, temperature: float) -> float:
    """TLS thermal saturation factor ``tanh(h*f_r/(2*k_B*T))``."""
    if temperature <= 0:
        raise ParameterError("temperature must be > 0")
    return math.tanh(PLANCK * f_r / (2.0 * BOLTZMANN * temperature))
