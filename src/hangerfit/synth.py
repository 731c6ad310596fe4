"""Synthetic trace generation for round-trip validation and demos.

Noise is IID complex Gaussian per point with equal per-quadrature sigma of
``noise_sigma * amplitude``; no 1/f or phase noise.  All randomness comes
from numpy's PCG64 generator (``numpy.random.default_rng``), integer
seeded, so test vectors are reproducible across platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import dbm_to_watts, input_photon_flux, mean_photon_number
from .duffing import BranchPolicy, eval_nonlinear_s21
from .errors import ParameterError
from .model import FrequencyTrace, LinearParams, NonlinearParams, TlsParams, eval_linear_s21
from .tls import eval_tls_loss

__all__ = [
    "synthesize_linear",
    "synthesize_nonlinear",
    "synthesize_power_sweep",
    "linewidth_grid",
]


def linewidth_grid(p: LinearParams, span_linewidths: float = 10.0,
                   n_points: int = 401) -> np.ndarray:
    """Frequency grid centered on resonance, spanning the given linewidths."""
    half = 0.5 * span_linewidths * p.resonant_freq * p.total_loss
    return np.linspace(p.resonant_freq - half, p.resonant_freq + half, n_points)


def _with_noise(model: np.ndarray, amplitude: float, noise_sigma: float,
                seed) -> np.ndarray:
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    scale = noise_sigma * amplitude
    noise = rng.normal(0.0, 1.0, model.size) + 1j * rng.normal(0.0, 1.0, model.size)
    return model + scale * noise


def synthesize_linear(p: LinearParams, freqs, noise_sigma: float = 0.0,
                      seed=0, *, instrument_power: float = 0.0,
                      attenuation: float = 0.0, temperature: float = 0.010,
                      label: str = "synthetic") -> FrequencyTrace:
    """Linear model trace plus complex Gaussian noise; deterministic per seed."""
    model = eval_linear_s21(p, freqs)
    s21 = _with_noise(model, p.amplitude, noise_sigma, seed)
    return FrequencyTrace(freqs=np.asarray(freqs, dtype=float), s21=s21,
                          instrument_power=instrument_power, attenuation=attenuation,
                          temperature=temperature, label=label)


def synthesize_nonlinear(p: NonlinearParams, freqs,
                         policy: BranchPolicy | str = BranchPolicy.SWEEP_UP,
                         noise_sigma: float = 0.0, seed=0, *,
                         instrument_power: float = 0.0, attenuation: float = 0.0,
                         temperature: float = 0.010,
                         label: str = "synthetic") -> FrequencyTrace:
    """Nonlinear model trace plus complex Gaussian noise.

    Uses the same noise draw order as :func:`synthesize_linear`, so with
    zero Kerr and two-photon rates (or zero drive) the output is identical
    to the linear generator for the same seed.
    """
    model = eval_nonlinear_s21(p, freqs, policy)
    s21 = _with_noise(model, p.linear.amplitude, noise_sigma, seed)
    return FrequencyTrace(freqs=np.asarray(freqs, dtype=float), s21=s21,
                          instrument_power=instrument_power, attenuation=attenuation,
                          temperature=temperature, label=label)


def _self_consistent_photon_number(power_w: float, linear: LinearParams,
                                   tls: TlsParams) -> float:
    """Mean photon number n that solves n = n_bar(P, delta_i(n)).

    ``n_bar`` falls as the internal loss grows and the TLS loss falls as n
    grows, so n_bar at the loss of zero photons and n_bar at ``delta_0``
    bracket the root; bisection in log n closes the bracket to adjacent
    floats.
    """
    n_ref = mean_photon_number(power_w, linear)

    def n_bar(delta_i: float) -> float:
        # n_bar is proportional to delta_c/(delta_i + delta_c)**2.
        return n_ref * (linear.total_loss / (delta_i + linear.coupling_loss)) ** 2

    lo, hi = n_bar(float(eval_tls_loss(tls, 0.0))), n_bar(tls.delta_0)
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return lo
        if n_bar(float(eval_tls_loss(tls, mid))) > mid:
            lo = mid
        else:
            hi = mid


def synthesize_power_sweep(linear: LinearParams, tls: TlsParams, kerr: float,
                           two_photon: float, instrument_powers, attenuation: float,
                           freqs, seed=0, noise_sigma: float = 0.0,
                           policy: BranchPolicy | str = BranchPolicy.SWEEP_UP,
                           label: str = "synthetic") -> list[FrequencyTrace]:
    """One trace per instrument power with TLS-saturating internal loss.

    Per power the internal loss is the TLS model at the mean photon number
    that this same loss produces: n solves n = n_bar(P, delta_i(n)) (the
    ``internal_loss`` of ``linear`` is not used), which is the pair an
    analysis reads back from the fitted loss at each power.  A nonlinear
    trace is generated at the calibrated drive flux.

    Child seeds are derived as ``default_rng([seed, index])`` so each
    power's noise is independent yet reproducible.
    """
    powers = np.asarray(instrument_powers, dtype=float)
    if powers.size and np.any(np.diff(powers) < 0):
        raise ParameterError("instrument powers must be sorted ascending")
    traces = []
    for k, power_dbm in enumerate(powers):
        power_w = dbm_to_watts(float(power_dbm) - attenuation)
        n_bar = _self_consistent_photon_number(power_w, linear, tls)
        delta_i = float(eval_tls_loss(tls, n_bar))
        lin_k = LinearParams(amplitude=linear.amplitude,
                             electric_delay=linear.electric_delay,
                             phase_offset=linear.phase_offset,
                             fano_asymmetry=linear.fano_asymmetry,
                             resonant_freq=linear.resonant_freq,
                             internal_loss=delta_i,
                             coupling_loss=linear.coupling_loss)
        params = NonlinearParams(linear=lin_k, kerr=kerr, two_photon=two_photon,
                                 drive_flux=input_photon_flux(power_w, linear.resonant_freq))
        traces.append(synthesize_nonlinear(
            params, freqs, policy, noise_sigma, seed=[seed, k],
            instrument_power=float(power_dbm), attenuation=attenuation,
            temperature=tls.temperature, label=f"{label}_p{k:02d}"))
    return traces
