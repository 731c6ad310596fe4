"""Linear line-shape fitting: initial estimation and least squares.

The fit minimizes the stacked real/imaginary residuals of the model in
:mod:`hangerfit.model` with a damped (trust-region) least-squares solver
and the exact, analytic Jacobian of the line shape.  Standard errors come
from the Jacobian covariance scaled by the residual variance.

:func:`_fit_line_shape` is the one solver of both line-shape fits, this
module's :func:`fit_linear` and :func:`hangerfit.duffing.fit_nonlinear`
(the linear fit vector plus two rates).  It needs p + 3 points for p
parameters, raises :class:`SingularJacobianError` on a constant trace, and
owns the scaled variables, the solve and the standard errors.

The fit window is the trace as given; narrowing it to the dip is the
caller's step (``hangerfit fit-linear --window``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .constants import TWO_PI
from .errors import (
    NoResonanceError,
    NonConvergenceError,
    ParameterError,
    SingularJacobianError,
)
from .model import (
    FrequencyTrace,
    LinearParams,
    eval_linear_s21,
    loaded_linewidth,
    normalized_detuning,
    raw_qc,
)

__all__ = [
    "FitReport",
    "estimate_initial",
    "fit_linear",
    "covariance_std_errors",
]

# Fraction of points on each side of the window treated as off-resonant
# baseline when estimating amplitude, delay and noise.
_WING_FRACTION = 0.10

# Dips shallower than 3 sigma of the baseline noise are not resonances.
_MIN_DIP_SIGMA = 3.0


@dataclass(frozen=True)
class FitReport:
    """Result of a parameter fit.

    ``diagnostics`` flags: ``nonlinear_suspected`` (structured residuals),
    ``bifurcated`` (a nonlinear fit crossed the multi-root region),
    ``low_snr`` (baseline noise too close to the signal).
    ``details`` carries derived scalars such as ``q_i``, ``q_c`` (diameter
    corrected, equal to ``1/coupling_loss``) and ``q_c_raw``.
    """

    params: object
    std_errors: dict = field(default_factory=dict)
    residual_rms: float = 0.0
    n_points: int = 0
    converged: bool = False
    diagnostics: frozenset = frozenset()
    details: dict = field(default_factory=dict)


def covariance_matrix(jac: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Parameter covariance from a least-squares Jacobian at the solution.

    Uses the SVD pseudo-inverse of J^T J scaled by the residual variance;
    directions the data does not constrain get variances from the rank
    tolerance (large but finite).
    """
    m, p = jac.shape
    dof = max(m - p, 1)
    s_squared = float(np.sum(residuals**2)) / dof
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        raise SingularJacobianError("Jacobian is identically zero")
    tol = sv[0] * max(m, p) * np.finfo(float).eps
    inv_sv2 = 1.0 / np.maximum(sv, tol) ** 2
    return (vt.T * inv_sv2) @ vt * s_squared


def covariance_std_errors(jac: np.ndarray, residuals: np.ndarray,
                          names: list[str]) -> dict:
    """Standard errors (sqrt of the covariance diagonal) keyed by name."""
    if len(names) != jac.shape[1]:
        raise ValueError("one name per column required")
    diag = np.diag(covariance_matrix(jac, residuals))
    return {name: float(np.sqrt(max(c, 0.0))) for name, c in zip(names, diag)}


def _wing_indices(n: int) -> np.ndarray:
    k = max(3, int(round(_WING_FRACTION * n)))
    return np.concatenate([np.arange(k), np.arange(n - k, n)])


def _noise_sigma(mag: np.ndarray, wings: np.ndarray) -> float:
    wing_mag = mag[wings]
    return 1.4826 * float(np.median(np.abs(wing_mag - np.median(wing_mag))))


def estimate_initial(trace: FrequencyTrace) -> LinearParams:
    """Heuristic starting point for :func:`fit_linear`.

    The guess locates the dip, reads the loaded linewidth from the
    full-width-half-depth of |S21|^2, splits the losses from the dip depth,
    and estimates the electric delay from the off-resonant wing phase
    (including a 1/detuning term so the resonance's own wing phase does not
    leak into the delay).

    Raises
    ------
    NoResonanceError
        If no dip at least 3 sigma below the baseline median exists.
    """
    freqs = trace.freqs
    mag = np.abs(trace.s21)
    n = mag.size
    wings = _wing_indices(n)

    baseline = float(np.median(mag[wings]))
    if baseline <= 0:
        raise NoResonanceError("baseline magnitude is zero")
    sigma = _noise_sigma(mag, wings)

    # Light smoothing so single noisy points do not pose as dips.
    kernel = min(5, n // 4 * 2 + 1)
    smooth = np.convolve(mag, np.ones(kernel) / kernel, mode="same") if kernel >= 3 else mag
    dip_idx = int(np.argmin(smooth))
    lo_r, hi_r = max(dip_idx - kernel, 0), min(dip_idx + kernel + 1, n)
    dip_idx = lo_r + int(np.argmin(mag[lo_r:hi_r]))
    dip_mag = float(mag[dip_idx])

    depth = baseline - dip_mag
    if depth < _MIN_DIP_SIGMA * sigma or depth <= 1e-9 * baseline:
        raise NoResonanceError(
            f"deepest point is {depth:.3g} below baseline, "
            f"need > {_MIN_DIP_SIGMA} * sigma = {_MIN_DIP_SIGMA * sigma:.3g}")

    f_r = float(freqs[dip_idx])

    # Full width at half depth of |S21|^2 equals the loaded linewidth.
    half_power = 0.5 * (dip_mag**2 + baseline**2)
    below = mag**2 <= half_power
    lo = dip_idx
    while lo > 0 and below[lo - 1]:
        lo -= 1
    hi = dip_idx
    while hi < n - 1 and below[hi + 1]:
        hi += 1
    width = float(freqs[hi] - freqs[lo])
    min_width = 2.0 * float(np.min(np.diff(freqs)))
    width = max(width, min_width)
    total_loss = width / f_r

    rel_depth = min(max(dip_mag / baseline, 1e-3), 1.0 - 1e-3)
    internal_loss = rel_depth * total_loss
    coupling_loss = (1.0 - rel_depth) * total_loss

    # Wing phase: 2*pi*t_d*f + phi + (resonator tail ~ 1/detuning).
    phase = np.unwrap(np.angle(trace.s21))
    f_mean = float(np.mean(freqs))
    dt_wings = (freqs[wings] - f_r) / (f_r * total_loss)
    design = np.column_stack([
        np.ones(wings.size),
        freqs[wings] - f_mean,
        1.0 / np.where(np.abs(dt_wings) < 0.5, np.sign(dt_wings + 1e-300) * 0.5, dt_wings),
    ])
    coeff, *_ = np.linalg.lstsq(design, phase[wings], rcond=None)
    electric_delay = float(coeff[1]) / TWO_PI
    phase_offset = float(coeff[0]) - TWO_PI * electric_delay * f_mean
    phase_offset = math.remainder(phase_offset, TWO_PI)

    return LinearParams(
        amplitude=baseline,
        electric_delay=electric_delay,
        phase_offset=phase_offset,
        fano_asymmetry=0.0,
        resonant_freq=f_r,
        internal_loss=min(max(internal_loss, 1e-12), 0.5),
        coupling_loss=min(max(coupling_loss, 1e-12), 0.5),
    )


_PARAM_NAMES = ["amplitude", "electric_delay", "phase_offset", "fano_asymmetry",
                "resonant_freq", "internal_loss", "coupling_loss"]

# Iteration budget of a line-shape fit: the solver stops after this many
# times (fit parameters + 1) residual evaluations.
_MAX_ITERATIONS = 200


def _params_to_vector(p: LinearParams) -> np.ndarray:
    return np.array([p.amplitude, p.electric_delay, p.phase_offset,
                     p.fano_asymmetry, p.resonant_freq, p.internal_loss,
                     p.coupling_loss])


def _vector_to_params(x: np.ndarray) -> LinearParams:
    return LinearParams(amplitude=x[0], electric_delay=x[1], phase_offset=x[2],
                        fano_asymmetry=x[3], resonant_freq=x[4],
                        internal_loss=x[5], coupling_loss=x[6])


def _linear_bounds(trace: FrequencyTrace) -> tuple[np.ndarray, np.ndarray]:
    span = float(trace.freqs[-1] - trace.freqs[0])
    f_lo = float(trace.freqs[0]) - 0.25 * span
    f_hi = float(trace.freqs[-1]) + 0.25 * span
    lower = np.array([1e-12, -np.inf, -np.inf, -(np.pi / 2 - 1e-9), f_lo, 1e-12, 1e-12])
    upper = np.array([np.inf, np.inf, np.inf, np.pi / 2 - 1e-9, f_hi,
                      1.0 - 1e-12, 1.0 - 1e-12])
    return lower, upper


def _linear_scales(x0: np.ndarray, trace: FrequencyTrace) -> np.ndarray:
    span = float(trace.freqs[-1] - trace.freqs[0])
    linewidth = max(x0[4] * (x0[5] + x0[6]), span / 100.0)
    return np.array([x0[0], 1.0 / (TWO_PI * span), 1.0, 0.3,
                     linewidth, x0[5], x0[6]])


def _fit_variables(x: np.ndarray, scales: np.ndarray, f_center: float) -> np.ndarray:
    """Fit variables of parameter vector ``x``; inverse of :func:`_params_at`.

    Unit scales make the trust region a ball (raw parameters range from ~1e-8
    s delays to GHz frequencies), and the phase is referenced to the window
    centre (the raw offset compensates 2*pi*f*t_d at carrier f, an extremely
    narrow valley).
    """
    x = x.copy()
    x[2] = x[2] + TWO_PI * f_center * x[1]
    return x / scales


def _params_at(u: np.ndarray, scales: np.ndarray, f_center: float, make_params):
    """Parameters at fit variables ``u`` (see :func:`_fit_variables`)."""
    x = u * scales
    x[2] = math.remainder(x[2] - TWO_PI * f_center * x[1], TWO_PI)
    return make_params(x)


def _detuning_jacobian(p: LinearParams, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized detuning and its derivatives w.r.t. (f_r, delta_i, delta_c).

    Returns ``(dt, d_dt)`` with ``d_dt`` of shape (3, N).
    """
    total = p.total_loss
    dt = normalized_detuning(p, freqs)
    d_loss = -dt / total
    return dt, np.stack([-freqs / (p.resonant_freq**2 * total), d_loss, d_loss])


def _line_shape_jacobian(p: LinearParams, freqs: np.ndarray, f_center: float,
                         denom: np.ndarray, d_denom: np.ndarray) -> np.ndarray:
    """Jacobian of the stacked real/imaginary residuals of a hanger line shape.

    The line shape is ``env*(1 - D*exp(i*alpha_f)/denom)`` with ``env`` as in
    :func:`~hangerfit.model.eval_linear_s21` and ``D = delta_c/(delta_i +
    delta_c)``; ``denom`` is ``1 + 2i*dt`` for the linear model.  The
    columns follow the fit vector (amplitude, electric_delay, phase at
    ``f_center``, fano_asymmetry, resonant_freq, internal_loss,
    coupling_loss, ...).  Rows of ``d_denom`` are the derivatives of
    ``denom`` w.r.t. resonant_freq, internal_loss, coupling_loss and then
    any further fit parameter, which must enter through ``denom`` alone.
    Returns an array of shape (2N, 4 + len(d_denom)).
    """
    total = p.total_loss
    depth = p.coupling_loss / total
    env = p.amplitude * np.exp(1j * (TWO_PI * freqs * p.electric_delay + p.phase_offset))
    tilt = np.exp(1j * p.fano_asymmetry) / denom
    resonance = env * depth * tilt
    s21 = env - resonance
    cols = np.empty((freqs.size, 4 + d_denom.shape[0]), dtype=complex)
    cols[:, 0] = s21 / p.amplitude
    cols[:, 1] = 1j * TWO_PI * (freqs - f_center) * s21
    cols[:, 2] = 1j * s21
    cols[:, 3] = -1j * resonance
    cols[:, 4:] = (resonance / denom * d_denom).T
    # The depth D depends on the two losses: dD/d(delta_i) = -D/total and
    # dD/d(delta_c) = delta_i/total**2.
    cols[:, 5] += env * tilt * (depth / total)
    cols[:, 6] -= env * tilt * (p.internal_loss / total**2)
    return np.concatenate([cols.real, cols.imag])


def _linear_jacobian(p: LinearParams, freqs: np.ndarray, f_center: float) -> np.ndarray:
    """Exact Jacobian of the linear model's stacked residuals w.r.t. its fit vector."""
    dt, d_dt = _detuning_jacobian(p, freqs)
    return _line_shape_jacobian(p, freqs, f_center, 1.0 + 2j * dt, 2j * d_dt)


def _residual_autocorr(resid: np.ndarray) -> float:
    power = float(np.sum(np.abs(resid) ** 2))
    if power == 0:
        return 0.0
    return float(np.abs(np.sum(resid[:-1] * np.conj(resid[1:]))) / power)


def _fit_line_shape(trace: FrequencyTrace, names: list[str], start, to_vector,
                    make_params, bounds: tuple[np.ndarray, np.ndarray], scales_of,
                    model, jacobian) -> tuple[FitReport, np.ndarray]:
    """Least-squares fit of a hanger line shape, shared by both fits.

    The fit vector, labelled by ``names``, starts with the seven linear
    parameters.  ``start()`` gives the starting parameters after the input
    guards; ``to_vector``/``make_params`` map parameters to vectors and
    back; ``scales_of(x0)`` gives unit scales at the start clipped to
    ``bounds``.  ``model(params, freqs)`` is S21 and ``jacobian(params,
    freqs, f_center)`` the derivative of its stacked real/imaginary parts
    with the phase at ``f_center`` (see :func:`_fit_variables`).

    ``converged`` is False when the evaluation budget runs out or the
    solution leaves the domain; the report then holds the start.  Returns
    the report, without diagnostics or details, and the complex residuals.
    Raises ParameterError for fewer than p + 3 points, SingularJacobianError
    for a constant trace and NonConvergenceError if the solver fails.
    """
    n_params = len(names)
    if len(trace) < n_params + 3:
        raise ParameterError(f"need >= {n_params + 3} points to fit {n_params} parameters")
    if np.ptp(trace.s21.real) == 0.0 and np.ptp(trace.s21.imag) == 0.0:
        raise SingularJacobianError("trace is constant; nothing to fit")
    guess = start()

    lower, upper = bounds
    x0 = np.minimum(np.maximum(to_vector(guess), lower), upper)
    scales = scales_of(x0)
    freqs, data = trace.freqs, trace.s21
    f_center = float(np.mean(freqs))

    def residuals(u):
        diff = model(_params_at(u, scales, f_center, make_params), freqs) - data
        return np.concatenate([diff.real, diff.imag])

    def scaled_jacobian(u):
        return jacobian(_params_at(u, scales, f_center, make_params), freqs, f_center) * scales

    max_nfev = _MAX_ITERATIONS * (n_params + 1)
    result = least_squares(residuals, _fit_variables(x0, scales, f_center),
                           jac=scaled_jacobian, bounds=(lower / scales, upper / scales),
                           method="trf", ftol=1e-14, xtol=1e-14, gtol=1e-14,
                           max_nfev=max_nfev)
    if result.status < 0 or not np.all(np.isfinite(result.x)):
        raise NonConvergenceError(f"line-shape fit failed: {result.message}")

    try:
        params, in_domain = _params_at(result.x, scales, f_center, make_params), True
    except ParameterError:
        params, in_domain = guess, False
    converged = bool(result.status > 0 and result.nfev < max_nfev and in_domain)

    cov = covariance_matrix(result.jac, result.fun) * np.outer(scales, scales)
    # phase_offset = phi_center - 2*pi*f_center*t_d: propagate linearly.
    transform = np.eye(n_params)
    transform[2, 1] = -TWO_PI * f_center
    cov = transform @ cov @ transform.T
    std_errors = {name: float(np.sqrt(max(cov[i, i], 0.0)))
                  for i, name in enumerate(names)}
    n = len(trace)
    report = FitReport(params=params, std_errors=std_errors,
                       residual_rms=float(np.sqrt(np.sum(result.fun**2) / n)),
                       n_points=n, converged=converged)
    return report, result.fun[:n] + 1j * result.fun[n:]


def _line_shape_details(lin: LinearParams) -> dict:
    """Derived scalars every line-shape fit reports."""
    return {"q_i": lin.q_internal, "q_c": lin.q_coupling, "q_c_raw": raw_qc(lin),
            "loaded_linewidth_hz": loaded_linewidth(lin)}


def fit_linear(trace: FrequencyTrace, guess: LinearParams | None = None) -> FitReport:
    """Least-squares fit of the linear hanger model to one trace.

    ``guess`` defaults to :func:`estimate_initial`.  The solve is the shared
    :func:`_fit_line_shape`; ``converged`` is False when the iteration
    budget is exhausted or the solution sits outside the parameter domain.

    Raises
    ------
    ParameterError
        Fewer than 10 points (p + 3 for the 7 parameters).
    SingularJacobianError
        The trace is constant (checked before the initial estimate).
    NoResonanceError
        Propagated from the initial estimate.
    """
    report, resid = _fit_line_shape(
        trace, _PARAM_NAMES, lambda: guess if guess is not None else estimate_initial(trace),
        _params_to_vector, _vector_to_params, _linear_bounds(trace),
        lambda x0: _linear_scales(x0, trace), eval_linear_s21, _linear_jacobian)
    params = report.params

    sigma = _noise_sigma(np.abs(trace.s21), _wing_indices(len(trace)))
    snr = params.amplitude / sigma if sigma > 0 else np.inf
    autocorr = _residual_autocorr(resid)

    diagnostics = set()
    if snr < 10.0:
        diagnostics.add("low_snr")
    if autocorr > 0.5 and report.residual_rms > 3.0 * max(sigma, 1e-16):
        diagnostics.add("nonlinear_suspected")

    details = {**_line_shape_details(params), "snr": float(snr),
               "residual_autocorr_lag1": autocorr}
    return dataclasses.replace(report, diagnostics=frozenset(diagnostics), details=details)
