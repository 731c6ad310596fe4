"""Linear line-shape fitting, and the least-squares core of every fit.

:func:`_solve` is the one least-squares core of all three fits (this
module's :func:`fit_linear`, :func:`hangerfit.duffing.fit_nonlinear` and
:func:`hangerfit.tls.fit_tls`): a projected Levenberg-Marquardt solve in
numpy alone, in unit-scaled variables with an exact Jacobian, one evaluation
budget, one failure policy and standard errors from the Jacobian covariance.
Each fit hands it one evaluator, which returns the residuals at a point and
a function that builds the Jacobian at that point from the evaluation's own
intermediates; the solver builds it only where it needs it.  Each solve
stops at its cost's rounding floor: once the linear model says less than
:data:`_FLOOR` of the cost is left to gain, rounding in the model (``exp``
of phases up to ~3000 rad, the cubic's roots) outweighs that gain, and one
trial that disagrees with the model ends the solve.
:func:`_fit_line_shape` is the line-shape work of the first two: it needs
p + 3 points for p parameters, raises :class:`SingularJacobianError` on a
constant trace, references the phase to the window centre and reports.
:func:`_line_shape` is the hanger line shape both fits evaluate.

Every caller shares one noise estimate (:func:`_noise_sigma`) and one dip
locator (:func:`_dip_index`).  Narrowing the fit window to the dip is the
caller's step (``hangerfit fit-linear --window``); its estimate seeds the fit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

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
    loaded_linewidth,
    normalized_detuning,
    raw_qc,
)

__all__ = [
    "FitReport",
    "estimate_initial",
    "fit_linear",
]

# Fraction of points on each side of the window treated as off-resonant
# baseline when estimating the amplitude and the cable delay.
_WING_FRACTION = 0.10

# Dips shallower than 3 sigma of the noise are not resonances.
_MIN_DIP_SIGMA = 3.0


@dataclass(frozen=True)
class FitReport:
    """Result of a parameter fit.

    ``diagnostics`` flags: ``nonlinear_suspected`` (a linear fit left
    structured residuals above the noise: their lag-1 autocorrelation is
    above 0.5 and their rms above 3 sigma of the trace's noise; ``fit-sweep
    --exclude-nonlinear-powers`` leaves such powers out of the TLS fit),
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


def _wing_indices(n: int) -> np.ndarray:
    k = max(3, int(round(_WING_FRACTION * n)))
    return np.concatenate([np.arange(k), np.arange(n - k, n)])


def _noise_sigma(s21: np.ndarray) -> float:
    """Per-quadrature noise sigma: the MAD of the second differences of the
    real and imaginary parts over sqrt(6), in which a smooth background
    (cable delay, Fano slope, the line shape off its steep core) cancels."""
    d2 = np.diff(s21, 2)
    parts = np.concatenate([d2.real, d2.imag])
    return 1.4826 * float(np.median(np.abs(parts - np.median(parts)))) / math.sqrt(6.0)


def _dip_index(mag: np.ndarray) -> int:
    """Index of the dip in ``mag``: an edge-padded moving average places it,
    so no single noisy point and no end poses as one; the raw minimum within
    one kernel of that place is the answer."""
    n = mag.size
    kernel = min(5, n // 4 * 2 + 1)
    padded = np.pad(mag, kernel // 2, mode="edge")
    center = int(np.argmin(np.convolve(padded, np.ones(kernel) / kernel, mode="valid")))
    lo, hi = max(center - kernel, 0), min(center + kernel + 1, n)
    return lo + int(np.argmin(mag[lo:hi]))


def estimate_initial(trace: FrequencyTrace) -> LinearParams:
    """Heuristic starting point for :func:`fit_linear`.

    The guess locates the dip, reads the loaded linewidth from the
    full-width-half-depth of |S21|^2, and splits the losses from the dip
    depth.  The off-resonant wings give only the baseline amplitude and the
    electric delay (their phase, with a 1/detuning term so the resonance's
    own wing phase does not leak into the delay).

    Raises
    ------
    NoResonanceError
        If no dip at least 3 sigma below the baseline median exists.
    """
    return _estimate_initial(trace, _noise_sigma(trace.s21))


def _estimate_initial(trace: FrequencyTrace, sigma: float) -> LinearParams:
    """:func:`estimate_initial` with the trace's noise sigma already known."""
    freqs = trace.freqs
    mag = np.abs(trace.s21)
    n = mag.size
    wings = _wing_indices(n)

    baseline = float(np.median(mag[wings]))
    if baseline <= 0:
        raise NoResonanceError("baseline magnitude is zero")
    dip_idx = _dip_index(mag)
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

# Iteration budget of every fit: :func:`_solve` stops after this many times
# (fit parameters + 1) residual evaluations.
_MAX_ITERATIONS = 200

# Relative cost decrease, relative step and projected gradient at which
# :func:`_solve` stops.
_TOLERANCE = 1e-14

# Gauss-Newton gain, relative to the cost, at or below which :func:`_solve`
# treats a point as settled at the cost's rounding floor.
_FLOOR = 1e-12


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


def _fit_variables(x: np.ndarray, f_center: float) -> np.ndarray:
    """Line-shape vector ``x`` with the phase at the window centre (the raw
    offset compensates 2*pi*f*t_d at carrier f, an extremely narrow valley);
    inverse of :func:`_params_at`."""
    x = x.copy()
    x[2] = x[2] + TWO_PI * f_center * x[1]
    return x


def _params_at(x: np.ndarray, f_center: float, make_params):
    """Parameters at centred vector ``x`` (see :func:`_fit_variables`)."""
    x = x.copy()
    x[2] = math.remainder(x[2] - TWO_PI * f_center * x[1], TWO_PI)
    return make_params(x)


def _detuning_derivatives(p: LinearParams, freqs: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Derivatives of the normalized detuning ``dt`` w.r.t. (f_r, delta_i,
    delta_c), shape (3, N)."""
    total = p.total_loss
    d_loss = -dt / total
    return np.stack([-freqs / (p.resonant_freq**2 * total), d_loss, d_loss])


def _line_shape(p: LinearParams, freqs: np.ndarray, denom: np.ndarray, d_denom):
    """A hanger line shape and the Jacobian of its stacked real/imaginary parts.

    The line shape is ``env*(1 - D*exp(i*alpha_f)/denom)`` with ``env`` as in
    :func:`~hangerfit.model.eval_linear_s21` and ``D = delta_c/(delta_i +
    delta_c)``; ``denom`` is ``1 + 2i*dt`` for the linear model.  Returns
    ``(s21, jacobian)``: ``jacobian(f_center)`` builds, from this
    evaluation's envelope, denominator and S21, the (2N, 4 + len(d_denom()))
    Jacobian whose columns follow the fit vector (amplitude,
    electric_delay, phase at ``f_center``, fano_asymmetry, resonant_freq,
    internal_loss, coupling_loss, ...).  Rows of ``d_denom()`` are the
    derivatives of ``denom`` w.r.t. resonant_freq, internal_loss,
    coupling_loss and then any further fit parameter, which must enter
    through ``denom`` alone.
    """
    total = p.total_loss
    depth = p.coupling_loss / total
    env = p.amplitude * np.exp(1j * (TWO_PI * freqs * p.electric_delay + p.phase_offset))
    rotation = np.exp(1j * p.fano_asymmetry)
    s21 = env * (1.0 - depth * rotation / denom)

    def jacobian(f_center: float) -> np.ndarray:
        tilt = rotation / denom
        resonance = env * depth * tilt
        rows = d_denom()
        cols = np.empty((freqs.size, 4 + rows.shape[0]), dtype=complex)
        cols[:, 0] = s21 / p.amplitude
        cols[:, 1] = 1j * TWO_PI * (freqs - f_center) * s21
        cols[:, 2] = 1j * s21
        cols[:, 3] = -1j * resonance
        cols[:, 4:] = (resonance / denom * rows).T
        # The depth D depends on the two losses: dD/d(delta_i) = -D/total and
        # dD/d(delta_c) = delta_i/total**2.
        cols[:, 5] += env * tilt * (depth / total)
        cols[:, 6] -= env * tilt * (p.internal_loss / total**2)
        return np.concatenate([cols.real, cols.imag])

    return s21, jacobian


def _linear_line_shape(p: LinearParams, freqs: np.ndarray):
    """The linear model as a :func:`_line_shape`: ``(s21, jacobian)``."""
    dt = normalized_detuning(p, freqs)
    return _line_shape(p, freqs, 1.0 + 2j * dt,
                       lambda: 2j * _detuning_derivatives(p, freqs, dt))


def _residual_autocorr(resid: np.ndarray) -> float:
    power = float(np.sum(np.abs(resid) ** 2))
    if power == 0:
        return 0.0
    return float(np.abs(np.sum(resid[:-1] * np.conj(resid[1:]))) / power)


def _tall_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of ``a``, from the SVD of
    its triangular QR factor: the same values as ``a``'s own SVD, at less
    cost when ``a`` has many more rows than columns."""
    _, sv, vt = np.linalg.svd(np.linalg.qr(a, mode="r"), full_matrices=False)
    return sv, vt


def _rank_cutoff(sv: np.ndarray, shape: tuple[int, int]) -> float:
    """Singular values of a matrix of this shape at or below this are
    rounding noise."""
    return float(sv[0]) * max(shape) * np.finfo(float).eps


def _solve(evaluate, x0: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
           scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The least-squares core of every fit: minimize the residuals from
    ``x0`` within ``bounds``.

    ``evaluate(x)`` returns the residuals at ``x`` and a zero-argument
    function that builds their exact Jacobian at the same ``x``, from that
    evaluation's own intermediates.  The solver calls ``evaluate`` once per
    point it tries and builds the Jacobian only at the start and at each
    accepted point.

    A projected Levenberg-Marquardt solve with Nielsen's damping update
    (Madsen, Nielsen & Tingleff, "Methods for non-linear least squares
    problems", 2004) in the unit-scaled variables ``u = x/scales``, so one
    damping term suits every parameter (raw parameters range from ~1e-8 s
    delays to GHz frequencies).  A variable at a bound whose gradient points
    outward is held there; any other step is clipped to the bounds.  The
    step comes from the SVD of the free columns' triangular QR factor.  The
    solve stops when the cost falls by less than :data:`_TOLERANCE` of
    itself on a good step, the step is below :data:`_TOLERANCE` of the
    variables (tested after the step is taken, as a tiny f_r step matters
    at this tolerance), or the projected gradient is below
    :data:`_TOLERANCE`; or after :data:`_MAX_ITERATIONS` * (parameters + 1)
    evaluations.  A trial point with non-finite residuals counts as a
    failed step.

    It also stops at the cost's rounding floor.  At each accepted point the
    Gauss-Newton gain ``0.5*sum((grad_v/sv)**2)``, over the singular values
    above the covariance's cut-off, is the most the linear model says any
    step can still win.  When it is at most :data:`_FLOOR` of the cost the
    point is settled: the model's rounding noise in the cost (exp of phases
    up to ~3000 rad, the cubic's roots) is then larger than the gain, and
    whether a trial lowers the cost is decided by that noise.  The next
    trial from a settled point ends the solve if its gain ratio (actual
    over predicted reduction) is below 0.25; the trial is kept if it
    lowered the cost and dropped otherwise.  A trial that agrees with the
    model goes on as usual, which keeps exact problems exact.  The last
    point whose Jacobian was built is always the solution.

    Returns ``(x, covariance, residuals, converged)``: the covariance, in
    raw units, is the SVD pseudo-inverse of J^T J times the residual
    variance, so a direction the data does not constrain gets a large but
    finite variance; ``converged`` is False when the budget runs out.
    Raises NonConvergenceError for non-finite residuals at the start or a
    non-finite Jacobian, SingularJacobianError if the Jacobian at the
    solution is zero.
    """
    lower, upper = bounds[0] / scales, bounds[1] / scales
    max_nfev = _MAX_ITERATIONS * (x0.size + 1)

    def scaled(jacobian):
        j = jacobian() * scales
        if not np.all(np.isfinite(j)):
            raise NonConvergenceError("least-squares fit failed: Jacobian is not finite")
        return j

    u = x0 / scales
    r, jacobian = evaluate(x0)
    nfev = 1
    if not np.all(np.isfinite(r)):
        raise NonConvergenceError("least-squares fit failed: residuals are not finite at the start")
    j = scaled(jacobian)
    cost = 0.5 * float(r @ r)
    damping = 1e-3 * float(np.max(np.sum(j**2, axis=0)))
    growth = 2.0
    converged = False
    while not converged and nfev < max_nfev:
        grad = j.T @ r
        free = ~(((u <= lower) & (grad > 0)) | ((u >= upper) & (grad < 0)))
        if np.max(np.abs(grad[free]), initial=0.0) <= _TOLERANCE:
            converged = True
            break
        j_free = j[:, free]
        sv, vt = _tall_svd(j_free)
        grad_v = vt @ grad[free]
        # Settled: the Gauss-Newton gain is within the cost's rounding floor.
        resolved = sv > _rank_cutoff(sv, j_free.shape)
        settled = 0.5 * float(np.sum((grad_v[resolved] / sv[resolved]) ** 2)) <= _FLOOR * cost
        while nfev < max_nfev:
            step = np.zeros_like(u)
            step[free] = -vt.T @ (grad_v / (sv**2 + damping))
            trial = np.clip(u + step, lower, upper)
            step = trial - u
            r_trial, jacobian = evaluate(trial * scales)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            predicted = -float(grad @ step) - 0.5 * float(np.sum((j @ step) ** 2))
            reduction = cost - cost_trial if np.isfinite(cost_trial) else -np.inf
            ratio = reduction / predicted if predicted > 0 else -1.0
            small_step = (float(np.linalg.norm(step))
                          <= _TOLERANCE * (_TOLERANCE + float(np.linalg.norm(trial))))
            if settled and ratio < 0.25:
                # The evaluation cannot resolve what is left to gain: keep
                # the trial only if it lowered the cost, and stop.
                converged = True
                if reduction > 0:
                    u, r, cost = trial, r_trial, cost_trial
                    j = scaled(jacobian)
                break
            if ratio > 0:
                converged = small_step or (reduction < _TOLERANCE * cost and ratio > 0.25)
                u, r, cost = trial, r_trial, cost_trial
                j = scaled(jacobian)
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
                break
            damping *= growth
            growth *= 2.0
            if small_step:
                converged = True
                break

    x = np.clip(u * scales, *bounds)
    if not np.all(np.isfinite(x)):
        raise NonConvergenceError("least-squares fit failed: non-finite solution")
    m, p = j.shape
    s_squared = float(r @ r) / max(m - p, 1)
    sv, vt = _tall_svd(j)
    if sv.size == 0 or sv[0] <= 0.0:
        raise SingularJacobianError("Jacobian is identically zero")
    inv_sv2 = 1.0 / np.maximum(sv, _rank_cutoff(sv, j.shape)) ** 2
    cov = (vt.T * inv_sv2) @ vt * s_squared * np.outer(scales, scales)
    return x, cov, r, converged


def _fit_line_shape(trace: FrequencyTrace, names: list[str], start, to_vector,
                    make_params, bounds: tuple[np.ndarray, np.ndarray], scales_of,
                    line_shape) -> tuple[FitReport, np.ndarray]:
    """Least-squares fit of a hanger line shape, shared by both fits.

    The fit vector, labelled by ``names``, starts with the seven linear
    parameters.  ``start()`` gives the starting parameters after the input
    guards; ``to_vector``/``make_params`` map parameters to vectors and
    back; ``scales_of(x0)`` gives unit scales at the start clipped to
    ``bounds``.  ``line_shape(params, freqs)`` is a :func:`_line_shape`:
    S21 and a function giving the derivative of its stacked real/imaginary
    parts with the phase at a given centre (see :func:`_fit_variables`).
    Each :func:`_solve` evaluation calls it once.

    ``converged`` is False when the evaluation budget runs out.  Returns
    the report, without diagnostics or details, and the complex residuals.
    Raises ParameterError for fewer than p + 3 points, SingularJacobianError
    for a constant trace and NonConvergenceError if the solver fails.
    """
    n_params = len(names)
    if len(trace) < n_params + 3:
        raise ParameterError(f"need >= {n_params + 3} points to fit {n_params} parameters")
    if np.ptp(trace.s21.real) == 0.0 and np.ptp(trace.s21.imag) == 0.0:
        raise SingularJacobianError("trace is constant; nothing to fit")
    lower, upper = bounds
    x0 = np.minimum(np.maximum(to_vector(start()), lower), upper)
    freqs, data = trace.freqs, trace.s21
    f_center = float(np.mean(freqs))

    def evaluate(x):
        s21, jacobian = line_shape(_params_at(x, f_center, make_params), freqs)
        diff = s21 - data
        return np.concatenate([diff.real, diff.imag]), lambda: jacobian(f_center)

    x, cov, resid, converged = _solve(evaluate, _fit_variables(x0, f_center), bounds,
                                      scales_of(x0))
    params = _params_at(x, f_center, make_params)

    # phase_offset = phi_center - 2*pi*f_center*t_d: propagate linearly.
    transform = np.eye(n_params)
    transform[2, 1] = -TWO_PI * f_center
    cov = transform @ cov @ transform.T
    std_errors = {name: float(np.sqrt(max(cov[i, i], 0.0)))
                  for i, name in enumerate(names)}
    n = len(trace)
    report = FitReport(params=params, std_errors=std_errors,
                       residual_rms=float(np.sqrt(np.sum(resid**2) / n)),
                       n_points=n, converged=converged)
    return report, resid[:n] + 1j * resid[n:]


def _line_shape_details(lin: LinearParams) -> dict:
    """Derived scalars every line-shape fit reports."""
    return {"q_i": lin.q_internal, "q_c": lin.q_coupling, "q_c_raw": raw_qc(lin),
            "loaded_linewidth_hz": loaded_linewidth(lin)}


def fit_linear(trace: FrequencyTrace, guess: LinearParams | None = None) -> FitReport:
    """Least-squares fit of the linear hanger model to one trace.

    ``guess`` defaults to :func:`estimate_initial`.  The solve is the shared
    :func:`_fit_line_shape`; ``converged`` is False when the iteration
    budget is exhausted.

    Raises
    ------
    ParameterError
        Fewer than 10 points (p + 3 for the 7 parameters).
    SingularJacobianError
        The trace is constant (checked before the initial estimate).
    NoResonanceError
        Propagated from the initial estimate.
    """
    sigma = _noise_sigma(trace.s21)
    report, resid = _fit_line_shape(
        trace, _PARAM_NAMES,
        lambda: guess if guess is not None else _estimate_initial(trace, sigma),
        _params_to_vector, _vector_to_params, _linear_bounds(trace),
        lambda x0: _linear_scales(x0, trace), _linear_line_shape)
    params = report.params

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
