"""Power-dependent two-level-system (TLS) loss model and its fit.

The internal loss of a resonator versus mean photon number n follows the
saturable TLS form (Phillips, J. Low Temp. Phys. 7, 351 (1972); see also
Wang et al., Appl. Phys. Lett. 95, 233508 (2009) for the phenomenological
exponent):

    delta_i(n) = (1/q_tls) * tanh(h*f_r/(2*k_B*T)) / (1 + n/n_c)**alpha_tls
                 + delta_0

Fits run on log10(delta_i) residuals: sweeps span many decades in photon
number and loss, and linear-space residuals would let the lossiest points
dominate.  An optional two-photon term ``two_photon*n/f_r`` models loss
that *grows* with photon number.  The solve is the package's one
least-squares core (``linearfit._solve``, on a stack of one); each
evaluation gives the log10 residuals and builds their closed-form Jacobian
from the same model terms (:func:`_tls_loss`).  Like the line-shape fits, a
fit that runs out of its evaluation budget reports ``converged=False``
rather than raising.
"""

from __future__ import annotations

import numpy as np

from .errors import HangerFitError, InsufficientSpanError, ParameterError
from .linearfit import FitReport, _solve
from .model import TlsParams, thermal_tanh_factor

__all__ = ["eval_tls_loss", "eval_combined_loss", "fit_tls"]


def eval_tls_loss(t: TlsParams, photon_number) -> np.ndarray | float:
    """TLS internal loss delta_i at mean photon number(s) n >= 0."""
    n = np.asarray(photon_number, dtype=float)
    if np.any(n < 0):
        raise ParameterError("photon number must be >= 0")
    tanh_factor = thermal_tanh_factor(t.f_r, t.temperature)
    loss = (1.0 / t.q_tls) * tanh_factor / (1.0 + n / t.n_c) ** t.alpha_tls + t.delta_0
    return loss if loss.ndim else float(loss)


def eval_combined_loss(t: TlsParams, two_photon: float, photon_number) -> np.ndarray | float:
    """TLS loss plus the two-photon contribution ``two_photon*n/f_r``.

    ``two_photon`` is an ordinary frequency in Hz, so the ratio against
    ``f_r`` needs no 2*pi.
    """
    if two_photon < 0:
        raise ParameterError("two_photon must be >= 0")
    n = np.asarray(photon_number, dtype=float)
    loss = eval_tls_loss(t, n) + two_photon * n / t.f_r
    return loss if np.ndim(loss) else float(loss)


_LN10 = float(np.log(10.0))


def _tls_loss(x: np.ndarray, n: np.ndarray, tanh_factor: float, f_r: float):
    """Loss at fit vector ``x`` (TLS amplitude, log10 n_c, alpha, delta_0 and,
    when present, the two-photon rate), floored at 1e-300, and a zero-argument
    function for the exact Jacobian of its log10: column j is d(loss)/dx_j
    over ln10*loss."""
    tls_amp, log10_nc, alpha, delta_0 = x[:4]
    ratio = n / 10.0**log10_nc
    power = (1.0 + ratio) ** alpha
    loss = tls_amp * tanh_factor / power + delta_0
    if x.size > 4:
        loss = loss + x[4] * n / f_r
    loss = np.maximum(loss, 1e-300)

    def jacobian():
        shape = tanh_factor / power
        tls = tls_amp * shape
        columns = [shape, _LN10 * alpha * tls * ratio / (1.0 + ratio),
                   -tls * np.log1p(ratio), np.ones(n.size)]
        if x.size > 4:
            columns.append(n / f_r)
        return np.column_stack(columns) / (_LN10 * loss)[:, None]

    return loss, jacobian


def _tls_start(n: np.ndarray, loss: np.ndarray, tanh_factor: float, f_r: float,
               include_two_photon: bool) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Starting vector, bounds and unit scales of the TLS fit."""
    order = np.argsort(n)
    n_sorted, loss_sorted = n[order], loss[order]
    # High-power tail approximates the power-independent floor; the
    # lowest-power loss (not the largest, which may be a two-photon upturn)
    # gives the TLS amplitude.
    delta_0 = 0.8 * float(np.min(loss))
    amp = max((float(loss_sorted[0]) - delta_0) / tanh_factor, 1e-12)
    # Knee: photon number where the TLS part has dropped to half its
    # amplitude, just before the first point at or below half; a two-photon
    # upturn may rise above half again at the highest powers.
    half = delta_0 + 0.5 * amp * tanh_factor
    below = loss_sorted <= half
    if below.any() and not below.all():
        idx = max(int(np.argmax(below)), 1)
        n_c = float(np.sqrt(max(n_sorted[idx - 1], 1e-12) * max(n_sorted[idx], 1e-12)))
    else:
        n_c = float(np.sqrt(max(n_sorted[0], 1e-3) * n_sorted[-1]))
    x0 = [min(amp, 0.99), np.log10(min(max(n_c, 1e-6), 1e15)), 0.5,
          min(max(delta_0, 0.0), 0.99)]
    lower = [0.0, -6.0, 1e-6, 0.0]
    upper = [1.0, 16.0, 2.0, 1.0]
    scales = [max(x0[0], 1e-9), 1.0, 0.3, max(x0[3], 1e-9)]
    if include_two_photon:
        # The upturn above the floor at the highest power.
        x0.append(max((float(loss_sorted[-1]) - float(np.min(loss))) * f_r / n_sorted[-1], 1e-3))
        lower.append(0.0)
        upper.append(1e12)
        scales.append(max(float(np.max(loss)) * f_r / max(np.max(n), 1.0), 1e-3))
    return (np.array(x0, dtype=float), (np.array(lower), np.array(upper)),
            np.array(scales, dtype=float))


def fit_tls(photon_numbers, losses, temperature: float, f_r: float,
            include_two_photon: bool = False) -> FitReport:
    """Fit the TLS model to (photon number, internal loss) points.

    Parameters
    ----------
    photon_numbers, losses : array-like
        Paired mean photon numbers and measured ``delta_i`` values.
    temperature : float
        Sample temperature in K (fixed, not fitted).
    f_r : float
        Resonance frequency in Hz (fixed, not fitted).
    include_two_photon : bool
        Also fit a non-negative two-photon loss rate (Hz).

    Returns
    -------
    FitReport
        ``params`` is a :class:`TlsParams`; when ``include_two_photon`` is
        set the fitted rate appears in ``details['two_photon_hz']``.  The
        raw TLS amplitude ``1/q_tls`` and its standard error are reported in
        ``details`` so a power-independent device can be recognized as
        "amplitude consistent with zero" without dividing by it.
        ``converged`` is False when the evaluation budget runs out.

    Raises
    ------
    InsufficientSpanError
        Fewer than 6 points or less than 3 decades of photon-number span.
    NonConvergenceError
        The solver failed outright.  A fit that runs out of its evaluation
        budget is not an error: it reports ``converged=False``.
    """
    n = np.asarray(photon_numbers, dtype=float)
    loss = np.asarray(losses, dtype=float)
    if n.shape != loss.shape or n.ndim != 1:
        raise ParameterError("photon_numbers and losses must be 1-d and paired")
    if np.any(n < 0) or np.any(loss <= 0) or not np.all(np.isfinite(n)):
        raise ParameterError("photon numbers must be >= 0 and losses > 0")
    if n.size < 6:
        raise InsufficientSpanError(f"need >= 6 points, got {n.size}")
    positive = n[n > 0]
    span = np.max(positive) / np.min(positive) if positive.size else 0.0
    if span < 1e3:
        raise InsufficientSpanError(
            f"photon numbers span {np.log10(span) if span > 0 else 0:.2f} decades, need >= 3")

    tanh_factor = thermal_tanh_factor(f_r, temperature)
    log_loss = np.log10(loss)

    def evaluate(x, rows):
        model, jacobian = _tls_loss(x[0], n, tanh_factor, f_r)
        return (np.log10(model) - log_loss)[None], lambda sel: jacobian()[None]

    x0, (lower, upper), scales = _tls_start(n, loss, tanh_factor, f_r, include_two_photon)
    solution, = _solve(evaluate, x0[None], (lower[None], upper[None]), scales[None])
    if isinstance(solution, HangerFitError):
        raise solution
    x_fit, resid, converged = solution.x, solution.residuals, solution.converged
    raw_errors = [float(np.sqrt(max(c, 0.0))) for c in np.diag(solution.covariance)]

    tls_amp, log10_nc, alpha, delta_0 = x_fit[:4]
    n_c = 10.0**log10_nc
    q_tls = 1.0 / tls_amp if tls_amp > 0 else np.inf
    params = TlsParams(q_tls=q_tls, n_c=n_c, alpha_tls=alpha, delta_0=delta_0,
                       temperature=temperature, f_r=f_r)
    std_errors = {
        "tls_loss": raw_errors[0],
        "q_tls": raw_errors[0] / tls_amp**2 if tls_amp > 0 else np.inf,
        "n_c": _LN10 * n_c * raw_errors[1],
        "alpha_tls": raw_errors[2],
        "delta_0": raw_errors[3],
    }
    details: dict = {"tls_loss": float(tls_amp), "tanh_factor": tanh_factor}
    if include_two_photon:
        std_errors["two_photon_hz"] = raw_errors[4]
        details["two_photon_hz"] = float(x_fit[4])

    return FitReport(params=params, std_errors=std_errors,
                     residual_rms=float(np.sqrt(np.mean(resid**2))),
                     n_points=int(n.size), converged=converged, details=details)
