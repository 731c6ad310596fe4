"""Kerr / two-photon-loss steady state: cubic solver, line shape, fits.

A driven resonator with a Kerr term (per-photon frequency pull ``kerr``)
and two-photon loss (per-photon loss rate ``two_photon``) has a
steady-state photon number set by a cubic equation; in drive-normalized
form (Yurke & Buks, J. Lightwave Technol. 24, 5054 (2006); Eichler &
Wallraff, EPJ Quantum Technol. 1, 2 (2014)):

    1/2 = nt**3*(xi**2 + eta**2/4) + 2*nt**2*(eta/4 - xi*dt)
          + nt*(1/4 + dt**2)

where ``nt = n/atilde_sq`` is the photon number per unit rescaled drive,
``dt`` the normalized detuning, and

    atilde_sq = kappa_c*|a_in|^2/(kappa_i + kappa_c)**2
    xi  = atilde_sq*K/(kappa_i + kappa_c)
    eta = atilde_sq*G/(kappa_i + kappa_c)

with every rate (kappa, K, G) angular.  With rates stored in Hz the 2*pi
factors cancel inside ``xi`` and ``eta`` but not in ``atilde_sq``, which
therefore carries an explicit 1/(2*pi); this is what makes the photon
number at zero nonlinearity agree exactly with the resonance formula in
:mod:`hangerfit.calibration`.

The transmission then generalizes the linear line shape to

    S21 = env * (1 - depth*exp(i*alpha_f)/(1 + eta*nt + 2i*(dt - xi*nt)))

which reduces to the linear model point-by-point when xi = eta = 0.
Beyond a critical |xi| the cubic has three positive roots and the
response becomes hysteretic; branch selection is a :class:`BranchPolicy`.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .constants import TWO_PI
from .errors import (
    BifurcationUnstableError,
    InsufficientPowersError,
    InternalConsistencyError,
    LowSignalError,
    ParameterError,
)
from .linearfit import (
    _PARAM_NAMES,
    FitReport,
    _detuning_jacobian,
    _fit_line_shape,
    _line_shape_details,
    _line_shape_jacobian,
    _linear_bounds,
    _linear_scales,
    _noise_sigma,
    _params_to_vector,
    _vector_to_params,
    _wing_indices,
)
from .model import (
    FrequencyTrace,
    LinearParams,
    NonlinearParams,
    loaded_linewidth,
    normalized_detuning,
)

__all__ = [
    "BranchPolicy",
    "normalized_drive_params",
    "selected_photon_numbers",
    "eval_nonlinear_s21",
    "photon_numbers",
    "max_photon_number",
    "fit_nonlinear",
    "seed_nonlinear_guess",
    "extract_kerr_two_photon",
    "ellipticity_metric",
    "fit_circle",
]

# Relative root jump (between adjacent grid points, same root count) that
# counts as branch hopping rather than fold-point steepness.
CONTINUITY_THRESHOLD = 0.10


class BranchPolicy(str, enum.Enum):
    """Which root of the photon-number cubic to follow.

    ``low``/``high`` take the smallest/largest positive root everywhere;
    ``sweep_up``/``sweep_down`` emulate a directional frequency sweep by
    continuation (nearest root to the previous point), which reproduces
    hysteresis beyond the bifurcation.
    """

    LOW = "low"
    HIGH = "high"
    SWEEP_UP = "sweep_up"
    SWEEP_DOWN = "sweep_down"

    @classmethod
    def coerce(cls, value) -> "BranchPolicy":
        if isinstance(value, cls):
            return value
        return cls(str(value).replace("-", "_").lower())


def normalized_drive_params(p: NonlinearParams) -> tuple[float, float, float]:
    """Dimensionless drive parameters (xi, eta, atilde_sq).

    All rates enter as angular frequencies; with the stored Hz values this
    reduces to

        atilde_sq = delta_c*drive_flux/(2*pi*f_r*(delta_i + delta_c)**2)
        xi  = atilde_sq*kerr/(f_r*(delta_i + delta_c))
        eta = atilde_sq*two_photon/(f_r*(delta_i + delta_c))
    """
    lin = p.linear
    total = lin.total_loss
    if total <= 0 or not math.isfinite(total):
        raise ParameterError("total linewidth must be positive and finite")
    kappa_hz = lin.resonant_freq * total
    atilde_sq = lin.coupling_loss * p.drive_flux / (TWO_PI * lin.resonant_freq * total**2)
    xi = atilde_sq * p.kerr / kappa_hz
    eta = atilde_sq * p.two_photon / kappa_hz
    return xi, eta, atilde_sq


def _cubic_coefficients(xi: float, eta: float, dtilde: np.ndarray):
    c3 = xi * xi + 0.25 * eta * eta
    c2 = 0.5 * eta - 2.0 * xi * dtilde
    c1 = 0.25 + dtilde * dtilde
    return c3, c2, c1


def _cubic_value(c3, c2, c1, x):
    return ((c3 * x + c2) * x + c1) * x - 0.5


def _newton_polish(c3, c2, c1, roots: np.ndarray, iterations: int = 3) -> np.ndarray:
    x = roots
    for _ in range(iterations):
        f = _cubic_value(c3, c2, c1, x)
        fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.where(np.abs(fp) > 0, f / np.where(fp == 0, 1.0, fp), 0.0)
        x = x - step
    return x


def positive_cubic_roots(xi: float, eta: float, dtilde) -> tuple[np.ndarray, np.ndarray]:
    """All positive real roots of the photon-number cubic, vectorized.

    Parameters are the dimensionless ``xi`` (signed), ``eta`` (>= 0) and an
    array of normalized detunings.  Returns ``(roots, counts)`` where
    ``roots`` has shape (N, 3), ascending and NaN-padded, and ``counts``
    is the number of positive roots per point (1 or 3 away from
    tangencies).
    """
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    dt = np.atleast_1d(np.asarray(dtilde, dtype=float))
    c3, c2, c1 = _cubic_coefficients(xi, eta, dt)
    n = dt.size
    candidates = np.full((n, 3), np.nan)
    any_three = False

    x_lin = 0.5 / c1
    # Below this the cubic term is numerically irrelevant and the far pair
    # of roots is complex (their discriminant is -(xi + eta*dt)^2 <= 0), so
    # Newton from the linear solution captures the only positive root.
    nearly_linear = c3 * x_lin * x_lin <= 1e-8 * c1
    if np.any(nearly_linear):
        candidates[nearly_linear, 0] = x_lin[nearly_linear]

    cubic = ~nearly_linear
    if np.any(cubic):
        c2_c = c2[cubic]
        c1_c = c1[cubic]
        a = c2_c / c3
        b = c1_c / c3
        c = -0.5 / c3
        p = b - a * a / 3.0
        q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
        disc = -4.0 * p**3 - 27.0 * q * q

        sub = np.full((c2_c.size, 3), np.nan)
        three = disc > 0.0
        any_three = bool(np.any(three))
        if any_three:
            p3, q3, a3 = p[three], q[three], a[three]
            r = 2.0 * np.sqrt(-p3 / 3.0)
            arg = np.clip(3.0 * q3 / (p3 * r), -1.0, 1.0)
            theta = np.arccos(arg)
            for k in range(3):
                sub[three, k] = r * np.cos((theta - TWO_PI * k) / 3.0) - a3 / 3.0
        one = ~three
        if np.any(one):
            p1, q1, a1 = p[one], q[one], a[one]
            s = np.sqrt(np.maximum(0.25 * q1 * q1 + p1**3 / 27.0, 0.0))
            w = -0.5 * q1 - np.where(q1 >= 0, 1.0, -1.0) * s
            u = np.cbrt(w)
            with np.errstate(invalid="ignore", divide="ignore"):
                t = np.where(u != 0.0, u - p1 / (3.0 * np.where(u == 0.0, 1.0, u)), 0.0)
            sub[one, 0] = t - a1 / 3.0
        candidates[cubic] = sub

    if any_three:
        candidates = _newton_polish(c3, c2[:, None], c1[:, None], candidates)
        candidates = np.where(candidates > 0.0, candidates, np.nan)
        candidates = np.sort(candidates, axis=1)  # NaN sorts last
    else:
        # Columns 1 and 2 are NaN everywhere: polish column 0 alone.
        first = _newton_polish(c3, c2, c1, candidates[:, 0])
        candidates[:, 0] = np.where(first > 0.0, first, np.nan)
    counts = np.sum(~np.isnan(candidates), axis=1)
    if np.any(counts == 0):
        raise InternalConsistencyError(
            "photon-number cubic returned no positive root; this should be "
            "impossible for eta >= 0")
    return candidates, counts


def selected_photon_numbers(xi: float, eta: float, dtilde,
                            policy: BranchPolicy | str) -> tuple[np.ndarray, np.ndarray]:
    """Per-point selected root of the cubic along a detuning grid.

    Returns ``(ntilde, counts)``.  Sweep policies require the grid to be
    monotonically ordered (ascending); they run a sequential continuation
    along the sweep direction.
    """
    policy = BranchPolicy.coerce(policy)
    dt = np.atleast_1d(np.asarray(dtilde, dtype=float))
    roots, counts = positive_cubic_roots(xi, eta, dt)
    if policy is BranchPolicy.LOW:
        return roots[:, 0].copy(), counts
    if policy is BranchPolicy.HIGH:
        return np.nanmax(roots, axis=1), counts

    if dt.size > 1 and np.any(np.diff(dt) <= 0):
        raise ParameterError("sweep policies require a strictly increasing grid")
    if np.all(counts == 1):
        # Unique root everywhere: all policies coincide, no continuation needed.
        return roots[:, 0].copy(), counts
    order = range(dt.size) if policy is BranchPolicy.SWEEP_UP else range(dt.size - 1, -1, -1)
    selected = np.empty(dt.size)
    prev = None
    for i in order:
        row = roots[i, :counts[i]]
        if prev is None:
            prev = row[0] if policy is BranchPolicy.SWEEP_UP else row[-1]
        else:
            prev = row[int(np.argmin(np.abs(row - prev)))]
        selected[i] = prev
    return selected, counts


def branch_jump_indices(selected: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices where the selected branch jumps away from a fold point.

    A branch hop is a *sudden* discontinuity: a relative step above
    ``CONTINUITY_THRESHOLD`` that also dwarfs the neighboring steps.  The
    selected branch legitimately steepens toward a fold (its slope
    diverges there), but that growth is gradual from one grid point to the
    next; count-change points themselves are the physical fold jumps and
    are excluded with one point of slack.
    """
    if selected.size < 3:
        return np.empty(0, dtype=int)
    rel = np.abs(np.diff(selected)) / np.maximum(np.abs(selected[:-1]), 1e-300)
    fold = np.diff(counts) != 0
    near_fold = fold.copy()
    near_fold[1:] |= fold[:-1]
    near_fold[:-1] |= fold[1:]
    neighbor = np.zeros_like(rel)
    neighbor[1:] = rel[:-1]
    neighbor[:-1] = np.maximum(neighbor[:-1], rel[1:])
    sudden = (rel > CONTINUITY_THRESHOLD) & (rel > 3.0 * neighbor)
    return np.nonzero(sudden & ~near_fold)[0]


def eval_nonlinear_s21(p: NonlinearParams, freqs,
                       policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> np.ndarray:
    """Nonlinear transmission at the given frequencies (Hz)."""
    xi, eta, _ = normalized_drive_params(p)
    lin = p.linear
    f = np.asarray(freqs, dtype=float)
    dt = normalized_detuning(lin, f)
    ntilde, _ = selected_photon_numbers(xi, eta, dt, policy)
    env = lin.amplitude * np.exp(1j * (TWO_PI * f * lin.electric_delay + lin.phase_offset))
    depth = lin.coupling_loss / (lin.coupling_loss + lin.internal_loss)
    denom = 1.0 + eta * ntilde + 2j * (dt - xi * ntilde)
    return env * (1.0 - depth * np.exp(1j * lin.fano_asymmetry) / denom)


def photon_numbers(p: NonlinearParams, freqs,
                   policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> np.ndarray:
    """Physical intra-resonator photon number per frequency point."""
    xi, eta, atilde_sq = normalized_drive_params(p)
    dt = normalized_detuning(p.linear, np.asarray(freqs, dtype=float))
    ntilde, _ = selected_photon_numbers(xi, eta, dt, policy)
    return ntilde * atilde_sq


def max_photon_number(p: NonlinearParams, freqs,
                      policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> float:
    """Maximum selected-branch photon number over the grid."""
    return float(np.max(photon_numbers(p, freqs, policy)))


_NL_PARAM_NAMES = _PARAM_NAMES + ["kerr", "two_photon"]


def _nl_vector(p: NonlinearParams) -> np.ndarray:
    return np.append(_params_to_vector(p.linear), [p.kerr, p.two_photon])


def _nl_params(x: np.ndarray, drive_flux: float) -> NonlinearParams:
    return NonlinearParams(linear=_vector_to_params(x), kerr=x[7],
                           two_photon=max(x[8], 0.0), drive_flux=drive_flux)


def _nl_scales(x0: np.ndarray, trace: FrequencyTrace, drive_flux: float) -> np.ndarray:
    """Linear unit scales, then kerr and two_photon: linewidth / max(2*atilde_sq, 1)."""
    scales = _linear_scales(x0, trace)
    _, _, atilde_sq = normalized_drive_params(_nl_params(x0, drive_flux))
    rate_scale = scales[4] / max(2.0 * atilde_sq, 1.0)
    return np.append(scales, [max(abs(x0[7]), rate_scale), rate_scale])


def seed_nonlinear_guess(trace: FrequencyTrace, linear: LinearParams,
                         drive_flux: float) -> NonlinearParams:
    """Build a nonlinear starting point from a low-power linear fit.

    The Kerr seed comes from the dip-frequency shift relative to the
    linear resonance divided by the on-resonance photon-number estimate.
    """
    base = NonlinearParams(linear=linear, kerr=0.0, two_photon=0.0,
                           drive_flux=drive_flux)
    _, _, atilde_sq = normalized_drive_params(base)
    n_est = 2.0 * atilde_sq
    kerr = 0.0
    if n_est > 0:
        dip_freq = float(trace.freqs[int(np.argmin(np.abs(trace.s21)))])
        kerr = (dip_freq - linear.resonant_freq) / n_est
    return NonlinearParams(linear=linear, kerr=kerr, two_photon=0.0,
                           drive_flux=drive_flux)


def _nonlinear_jacobian(p: NonlinearParams, freqs: np.ndarray, f_center: float,
                        policy: BranchPolicy) -> np.ndarray:
    """Exact Jacobian of the stacked nonlinear residuals w.r.t. the fit vector.

    The columns follow ``_NL_PARAM_NAMES`` with the phase referenced to
    ``f_center``.  With ``g = delta_c*drive_flux/(2*pi*f_r**2*(delta_i +
    delta_c)**3)`` the drive parameters are ``xi = g*kerr`` and ``eta =
    g*two_photon``.  The selected root's derivative follows from the cubic
    ``F(nt; xi, eta, dt) = 0`` by implicit differentiation,
    ``d(nt) = -(F_xi*d(xi) + F_eta*d(eta) + F_dt*d(dt))/F_nt``, which holds
    on whichever branch the policy selected.
    """
    lin = p.linear
    xi, eta, atilde_sq = normalized_drive_params(p)
    dt, d_dt = _detuning_jacobian(lin, freqs)
    nt, _ = selected_photon_numbers(xi, eta, dt, policy)

    total = lin.total_loss
    g = atilde_sq / loaded_linewidth(lin)
    # Rows: resonant_freq, internal_loss, coupling_loss, kerr, two_photon.
    d_g = g * np.array([-2.0 / lin.resonant_freq, -3.0 / total,
                        1.0 / lin.coupling_loss - 3.0 / total, 0.0, 0.0])
    d_xi = p.kerr * d_g
    d_xi[3] = g
    d_eta = p.two_photon * d_g
    d_eta[4] = g
    d_xi, d_eta = d_xi[:, None], d_eta[:, None]
    d_dt = np.concatenate([d_dt, np.zeros((2, dt.size))])

    c3, c2, c1 = _cubic_coefficients(xi, eta, dt)
    nt_sq = nt * nt
    f_nt = (3.0 * c3 * nt + 2.0 * c2) * nt + c1
    f_xi = 2.0 * (xi * nt - dt) * nt_sq
    f_eta = 0.5 * (eta * nt + 1.0) * nt_sq
    f_dt = 2.0 * (dt - xi * nt) * nt
    d_nt = -(f_xi * d_xi + f_eta * d_eta + f_dt * d_dt) / f_nt

    denom = 1.0 + eta * nt + 2j * (dt - xi * nt)
    d_denom = (eta - 2j * xi) * d_nt + nt * (d_eta - 2j * d_xi) + 2j * d_dt
    return _line_shape_jacobian(lin, freqs, f_center, denom, d_denom)


def fit_nonlinear(trace: FrequencyTrace, guess: NonlinearParams,
                  policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> FitReport:
    """Least-squares fit of the nonlinear line shape to one trace.

    The solve is the shared core ``linearfit._fit_line_shape`` on the linear
    fit vector plus ``kerr`` and ``two_photon`` (>= 0).  The drive flux is
    held fixed at ``guess.drive_flux`` (floating it is degenerate with the
    two rates).  Each residual and each Jacobian evaluation solves the
    photon-number cubic once per frequency point; the Jacobian is exact
    (see :func:`_nonlinear_jacobian`).

    Raises
    ------
    ParameterError
        Fewer than 12 points (p + 3 for the 9 parameters).
    SingularJacobianError
        The trace is constant.
    NonConvergenceError
        The optimizer failed outright.
    BifurcationUnstableError
        The selected branch at the solution jumps discontinuously away
        from a fold point (threshold :data:`CONTINUITY_THRESHOLD`).
    """
    policy = BranchPolicy.coerce(policy)
    drive_flux = guess.drive_flux
    lower, upper = _linear_bounds(trace)
    report, _ = _fit_line_shape(
        trace, _NL_PARAM_NAMES, lambda: guess, _nl_vector,
        lambda x: _nl_params(x, drive_flux),
        (np.append(lower, [-np.inf, 0.0]), np.append(upper, [np.inf, np.inf])),
        lambda x0: _nl_scales(x0, trace, drive_flux),
        lambda p, freqs: eval_nonlinear_s21(p, freqs, policy),
        lambda p, freqs, f_center: _nonlinear_jacobian(p, freqs, f_center, policy))
    params, std_errors = report.params, report.std_errors

    xi, eta, atilde_sq = normalized_drive_params(params)
    dt = normalized_detuning(params.linear, trace.freqs)
    ntilde, counts = selected_photon_numbers(xi, eta, dt, policy)
    jumps = branch_jump_indices(ntilde, counts)
    if jumps.size:
        raise BifurcationUnstableError(
            f"selected branch jumps at grid indices {jumps.tolist()}")

    diagnostics = set()
    if np.any(counts == 3):
        diagnostics.add("bifurcated")
    low_sensitivity = (std_errors["kerr"] >= abs(params.kerr)
                       and std_errors["two_photon"] >= abs(params.two_photon))
    if low_sensitivity:
        diagnostics.add("low_snr")

    details = {
        **_line_shape_details(params.linear),
        "xi": float(xi),
        "eta": float(eta),
        "drive_flux": drive_flux,
        "max_photon_number": float(np.max(ntilde * atilde_sq)),
        "photon_number_convention": "max_selected_branch",
    }
    return dataclasses.replace(report, diagnostics=frozenset(diagnostics), details=details)


def extract_kerr_two_photon(per_power_fits: list[FitReport],
                            photon_numbers_per_power) -> tuple[float, float, dict]:
    """Kerr and two-photon rates from per-power fits via origin-constrained slopes.

    For each power the fitted Kerr shift ``kerr*n`` and two-photon rate
    ``two_photon*n`` are regressed (through the origin) against the
    per-fit maximum photon number ``n``; the slopes are the extracted
    rates.  Diagnostics carry slope standard errors and R^2 values.

    Raises
    ------
    InsufficientPowersError
        Fewer than 4 powers.
    """
    n = np.asarray(photon_numbers_per_power, dtype=float)
    if len(per_power_fits) != n.size:
        raise ParameterError("one photon number per fit required")
    if n.size < 4:
        raise InsufficientPowersError(f"need >= 4 powers, got {n.size}")
    if np.any(n <= 0):
        raise ParameterError("photon numbers must be > 0")

    kerr_shift = np.array([fit.params.kerr for fit in per_power_fits]) * n
    tp_rate = np.array([fit.params.two_photon for fit in per_power_fits]) * n
    kerr_shift_err = np.array([fit.std_errors["kerr"] for fit in per_power_fits]) * n
    tp_rate_err = np.array([fit.std_errors["two_photon"] for fit in per_power_fits]) * n

    def through_origin(y, y_err):
        sxx = float(np.sum(n * n))
        slope = float(np.sum(n * y)) / sxx
        resid = y - slope * n
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum(y**2))
        scatter_err = math.sqrt(ss_res / max(n.size - 1, 1) / sxx)
        # Per-fit uncertainties propagate even when the points line up
        # perfectly (the fitted rates are biased-bounded near zero, so the
        # scatter alone can grossly understate the slope uncertainty).
        propagated_err = math.sqrt(float(np.sum((n * y_err) ** 2))) / sxx
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return slope, max(scatter_err, propagated_err), r_squared

    kerr, kerr_err, kerr_r2 = through_origin(kerr_shift, kerr_shift_err)
    two_photon, tp_err, tp_r2 = through_origin(tp_rate, tp_rate_err)
    diagnostics = {
        "kerr_stderr_hz": kerr_err,
        "kerr_r_squared": kerr_r2,
        "two_photon_stderr_hz": tp_err,
        "two_photon_r_squared": tp_r2,
        "n_powers": int(n.size),
        "photon_number_convention": "max_selected_branch",
    }
    return kerr, two_photon, diagnostics


def fit_circle(points: np.ndarray) -> tuple[complex, float]:
    """Algebraic least-squares circle through complex-plane points."""
    z = np.asarray(points, dtype=complex).ravel()
    x, y = z.real, z.imag
    design = np.column_stack([x, y, np.ones(z.size)])
    target = x * x + y * y
    coeff, *_ = np.linalg.lstsq(design, target, rcond=None)
    center = complex(coeff[0] / 2.0, coeff[1] / 2.0)
    radius_sq = coeff[2] + abs(center) ** 2
    if not np.isfinite(radius_sq) or radius_sq <= 0:
        raise LowSignalError("circle fit degenerate")
    return center, math.sqrt(radius_sq)


def ellipticity_metric(trace: FrequencyTrace, linear_fit: LinearParams) -> float:
    """Deviation of the environment-removed trace from a perfect circle.

    Pure Kerr response keeps the resonance circle (only traversal speed
    changes); two-photon loss deforms it toward an ellipse.  Returns
    max radial deviation over the best-fit circle radius.

    Raises
    ------
    LowSignalError
        If the circle radius is below the noise floor.
    """
    env = linear_fit.amplitude * np.exp(
        1j * (TWO_PI * trace.freqs * linear_fit.electric_delay + linear_fit.phase_offset))
    z = trace.s21 / env
    center, radius = fit_circle(z)

    sigma = _noise_sigma(np.abs(z), _wing_indices(z.size))
    if sigma > 0 and radius < 5.0 * sigma:
        raise LowSignalError(
            f"circle radius {radius:.3g} below noise floor {5.0 * sigma:.3g}")
    deviation = np.abs(np.abs(z - center) - radius)
    return float(np.max(deviation) / radius)
