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
    HangerFitError,
    InsufficientPowersError,
    InternalConsistencyError,
    ParameterError,
)
from .linearfit import (
    _PARAM_NAMES,
    FitReport,
    _detuning_derivatives,
    _dip_index,
    _fit_line_shape,
    _line_shape,
    _line_shape_details,
    _linear_bounds,
    _linear_scales,
    _params_to_vector,
    _vector_to_params,
)
from .model import FrequencyTrace, LinearParams, NonlinearParams

__all__ = [
    "BranchPolicy",
    "normalized_drive_params",
    "selected_photon_numbers",
    "eval_nonlinear_s21",
    "photon_numbers",
    "fit_nonlinear",
    "fit_nonlinear_stack",
    "seed_nonlinear_guess",
    "extract_kerr_two_photon",
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
    return _drive_params(lin.resonant_freq, total, lin.coupling_loss, p.kerr, p.two_photon,
                         p.drive_flux)


def _drive_params(f_r, total, coupling, kerr, two_photon, drive_flux):
    """:func:`normalized_drive_params` of scalars, ``total`` the total loss."""
    kappa_hz = f_r * total
    atilde_sq = coupling * drive_flux / (TWO_PI * f_r * total**2)
    return atilde_sq * kerr / kappa_hz, atilde_sq * two_photon / kappa_hz, atilde_sq


def _cubic_coefficients(xi, eta, dtilde: np.ndarray):
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
        x = x - np.divide(f, fp, out=np.zeros_like(f), where=fp != 0)
    return x


def _cubic_roots(c3, c2, c1) -> tuple[np.ndarray, np.ndarray]:
    """All positive real roots of ``c3*x**3 + c2*x**2 + c1*x - 1/2`` at each
    point of coefficient arrays of one broadcast shape S: ``(roots,
    counts)``, roots of shape S + (3,), ascending and NaN-padded, and the
    number of positive roots per point (0 only where the arithmetic
    overflowed).  Every point's roots are computed elementwise, so they do
    not depend on the other points."""
    shape = np.broadcast_shapes(np.shape(c3), np.shape(c2), np.shape(c1))
    c3, c2, c1 = (np.broadcast_to(c, shape).ravel() for c in (c3, c2, c1))
    n = c1.size
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
        candidates[cubic], any_three = _cardano(c3[cubic], c2[cubic], c1[cubic])

    if any_three:
        # A point with one root keeps column 0 as polishing it alone would.
        candidates = _newton_polish(c3[:, None], c2[:, None], c1[:, None], candidates)
        candidates = np.where(candidates > 0.0, candidates, np.nan)
        candidates = np.sort(candidates, axis=1)  # NaN sorts last
    else:
        # Columns 1 and 2 are NaN everywhere: polish column 0 alone.
        first = _newton_polish(c3, c2, c1, candidates[:, 0])
        candidates[:, 0] = np.where(first > 0.0, first, np.nan)
    counts = np.sum(~np.isnan(candidates), axis=1)
    return candidates.reshape(shape + (3,)), counts.reshape(shape)


def _cardano(c3, c2, c1) -> tuple[np.ndarray, bool]:
    """The cubic's real roots at each point by Cardano's formula, unpolished:
    ``(roots, any_three)``, roots (n, 3) NaN-padded, unsorted and not yet
    checked for sign.  A separate function, so its temporaries are freed
    before the polish."""
    a = c2 / c3
    b = c1 / c3
    c = -0.5 / c3
    p = b - a * a / 3.0
    q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c
    disc = -4.0 * p * p * p - 27.0 * q * q

    sub = np.full((a.size, 3), np.nan)
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
        s = np.sqrt(np.maximum(0.25 * q1 * q1 + p1 * p1 * p1 / 27.0, 0.0))
        w = -0.5 * q1 - np.where(q1 >= 0, 1.0, -1.0) * s
        u = np.cbrt(w)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(u != 0.0, u - p1 / (3.0 * np.where(u == 0.0, 1.0, u)), 0.0)
        sub[one, 0] = t - a1 / 3.0
    return sub, any_three


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
    roots, counts = _cubic_roots(*_cubic_coefficients(xi, eta, dt))
    if np.any(counts == 0):
        raise _no_root_error()
    return roots, counts


def _no_root_error() -> InternalConsistencyError:
    return InternalConsistencyError(
        "photon-number cubic returned no positive root; this should be "
        "impossible for eta >= 0")


def _select_branches(roots: np.ndarray, counts: np.ndarray, dt: np.ndarray,
                     policy: BranchPolicy) -> tuple[np.ndarray, list]:
    """The selected root at each point of a stack of detuning grids.

    ``roots`` (K, N, 3) and ``counts`` (K, N) are :func:`_cubic_roots` of
    the grids ``dt`` (K, N).  Returns ``(ntilde, errors)``: a grid with a
    point without a positive root, or a grid that a sweep policy finds not
    strictly increasing, gets NaN and its error in ``errors``, the others
    None.
    """
    errors: list = [None] * len(dt)
    for k in np.flatnonzero(np.any(counts == 0, axis=1)).tolist():
        errors[k] = _no_root_error()
    sweep = policy in (BranchPolicy.SWEEP_UP, BranchPolicy.SWEEP_DOWN)
    if sweep:
        unordered = np.any(np.diff(dt, axis=1) <= 0, axis=1).tolist()
        for k, bad in enumerate(unordered):
            if bad and errors[k] is None:
                errors[k] = ParameterError("sweep policies require a strictly increasing grid")
    if policy is BranchPolicy.HIGH:
        # np.nanmax without its warning on a grid without roots.
        selected = np.fmax.reduce(roots, axis=2)
    else:
        selected = roots[..., 0].copy()
    if sweep:
        # Where the root is unique everywhere, all policies coincide;
        # elsewhere a sequential continuation runs along the sweep direction.
        n = dt.shape[1]
        order = range(n) if policy is BranchPolicy.SWEEP_UP else range(n - 1, -1, -1)
        for k in np.flatnonzero(np.any(counts != 1, axis=1)).tolist():
            if errors[k] is not None:
                continue
            grid_roots, grid_counts, prev = roots[k], counts[k].tolist(), None
            for i in order:
                row = grid_roots[i, :grid_counts[i]]
                if prev is None:
                    prev = row[0] if policy is BranchPolicy.SWEEP_UP else row[-1]
                else:
                    prev = row[int(np.argmin(np.abs(row - prev)))]
                selected[k, i] = prev
    for k, error in enumerate(errors):
        if error is not None:
            selected[k] = np.nan
    return selected, errors


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
    selected, (error,) = _select_branches(roots[None], counts[None], dt[None], policy)
    if error is not None:
        raise error
    return selected[0], counts


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
    s21, _, _ = _nonlinear_line_shape(p, freqs, policy)
    return s21


def photon_numbers(p: NonlinearParams, freqs,
                   policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> np.ndarray:
    """Physical intra-resonator photon number per frequency point."""
    _, _, (_, _, atilde_sq, ntilde, _) = _nonlinear_line_shape(p, freqs, policy)
    return ntilde * atilde_sq


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
        dip_freq = float(trace.freqs[_dip_index(np.abs(trace.s21))])
        kerr = (dip_freq - linear.resonant_freq) / n_est
    return NonlinearParams(linear=linear, kerr=kerr, two_photon=0.0,
                           drive_flux=drive_flux)


def _nonlinear_line_shapes(x: np.ndarray, freqs: np.ndarray, drive_flux: np.ndarray,
                           policy: BranchPolicy):
    """The nonlinear model of a stack of problems as a
    :func:`~hangerfit.linearfit._line_shape`, and the photon numbers it was
    evaluated with: ``(s21, jacobian, (xi, eta, atilde_sq, nt, counts),
    errors)``.

    Row k of ``x`` holds problem k's fit vector (``_NL_PARAM_NAMES``, a
    negative two_photon read as 0), row k of ``freqs`` its grid and of the
    (K, 1) ``drive_flux`` its flux.  ``xi``, ``eta`` and ``atilde_sq`` have
    one entry per problem, ``nt`` is the selected root and ``counts`` the
    number of positive roots at each point, (K, N).  Every problem's entries
    are computed as on a stack of one.  ``errors[k]`` is None, or the error
    of a problem whose roots could not be selected (see
    :func:`_select_branches`); that problem's S21 is NaN.

    The photon-number cubic is solved once, here, for all problems at once;
    the Jacobian reuses this evaluation's roots ``nt``, detunings ``dt``,
    ``xi``, ``eta`` and denominators, and builds its rows only for the
    problems asked for.  Its columns follow ``_NL_PARAM_NAMES``.  With ``g =
    delta_c*drive_flux/(2*pi*f_r**2*(delta_i + delta_c)**3)`` the drive
    parameters are ``xi = g*kerr`` and ``eta = g*two_photon``.  The selected
    root's derivative follows from the cubic ``F(nt; xi, eta, dt) = 0`` by
    implicit differentiation, ``d(nt) = -(F_xi*d(xi) + F_eta*d(eta) +
    F_dt*d(dt))/F_nt``, which holds on whichever branch the policy selected.
    """
    f_r, coupling = x[:, 4, None], x[:, 6, None]
    kerr, two_photon = x[:, 7, None], np.maximum(x[:, 8, None], 0.0)
    total = x[:, 5, None] + coupling
    # Each row's drive parameters as scalars: numpy's vectorized square
    # rounds differently from the scalar one (see ``linearfit._squares``).
    columns = (f_r, total, coupling, kerr, two_photon, drive_flux)
    drive = [_drive_params(*row) for row in zip(*(c[:, 0].tolist() for c in columns))]
    xi, eta, atilde_sq = np.array(drive).T[:, :, None]
    kappa_hz = f_r * total
    dt = (freqs - f_r) / kappa_hz
    c3, c2, c1 = _cubic_coefficients(xi, eta, dt)
    roots, counts = _cubic_roots(c3, c2, c1)
    nt, errors = _select_branches(roots, counts, dt, policy)
    denom = 1.0 + eta * nt + 2j * (dt - xi * nt)
    failed = [k for k, error in enumerate(errors) if error is not None]
    # Dividing by a failed problem's NaN denominator would warn: NaN its
    # S21 instead.
    denom[failed] = 1.0

    def d_denom(sel):
        f_r_s, total_s, xi_s, eta_s, dt_s, nt_s = (
            f_r[sel], total[sel], xi[sel], eta[sel], dt[sel], nt[sel])
        g = atilde_sq[sel] / kappa_hz[sel]
        # Columns: resonant_freq, internal_loss, coupling_loss, kerr, two_photon.
        zero = np.zeros_like(g)
        d_g = g * np.concatenate([-2.0 / f_r_s, -3.0 / total_s,
                                  1.0 / coupling[sel] - 3.0 / total_s, zero, zero], axis=1)
        d_xi = kerr[sel] * d_g
        d_xi[:, 3] = g[:, 0]
        d_eta = two_photon[sel] * d_g
        d_eta[:, 4] = g[:, 0]
        d_xi, d_eta = d_xi[:, :, None], d_eta[:, :, None]
        d_dt = np.concatenate([_detuning_derivatives(f_r_s, total_s, freqs[sel], dt_s),
                               np.zeros((dt_s.shape[0], 2, dt_s.shape[1]))], axis=1)

        nt_sq = nt_s * nt_s
        f_nt = (3.0 * c3[sel] * nt_s + 2.0 * c2[sel]) * nt_s + c1[sel]
        f_xi = 2.0 * (xi_s * nt_s - dt_s) * nt_sq
        f_eta = 0.5 * (eta_s * nt_s + 1.0) * nt_sq
        f_dt = 2.0 * (dt_s - xi_s * nt_s) * nt_s
        d_nt = -(f_xi[:, None] * d_xi + f_eta[:, None] * d_eta
                 + f_dt[:, None] * d_dt) / f_nt[:, None]
        return ((eta_s - 2j * xi_s)[:, :, None] * d_nt
                + nt_s[:, None] * (d_eta - 2j * d_xi) + 2j * d_dt)

    s21, jacobian = _line_shape(x, freqs, denom, d_denom)
    s21[failed] = np.nan
    return s21, jacobian, (xi[:, 0], eta[:, 0], atilde_sq[:, 0], nt, counts), errors


def _nonlinear_line_shape(p: NonlinearParams, freqs, policy: BranchPolicy | str):
    """:func:`_nonlinear_line_shapes` of one problem on a 1-d grid: ``(s21,
    jacobian, (xi, eta, atilde_sq, nt, counts))``, with ``s21``, ``nt`` and
    ``counts`` 1-d; raises the problem's error."""
    grid = np.atleast_1d(np.asarray(freqs, dtype=float))
    s21, jacobian, photons, (error,) = _nonlinear_line_shapes(
        _nl_vector(p)[None], grid[None], np.array([[p.drive_flux]]), BranchPolicy.coerce(policy))
    if error is not None:
        raise error
    return s21[0], jacobian, tuple(a[0] for a in photons)


def fit_nonlinear(trace: FrequencyTrace, guess: NonlinearParams,
                  policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> FitReport:
    """Least-squares fit of the nonlinear line shape to one trace.

    The solve is the shared core ``linearfit._fit_line_shape``, on a stack
    of one (:func:`fit_nonlinear_stack`), on the linear fit vector plus
    ``kerr`` and ``two_photon`` (>= 0).  The drive flux is held fixed at
    ``guess.drive_flux`` (floating it is degenerate with the two rates).
    Each evaluation of the solve finds the photon-number cubic's roots once
    per frequency point, and the exact Jacobian at an accepted point reuses
    them (see :func:`_nonlinear_line_shapes`).  The branch check,
    ``bifurcated`` and ``max_photon_number`` read the roots of the
    solution's own evaluation.  Every finite point within the bounds is
    valid parameters (two_photon is read as max(two_photon, 0)), and the
    solve's trial points are finite, so no trial point is invalid.

    Raises
    ------
    ParameterError
        Fewer than 12 points (p + 3 for the 9 parameters), or a sweep
        policy on a detuning grid that is not strictly increasing.
    InternalConsistencyError
        The cubic has no positive root at a grid point (only where its
        arithmetic overflows).
    SingularJacobianError
        The trace is constant.
    NonConvergenceError
        The optimizer failed outright.
    BifurcationUnstableError
        The selected branch at the solution jumps discontinuously away
        from a fold point (threshold :data:`CONTINUITY_THRESHOLD`).
    """
    result, = fit_nonlinear_stack([trace], [guess], policy)
    if isinstance(result, HangerFitError):
        raise result
    return result


def fit_nonlinear_stack(traces: list[FrequencyTrace], guesses: list[NonlinearParams],
                        policy: BranchPolicy | str = BranchPolicy.SWEEP_UP) -> list:
    """:func:`fit_nonlinear` of each trace from its guess, with one
    least-squares solve for all traces of one point count.

    Each fit takes the same steps and gives the same report as
    :func:`fit_nonlinear` of its trace alone.  Returns one entry per trace,
    in order: its :class:`FitReport`, or the error :func:`fit_nonlinear`
    would raise for it.  An evaluation whose roots cannot be selected
    decides its trace's entry, its error, but ends no fit: the solve reads
    its NaN residuals as a failed step.
    """
    policy = BranchPolicy.coerce(policy)
    flux = [guess.drive_flux for guess in guesses]
    flux_column = np.array(flux)[:, None]
    # Per trace, the photon numbers of the last point whose Jacobian was
    # built: the solve builds a Jacobian only at the points it moves to, so
    # that point is the solution.
    photons: list = [None] * len(traces)
    # Per trace, the error of its first evaluation whose roots could not be
    # selected: alone, that evaluation raises it and ends the fit.
    failures: list = [None] * len(traces)

    def line_shape(x, freqs, rows):
        s21, jacobian, evaluated, errors = _nonlinear_line_shapes(
            x, freqs, flux_column[rows], policy)
        for i, error in zip(rows, errors):
            failures[i] = failures[i] or error

        def jacobian_here(sel, f_center):
            for pos in np.arange(len(rows))[sel].tolist():
                photons[rows[pos]] = tuple(a[pos].copy() for a in evaluated)
            return jacobian(sel, f_center)
        return s21, jacobian_here

    def bounds_of(i):
        lower, upper = _linear_bounds(traces[i])
        return np.append(lower, [-np.inf, 0.0]), np.append(upper, [np.inf, np.inf])

    fits = _fit_line_shape(
        traces, _NL_PARAM_NAMES, lambda i: guesses[i], _nl_vector,
        lambda x, i: _nl_params(x, flux[i]), bounds_of,
        lambda x0, i: _nl_scales(x0, traces[i], flux[i]), line_shape)
    return [failures[i] or (fit if isinstance(fit, HangerFitError)
                            else _nonlinear_report(fit[0], photons[i], flux[i]))
            for i, fit in enumerate(fits)]


def _nonlinear_report(report: FitReport, photons, drive_flux: float):
    """A nonlinear fit's report with its diagnostics and details, from the
    photon numbers at its solution; or BifurcationUnstableError."""
    params, std_errors = report.params, report.std_errors
    xi, eta, atilde_sq, ntilde, counts = photons
    jumps = branch_jump_indices(ntilde, counts)
    if jumps.size:
        return BifurcationUnstableError(
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
