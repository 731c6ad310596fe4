"""Linear line-shape fitting, and the least-squares core of every fit.

:func:`_solve` is the one least-squares core of all three fits (this
module's :func:`fit_linear`, :func:`hangerfit.duffing.fit_nonlinear` and
:func:`hangerfit.tls.fit_tls`): a projected Levenberg-Marquardt solve in
numpy alone, in unit-scaled variables with an exact Jacobian, one evaluation
budget, one failure policy and standard errors from the Jacobian covariance.
It solves a stack of K independent problems of one shape at once: each
round evaluates every unfinished problem's trial point in one call, with
residuals stacked as (K, m) and Jacobians as (K, m, p), while damping,
acceptance and the stops stay per problem.  Each problem takes exactly the
trials, and gets bit for bit the result, it would get alone, because every
stacked operation rounds each row as the 2-D operation on that row would
(see :func:`_solve`).  ``fit-sweep`` fits all powers of one point count in
one stack (:func:`fit_linear_stack`); the other fits are stacks of one.
Each fit hands the solver one evaluator, which returns the residuals at the
trial points and a function that builds their Jacobians from the
evaluation's own intermediates; the solver builds them only where it needs
them.  A failing problem's error is returned in its place, and the others
go on.  Each solve stops at its cost's rounding floor: once the linear
model says less than :data:`_FLOOR` of the cost is left to gain, rounding
in the model (``exp`` of phases up to ~3000 rad, the cubic's roots)
outweighs that gain, and one trial that disagrees with the model ends the
solve.
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
    HangerFitError,
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
    "fit_linear_stack",
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
    f_lo = max(float(trace.freqs[0]) - 0.25 * span, np.finfo(float).tiny)
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


def _squares(a) -> np.ndarray:
    """``a**2`` of each entry as a scalar power (libm ``pow``): numpy's
    vectorized square differs from it in the last bit for about 0.1 % of
    values, and every fit squares its parameters in the scalar form."""
    a = np.asarray(a)
    return np.array([v ** 2 for v in a.ravel().tolist()]).reshape(a.shape)


def _detuning_derivatives(f_r, total, freqs: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Derivatives of the normalized detuning ``dt`` w.r.t. (f_r, delta_i,
    delta_c), on the second-to-last axis: shape (..., 3, N) for ``dt`` of
    shape (..., N)."""
    rows = np.empty(dt.shape[:-1] + (3, dt.shape[-1]))
    rows[..., 0, :] = -freqs / (_squares(f_r) * total)
    rows[..., 1, :] = rows[..., 2, :] = -dt / total
    return rows


def _line_shape(x: np.ndarray, freqs: np.ndarray, denom: np.ndarray, d_denom):
    """Hanger line shapes of a stack of problems and the Jacobian of their
    stacked real/imaginary parts.

    Row k of ``x`` holds problem k's linear parameters in the order of
    :data:`_PARAM_NAMES` (further columns are ignored); row k of ``freqs``
    and ``denom`` is its grid and denominator.  The line shape is
    ``env*(1 - D*exp(i*alpha_f)/denom)`` with ``env`` as in
    :func:`~hangerfit.model.eval_linear_s21` and ``D = delta_c/(delta_i +
    delta_c)``; ``denom`` is ``1 + 2i*dt`` for the linear model.  Returns
    ``(s21, jacobian)``: ``jacobian(sel, f_center)`` builds, for the rows
    ``sel`` (an index array or slice) from this evaluation's envelope,
    denominator and S21, a new (rows, 2N, 4 + q) array of Jacobians whose
    columns follow the fit vector (amplitude, electric_delay, phase at
    ``f_center``, fano_asymmetry, resonant_freq, internal_loss,
    coupling_loss, ...); ``f_center`` has one row per selected problem.
    ``d_denom(sel)`` gives the (rows, q, N) derivatives of ``denom``
    w.r.t. resonant_freq, internal_loss, coupling_loss and then any further
    fit parameter, which must enter through ``denom`` alone.
    """
    amplitude, delay, phase, fano, _, internal, coupling = (x[:, i, None] for i in range(7))
    total = internal + coupling
    depth = coupling / total
    env = amplitude * np.exp(1j * (TWO_PI * freqs * delay + phase))
    rotation = np.exp(1j * fano)
    s21 = env * (1.0 - depth * rotation / denom)

    def jacobian(sel, f_center: np.ndarray) -> np.ndarray:
        env_s, denom_s, s21_s, depth_s, total_s = (
            env[sel], denom[sel], s21[sel], depth[sel], total[sel])
        tilt = rotation[sel] / denom_s
        resonance = env_s * depth_s * tilt
        rows = d_denom(sel)
        cols = np.empty((s21_s.shape[0], s21_s.shape[1], 4 + rows.shape[1]), dtype=complex)
        cols[:, :, 0] = s21_s / amplitude[sel]
        cols[:, :, 1] = 1j * TWO_PI * (freqs[sel] - f_center) * s21_s
        cols[:, :, 2] = 1j * s21_s
        cols[:, :, 3] = -1j * resonance
        cols[:, :, 4:] = ((resonance / denom_s)[:, None, :] * rows).transpose(0, 2, 1)
        # The depth D depends on the two losses: dD/d(delta_i) = -D/total and
        # dD/d(delta_c) = delta_i/total**2.
        cols[:, :, 5] += env_s * tilt * (depth_s / total_s)
        cols[:, :, 6] -= env_s * tilt * (internal[sel] / _squares(total_s))
        return np.concatenate([cols.real, cols.imag], axis=1)

    return s21, jacobian


def _linear_line_shape(x: np.ndarray, freqs: np.ndarray):
    """The linear model as a :func:`_line_shape`: ``(s21, jacobian)``."""
    f_r, total = x[:, 4, None], x[:, 5, None] + x[:, 6, None]
    dt = (freqs - f_r) / (f_r * total)
    return _line_shape(x, freqs, 1.0 + 2j * dt, lambda sel: 2j * _detuning_derivatives(
        f_r[sel], total[sel], freqs[sel], dt[sel]))


def _residual_autocorr(resid: np.ndarray) -> float:
    power = float(np.sum(np.abs(resid) ** 2))
    if power == 0:
        return 0.0
    return float(np.abs(np.sum(resid[:-1] * np.conj(resid[1:]))) / power)


# Problems per QR call in :func:`_tall_svd` and per Jacobian build in
# :func:`_solve`.  Each call makes full-size temporaries (numpy's QR copies
# its input; a build holds its result while the evaluation's intermediates
# are alive), and a few 800x7 ones at a time keep a sweep's peak memory near
# one fit's.
_QR_CHUNK = 6
_BUILD_CHUNK = 2

# Machine epsilon of float64.
_EPS = 2.0 ** -52


def _span(index: list[int]):
    """``index``, ascending distinct integers, as a slice when it is one
    run (indexing with it then makes a view, not a copy), else as an array."""
    if index and index[-1] - index[0] == len(index) - 1:
        return slice(index[0], index[-1] + 1)
    return np.array(index, dtype=int)


def _tall_svd(a: np.ndarray, rows: list[int],
              cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of the matrices
    ``a[rows]`` (their columns ``cols``), from the SVD of each one's
    triangular QR factor: the same values as their own SVDs, at less cost
    when they have many more rows than columns."""
    factors = [np.linalg.qr(a[_span(rows[start:start + _QR_CHUNK])][:, :, cols], mode="r")
               for start in range(0, len(rows), _QR_CHUNK)]
    return np.linalg.svd(np.concatenate(factors), full_matrices=False)[1:]


def _rank_cutoff(sv: np.ndarray, m: int) -> np.ndarray:
    """Per row of ``sv``, the singular values of a matrix with ``m`` rows
    (at least its column count) at or below which are rounding noise."""
    return sv[:, :1] * m * _EPS


def _free_groups(free: np.ndarray) -> list[tuple[list[int], np.ndarray | slice]]:
    """The rows of a boolean ``free`` mask grouped by pattern: a list of
    ``(positions, columns)``, ``columns`` indexing the group's free columns."""
    if free.all():
        return [(list(range(len(free))), slice(None))]
    groups: dict = {}
    for i, row in enumerate(free):
        groups.setdefault(row.tobytes(), []).append(i)
    return [(positions, free[positions[0]]) for positions in groups.values()]


class _Solution:
    """One problem's result from :func:`_solve`: the solution, its
    covariance and residuals, whether the solve converged, and how many
    residual evaluations and Jacobians it took."""

    __slots__ = ("x", "covariance", "residuals", "converged", "evaluations", "jacobians")

    def __init__(self, x, covariance, residuals, converged, evaluations, jacobians):
        self.x, self.covariance, self.residuals = x, covariance, residuals
        self.converged, self.evaluations, self.jacobians = converged, evaluations, jacobians


def _solve(evaluate, x0: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
           scales: np.ndarray) -> list:
    """The least-squares core of every fit: minimize, for each of K
    independent problems of one shape, its residuals from its row of the
    (K, p) start ``x0`` within its row of ``bounds``.

    ``evaluate(x, rows)`` returns the (len(rows), m) residuals of problems
    ``rows`` (an ascending list) at the raw points ``x``, one row each, and a
    function
    ``jacobian(sel)`` that builds, as a new (rows, m, p) array, the exact
    Jacobians of the evaluated rows ``sel`` (an index array or slice) from
    that evaluation's own intermediates.  Every round evaluates each
    unfinished problem's next trial point in one call, and builds the
    Jacobians only at the start and at the accepted points.

    Each problem follows a projected Levenberg-Marquardt solve with
    Nielsen's damping update (Madsen, Nielsen & Tingleff, "Methods for
    non-linear least squares problems", 2004) in the unit-scaled variables
    ``u = x/scales``, so one damping term suits every parameter (raw
    parameters range from ~1e-8 s delays to GHz frequencies).  A variable at
    a bound whose gradient points outward is held there; any other step is
    clipped to the bounds.  At each accepted point the problems are grouped
    by free columns, and each group's free columns get one SVD of their
    triangular QR factor.  Its singular values, right singular vectors and
    gradient in them are stored at full width p, zero past the free count
    and in the held columns, so one expression gives every problem's step
    ``-vecmat(grad_v/(sv**2 + damping), vt)``, zero in its held columns.
    (An SVD of the full Jacobian with the held columns zeroed would round
    differently from the free columns' own.)  A problem stops when its cost
    falls by less than :data:`_TOLERANCE` of itself on a good step, its
    step is below :data:`_TOLERANCE` of the variables (tested after the
    step is taken, as a tiny f_r step matters at this tolerance), or its
    projected gradient is below :data:`_TOLERANCE`; or after
    :data:`_MAX_ITERATIONS` * (p + 1) evaluations.  A trial point with
    non-finite residuals counts as a failed step.

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

    The damping, acceptance, floor stop and budget are kept per problem
    (Python floats, and the lists of unfinished and moved problems), so
    each problem takes exactly the trials it would take alone, and its
    results are bit-identical whatever stack it is solved in.  That holds
    because every stacked operation computes each row as the 2-D operation
    on that row alone would: ``np.vecdot``, ``np.vecmat``, ``np.matvec`` and
    ``np.matmul`` on C-contiguous stacks call the same BLAS ``dot``/``gemv``
    per row, ``np.linalg.qr``/``svd`` the same LAPACK routine, sums run
    along contiguous rows, and norms are ``sqrt`` of a ``dot``.  ``einsum``,
    ``np.linalg.norm(axis=...)`` and numpy's vectorized ``power`` round
    differently, so the damping update cubes with Python floats.

    Returns one entry per problem: a :class:`_Solution`, whose covariance,
    in raw units, is the SVD pseudo-inverse of J^T J times the residual
    variance, so a direction the data does not constrain gets a large but
    finite variance, and whose ``converged`` is False when the budget ran
    out; or the error that ended it: NonConvergenceError for non-finite
    residuals at the start, a non-finite Jacobian or a non-finite solution,
    SingularJacobianError if the Jacobian at the solution is zero.
    """
    k_all, p = x0.shape
    lower, upper = bounds[0] / scales, bounds[1] / scales
    max_nfev = _MAX_ITERATIONS * (p + 1)
    errors: list = [None] * k_all
    # Per-problem scalars, kept as Python floats so each problem's
    # arithmetic is the scalar arithmetic of a solve on its own.
    nfev, njev = [1] * k_all, [0] * k_all
    converged, settled = [False] * k_all, [False] * k_all
    growth = [2.0] * k_all

    def store(sel, rows, jacobian):
        # The scaled Jacobians of the evaluated rows sel, at problems rows[sel].
        for start in range(0, len(sel), _BUILD_CHUNK):
            part = sel[start:start + _BUILD_CHUNK]
            targets = [rows[i] for i in part]
            span = _span(targets)
            j[span] = jacobian(_span(part)) * scales[span, None, :]
            for k, finite in zip(targets, np.isfinite(j[span]).all(axis=(1, 2)).tolist()):
                njev[k] += 1
                if not finite:
                    errors[k] = NonConvergenceError(
                        "least-squares fit failed: Jacobian is not finite")

    u = x0 / scales
    everyone = list(range(k_all))
    r, jacobian = evaluate(x0, everyone)
    start_ok = np.isfinite(r).all(axis=1).tolist()
    for k in everyone:
        if not start_ok[k]:
            errors[k] = NonConvergenceError(
                "least-squares fit failed: residuals are not finite at the start")
            r[k] = 0.0
    j = np.zeros((k_all, r.shape[1], p))
    moved = [k for k in everyone if start_ok[k]]
    store(moved, everyone, jacobian)
    del jacobian
    m = r.shape[1]
    cost = (0.5 * np.vecdot(r, r)).tolist()
    damping = 1e-3 * np.max((j ** 2).sum(axis=1), axis=1)
    # The factorization at each problem's current point: gradient, free
    # columns, and the SVD of the free columns at full width (zero past the
    # free count and in the held columns).
    grad = np.zeros((k_all, p))
    free = np.ones((k_all, p), dtype=bool)
    sv = np.zeros((k_all, p))
    vt = np.zeros((k_all, p, p))
    grad_v = np.zeros((k_all, p))
    active = [k for k in moved if errors[k] is None]
    while True:
        active = [k for k in active
                  if errors[k] is None and not converged[k] and nfev[k] < max_nfev]
        moved = [k for k in moved if errors[k] is None and nfev[k] < max_nfev]
        if moved:
            new = _span(moved)
            g = np.vecmat(r[new], j[new])
            u_new = u[new]
            f = ~(((u_new <= lower[new]) & (g > 0)) | ((u_new >= upper[new]) & (g < 0)))
            largest = np.where(f, np.abs(g), 0.0).max(axis=1).tolist()
            grad[new], free[new] = g, f
            for k, size in zip(moved, largest):
                converged[k] = size <= _TOLERANCE
            moved = [k for k in moved if not converged[k]]
            active = [k for k in active if not converged[k]]
        for positions, cols in _free_groups(free[_span(moved)]) if moved else []:
            rows = [moved[i] for i in positions]
            span = _span(rows)
            sv_g, vt_g = _tall_svd(j, rows, cols)
            q = sv_g.shape[1]
            gv = np.matvec(vt_g, grad[span][:, cols])
            # Settled: the Gauss-Newton gain, over the resolved singular
            # values, is within the cost's rounding floor.
            resolved = sv_g > _rank_cutoff(sv_g, m)
            gain = 0.5 * ((gv / np.where(resolved, sv_g, np.inf)) ** 2).sum(axis=1)
            for k, value in zip(rows, gain.tolist()):
                settled[k] = value <= _FLOOR * cost[k]
            wide = np.zeros((len(rows), p, p))
            wide[:, :q, cols] = vt_g
            sv[span], vt[span], grad_v[span] = 0.0, wide, 0.0
            sv[span, :q], grad_v[span, :q] = sv_g, gv
        if not active:
            break

        ia = _span(active)
        step = -np.vecmat(grad_v[ia] / (sv[ia] ** 2 + damping[ia, None]), vt[ia])
        u_act = u[ia]
        trial = np.minimum(np.maximum(u_act + step, lower[ia]), upper[ia])
        step = trial - u_act
        r_trial, jacobian = evaluate(trial * scales[ia], active)
        cost_trial = [0.5 * value for value in np.vecdot(r_trial, r_trial).tolist()]
        model_gain = zip(np.vecdot(grad[ia], step).tolist(),
                         (np.matvec(j[ia], step) ** 2).sum(axis=1).tolist())
        lengths = zip(np.vecdot(step, step).tolist(), np.vecdot(trial, trial).tolist())
        accepted = []
        for i, k, (linear, quadratic), (step_sq, trial_sq) in zip(
                range(len(active)), active, model_gain, lengths):
            nfev[k] += 1
            predicted = -linear - 0.5 * quadratic
            small_step = math.sqrt(step_sq) <= _TOLERANCE * (_TOLERANCE + math.sqrt(trial_sq))
            reduction = cost[k] - cost_trial[i] if math.isfinite(cost_trial[i]) else -math.inf
            ratio = reduction / predicted if predicted > 0 else -1.0
            if settled[k] and ratio < 0.25:
                # The evaluation cannot resolve what is left to gain: keep
                # the trial only if it lowered the cost, and stop.
                converged[k] = True
                if reduction > 0:
                    accepted.append(i)
            elif ratio > 0:
                converged[k] = small_step or (reduction < _TOLERANCE * cost[k]
                                              and ratio > 0.25)
                accepted.append(i)
                damping[k] *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth[k] = 2.0
            else:
                damping[k] *= growth[k]
                growth[k] *= 2.0
                converged[k] = small_step
        moved = [active[i] for i in accepted]
        if moved:
            span, taken = _span(moved), _span(accepted)
            u[span], r[span] = trial[taken], r_trial[taken]
            for i, k in zip(accepted, moved):
                cost[k] = cost_trial[i]
        # Keep no more of this evaluation than the Jacobians still to build.
        del r_trial
        store(accepted, active, jacobian)
        del jacobian
        moved = [k for k in moved if not converged[k]]

    x = np.clip(u * scales, *bounds)
    finite_x = np.isfinite(x).all(axis=1).tolist()
    for k in range(k_all):
        if errors[k] is None and not finite_x[k]:
            errors[k] = NonConvergenceError("least-squares fit failed: non-finite solution")
    solved = [k for k in range(k_all) if errors[k] is None]
    if solved:
        sv, vt = _tall_svd(j, solved)
        for k, largest in zip(solved, sv[:, 0].tolist()):
            if largest <= 0.0:
                errors[k] = SingularJacobianError("Jacobian is identically zero")
        keep = [i for i, k in enumerate(solved) if errors[k] is None]
        solved, sv, vt = [solved[i] for i in keep], sv[keep], vt[keep]
        span = _span(solved)
        s_squared = np.vecdot(r[span], r[span]) / max(m - p, 1)
        inv_sv2 = 1.0 / np.maximum(sv, _rank_cutoff(sv, m)) ** 2
        cov = (np.matmul(vt.transpose(0, 2, 1) * inv_sv2[:, None, :], vt)
               * s_squared[:, None, None] * (scales[span, :, None] * scales[span, None, :]))
    covariances = dict(zip(solved, cov)) if solved else {}
    return [errors[k] or _Solution(
        x=x[k], covariance=covariances[k], residuals=r[k], converged=converged[k],
        evaluations=nfev[k], jacobians=njev[k]) for k in range(k_all)]


def _fit_line_shape(traces: list, names: list[str], start, to_vector, make_params,
                    bounds_of, scales_of, line_shape) -> list:
    """Least-squares fits of a hanger line shape to a stack of traces of
    one length, shared by both fits: one :func:`_solve` for the stack.

    The fit vector, labelled by ``names``, starts with the seven linear
    parameters.  ``start(i)`` gives trace i's starting parameters after the
    input guards; ``to_vector``/``make_params`` map parameters to vectors
    and back; ``bounds_of(trace)`` gives a trace's bounds and
    ``scales_of(x0, trace)`` its unit scales at the start clipped to them.
    ``line_shape(x, freqs)`` is a :func:`_line_shape` of the raw parameter
    rows ``x`` and grids ``freqs``: S21 and a function giving the
    derivatives of its stacked real/imaginary parts with the phase at given
    centres (see :func:`_fit_variables`).  Each :func:`_solve` evaluation
    calls it once.  Every point within the bounds must be valid parameters.

    Returns one entry per trace: ``(report, complex residuals)``, the
    report without diagnostics or details, with ``converged`` False when
    the evaluation budget ran out; or the error its fit raised:
    ParameterError for fewer than p + 3 points, SingularJacobianError for a
    constant trace, NonConvergenceError if the solver fails, or any error
    of ``start``.
    """
    n_params = len(names)
    results: list = [None] * len(traces)
    index, starts, lowers, uppers, scales = [], [], [], [], []
    for i, trace in enumerate(traces):
        try:
            if len(trace) < n_params + 3:
                raise ParameterError(f"need >= {n_params + 3} points to fit {n_params} parameters")
            if np.ptp(trace.s21.real) == 0.0 and np.ptp(trace.s21.imag) == 0.0:
                raise SingularJacobianError("trace is constant; nothing to fit")
            lower, upper = bounds_of(trace)
            x0 = np.minimum(np.maximum(to_vector(start(i)), lower), upper)
            scales.append(scales_of(x0, trace))
        except HangerFitError as exc:
            results[i] = exc
            continue
        index.append(i)
        starts.append(x0)
        lowers.append(lower)
        uppers.append(upper)
    if not index:
        return results
    freqs = np.stack([traces[i].freqs for i in index])
    data = np.stack([traces[i].s21 for i in index])
    centres = [float(np.mean(traces[i].freqs)) for i in index]
    f_center = np.array(centres)[:, None]

    def evaluate(x, rows):
        picked = _span(rows)
        x = x.copy()
        x[:, 2] = [math.remainder(phase - TWO_PI * centres[k] * delay, TWO_PI)
                   for phase, delay, k in zip(x[:, 2].tolist(), x[:, 1].tolist(), rows)]
        s21, jacobian = line_shape(x, freqs[picked])
        diff = s21 - data[picked]
        centre = f_center[picked]
        return (np.concatenate([diff.real, diff.imag], axis=1),
                lambda sel: jacobian(sel, centre[sel]))

    x0 = np.stack([_fit_variables(x, centre) for x, centre in zip(starts, centres)])
    solutions = _solve(evaluate, x0, (np.stack(lowers), np.stack(uppers)), np.stack(scales))
    for i, centre, solution in zip(index, centres, solutions):
        if isinstance(solution, HangerFitError):
            results[i] = solution
            continue
        params = _params_at(solution.x, centre, make_params)
        n = len(traces[i])
        resid = solution.residuals
        # phase_offset = phi_center - 2*pi*f_center*t_d: propagate linearly.
        transform = np.eye(n_params)
        transform[2, 1] = -TWO_PI * centre
        cov = transform @ solution.covariance @ transform.T
        std_errors = {name: float(np.sqrt(max(cov[c, c], 0.0)))
                      for c, name in enumerate(names)}
        report = FitReport(params=params, std_errors=std_errors,
                           residual_rms=float(np.sqrt(np.sum(resid**2) / n)),
                           n_points=n, converged=solution.converged)
        results[i] = (report, resid[:n] + 1j * resid[n:])
    return results


def _line_shape_details(lin: LinearParams) -> dict:
    """Derived scalars every line-shape fit reports."""
    return {"q_i": lin.q_internal, "q_c": lin.q_coupling, "q_c_raw": raw_qc(lin),
            "loaded_linewidth_hz": loaded_linewidth(lin)}


def fit_linear(trace: FrequencyTrace, guess: LinearParams | None = None) -> FitReport:
    """Least-squares fit of the linear hanger model to one trace.

    ``guess`` defaults to :func:`estimate_initial`.  The solve is the shared
    :func:`_fit_line_shape` on a stack of one; ``converged`` is False when
    the iteration budget is exhausted.

    Raises
    ------
    ParameterError
        Fewer than 10 points (p + 3 for the 7 parameters).
    SingularJacobianError
        The trace is constant (checked before the initial estimate).
    NoResonanceError
        Propagated from the initial estimate.
    """
    result, = fit_linear_stack([trace], [guess])
    if isinstance(result, HangerFitError):
        raise result
    return result


def fit_linear_stack(traces: list[FrequencyTrace], guesses: list | None = None) -> list:
    """:func:`fit_linear` of each trace, with one least-squares solve for
    all traces of one point count.

    Trace i starts from ``guesses[i]`` when given and not None, else from
    :func:`estimate_initial`; each fit takes the same steps and gives the
    same report as :func:`fit_linear` of its trace alone.  Returns one
    entry per trace, in order: its :class:`FitReport`, or the error
    :func:`fit_linear` would raise for it.
    """
    sigmas = [_noise_sigma(trace.s21) for trace in traces]
    guesses = guesses or [None] * len(traces)
    results: list = [None] * len(traces)
    by_length: dict = {}
    for i, trace in enumerate(traces):
        by_length.setdefault(len(trace), []).append(i)
    for index in by_length.values():
        def start(k, index=index):
            i = index[k]
            return guesses[i] if guesses[i] is not None else _estimate_initial(traces[i], sigmas[i])

        fits = _fit_line_shape([traces[i] for i in index], _PARAM_NAMES, start, _params_to_vector,
                               _vector_to_params, _linear_bounds, _linear_scales,
                               _linear_line_shape)
        for i, fit in zip(index, fits):
            results[i] = fit if isinstance(fit, HangerFitError) else _linear_report(*fit, sigmas[i])
    return results


def _linear_report(report: FitReport, resid: np.ndarray, sigma: float) -> FitReport:
    """A linear fit's report with its diagnostics and details."""
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
