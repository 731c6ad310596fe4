"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from hangerfit import LinearParams, NonlinearParams, normalized_drive_params


def cubic_coefficients(xi, eta, dtilde):
    """Coefficients (c3, c2, c1, c0) of the drive-normalized photon cubic."""
    return (xi * xi + eta * eta / 4.0,
            eta / 2.0 - 2.0 * xi * dtilde,
            0.25 + dtilde * dtilde,
            -0.5)


def cubic_value(xi, eta, dtilde, x):
    c3, c2, c1, c0 = cubic_coefficients(xi, eta, dtilde)
    return ((c3 * x + c2) * x + c1) * x + c0


def bisection_roots(xi, eta, dtilde, n_grid=4000, tol=1e-13):
    """Independent oracle: all positive real roots by sign-scan + bisection.

    Scans a logarithmic-ish grid up to a Cauchy-style bound on the largest
    root, brackets every sign change, and bisects each bracket.  Entirely
    independent of the closed-form solver under test.
    """
    c3, c2, c1, c0 = cubic_coefficients(xi, eta, dtilde)
    if c3 == 0.0:
        # c2 vanishes identically with c3 for this family: linear equation.
        return [-c0 / c1]
    bound = 1.0 + max(abs(c2), abs(c1), abs(c0)) / c3
    grid = np.concatenate([[1e-12], np.geomspace(1e-9, bound * 1.0000001, n_grid)])
    values = ((c3 * grid + c2) * grid + c1) * grid + c0
    roots = []
    for lo, hi, v_lo, v_hi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if v_lo == 0.0:
            roots.append(lo)
            continue
        if v_lo * v_hi < 0:
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                v_mid = ((c3 * mid + c2) * mid + c1) * mid + c0
                if v_lo * v_mid <= 0:
                    b = mid
                else:
                    a = mid
                if b - a < tol * max(1.0, b):
                    break
            roots.append(0.5 * (a + b))
    if values[-1] == 0.0:
        roots.append(grid[-1])
    return sorted(roots)


def fit_circle(points):
    """Independent oracle: algebraic least-squares circle through
    complex-plane points, ``(center, radius)``."""
    z = np.asarray(points, dtype=complex).ravel()
    design = np.column_stack([z.real, z.imag, np.ones(z.size)])
    coeff, *_ = np.linalg.lstsq(design, np.abs(z) ** 2, rcond=None)
    center = complex(coeff[0] / 2.0, coeff[1] / 2.0)
    return center, float(np.sqrt(coeff[2] + abs(center) ** 2))


def circle_deviation(trace, linear):
    """Max radial deviation over radius, about its best-fit circle, of the
    trace with the environment of ``linear`` (amplitude, delay, phase)
    removed.  Pure Kerr response keeps the resonance circle; two-photon
    loss deforms it."""
    env = linear.amplitude * np.exp(
        1j * (2 * np.pi * trace.freqs * linear.electric_delay + linear.phase_offset))
    z = trace.s21 / env
    center, radius = fit_circle(z)
    return float(np.max(np.abs(np.abs(z - center) - radius)) / radius)


def oracle_root_count(xi, eta, dtilde):
    """Positive-real-root count via numpy's companion-matrix roots."""
    c3, c2, c1, c0 = cubic_coefficients(xi, eta, dtilde)
    if c3 == 0.0:
        return 1
    roots = np.roots([c3, c2, c1, c0])
    return sum(1 for r in roots
               if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0)


def central_difference_jacobian(fun, u, step=1e-4):
    """Jacobian of ``fun`` at ``u`` by central differences, one column per entry.

    The default step suits unit-scaled variables: the resonance frequency
    sits at ~1e6 linewidths from zero, so a much smaller step is lost to
    rounding in ``u*scale``.
    """
    columns = []
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = step
        columns.append((fun(u + e) - fun(u - e)) / (2.0 * step))
    return np.column_stack(columns)


def column_relative_errors(jac, reference):
    """Per-column relative 2-norm error of ``jac`` against ``reference``."""
    return np.linalg.norm(jac - reference, axis=0) / np.linalg.norm(reference, axis=0)


def drive_flux_for_xi(linear: LinearParams, kerr: float, xi_target: float) -> float:
    """Drive flux that produces the requested xi for the given Kerr rate."""
    probe = NonlinearParams(linear=linear, kerr=kerr, two_photon=0.0, drive_flux=1.0)
    xi_unit, _, _ = normalized_drive_params(probe)
    return xi_target / xi_unit


@pytest.fixture
def base_linear():
    return LinearParams(amplitude=1.0, electric_delay=0.0, phase_offset=0.0,
                        fano_asymmetry=0.0, resonant_freq=5e9,
                        internal_loss=5e-7, coupling_loss=1e-6)


def record_solves(monkeypatch, module):
    """Replace ``module._solve`` by a wrapper that records the evaluator,
    starts and scales of each stacked solve; returns the list of records."""
    records = []
    solve = module._solve

    def recording(evaluate, x0, bounds, scales):
        records.append((evaluate, x0, scales))
        return solve(evaluate, x0, bounds, scales)

    monkeypatch.setattr(module, "_solve", recording)
    return records


def record_costs(monkeypatch, module):
    """Replace ``module._solve`` by a wrapper that records the cost,
    0.5*sum(residuals**2), of each evaluation; returns one list per
    problem, the problems of each solve in stack order."""
    costs = []
    solve = module._solve

    def recording(evaluate, x0, bounds, scales):
        solve_costs = [[] for _ in range(len(x0))]
        costs.extend(solve_costs)

        def recorded(x, rows):
            r, jacobian = evaluate(x, rows)
            for k, row in zip(rows, r):
                solve_costs[k].append(0.5 * float(row @ row))
            return r, jacobian

        return solve(recorded, x0, bounds, scales)

    monkeypatch.setattr(module, "_solve", recording)
    return costs


def evaluations_at_floor(costs, rel=1e-10):
    """Evaluations a solve made after its cost first came within ``rel`` of
    its final value, the lowest cost it evaluated."""
    final = min(costs)
    first = next(i for i, cost in enumerate(costs) if cost - final <= rel * final)
    return len(costs) - 1 - first


def single_jacobian(line_shape, f_center):
    """The Jacobian of a one-problem line shape ``(s21, jacobian, ...)``
    with the phase at ``f_center``, as a 2-D array."""
    return line_shape[1](slice(None), np.array([[f_center]]))[0]


def assert_jacobians_built_at_their_points(evaluate, x0, scales):
    """The Jacobians an evaluation returns equal ones computed from scratch
    at the same points, even when evaluations at other points came between."""
    rows = list(range(len(x0)))
    x1 = x0 + 0.01 * scales
    _, jacobian0 = evaluate(x0, rows)
    _, jacobian1 = evaluate(x1, rows)
    built0, built1 = jacobian0(slice(None)), jacobian1(slice(None))
    np.testing.assert_array_equal(built0, evaluate(x0, rows)[1](slice(None)))
    np.testing.assert_array_equal(built1, evaluate(x1, rows)[1](slice(None)))
    assert not np.array_equal(built0, built1)
