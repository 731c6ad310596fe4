"""Command-line front end: fit, sweep analysis, rate extraction, synthesis.

Commands
--------
fit-linear   fit one trace, write a report, print a one-line summary
fit-sweep    power sweep -> per-power linear fits -> TLS model fit
extract-kerr power sweep -> per-power nonlinear fits -> slope extraction
simulate     generate a synthetic sweep campaign from a JSON config

Exit codes: 0 success, 2 input/config error, 3 analysis failure.  A
trace is CSV or Touchstone v1 (``.s2p``), on its own and in a sweep
manifest alike.  A Touchstone sweep entry takes its power from the
manifest entry and its attenuation and temperature from the manifest; a
CSV entry whose ``power_dbm``, ``attenuation_db`` or ``temperature_k``
differs from its manifest is an input error.  ``fit-sweep`` reads every
power in manifest order, then fits all powers of one point count in one
stacked least-squares solve; ``extract-kerr`` fits the powers one after
another.  Either reports the failure at the first failing power in
manifest order (an unreadable trace, or a fit): the error keeps its class
(and so its exit code) and its message names the power.
``fit-sweep --exclude-nonlinear-powers`` leaves out of the TLS fit each
power whose own linear fit reports ``nonlinear_suspected``: lag-1
autocorrelation of the residuals above 0.5 and residual rms above 3 sigma
of the trace's noise.  Reports are written atomically (temp file +
rename), never partially.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .calibration import dbm_to_watts, input_photon_flux, mean_photon_number
from .duffing import (
    BranchPolicy,
    extract_kerr_two_photon,
    fit_nonlinear,
    seed_nonlinear_guess,
)
from .errors import (
    ConfigError,
    HangerFitError,
    InputMismatchError,
    InsufficientSpanError,
    LowSignalError,
    ParameterError,
    TraceParseError,
)
from .linearfit import estimate_initial, fit_linear, fit_linear_stack
from .model import FrequencyTrace, LinearParams, TlsParams
from .synth import linewidth_grid, synthesize_power_sweep
from .tls import eval_tls_loss, fit_tls
from .traceio import (
    SweepManifest,
    input_digest,
    parse_csv_trace,
    parse_manifest,
    parse_touchstone,
    write_csv_trace,
    write_manifest,
    write_plot_table,
    write_report,
)

__all__ = ["main"]

# extract-kerr fails as linear unless a pooled rate is this many standard
# errors from zero.
MIN_SLOPE_SIGMAS = 3.0


def _load_trace(path: str, manifest: SweepManifest | None = None,
                power_dbm: float | None = None) -> FrequencyTrace:
    """Read a CSV or Touchstone trace, on its own or as a sweep entry.

    Touchstone carries no drive metadata, so a sweep entry takes its power
    from its manifest entry and its attenuation and temperature from the
    manifest.  A CSV entry must state the power of its manifest entry and
    the manifest's attenuation and temperature.
    """
    if str(path).lower().endswith((".s2p", ".ts")):
        if manifest is None:
            return parse_touchstone(path)
        return parse_touchstone(path, instrument_power=power_dbm,
                                attenuation=manifest.attenuation,
                                temperature=manifest.temperature)
    trace = parse_csv_trace(path)
    if manifest is None:
        return trace
    checks = (("power_dbm", trace.instrument_power, "manifest entry", power_dbm, "dBm"),
              ("attenuation_db", trace.attenuation, "manifest", manifest.attenuation, "dB"),
              ("temperature_k", trace.temperature, "manifest", manifest.temperature, "K"))
    for key, stated, source, expected, unit in checks:
        if stated != expected:
            raise InputMismatchError(
                f"{path}: {key}={stated!r} disagrees with the {source} {expected!r} {unit}")
    return trace


def _window_trace(trace: FrequencyTrace, width: float) -> tuple[FrequencyTrace, LinearParams]:
    """The points within ``width`` loaded linewidths centred on the dip (all
    if fewer than 10), and the initial estimate that placed them."""
    guess = estimate_initial(trace)
    half = 0.5 * width * guess.resonant_freq * guess.total_loss
    sel = np.abs(trace.freqs - guess.resonant_freq) <= half
    if np.count_nonzero(sel) < 10:
        return trace, guess
    return FrequencyTrace(freqs=trace.freqs[sel], s21=trace.s21[sel],
                          instrument_power=trace.instrument_power,
                          attenuation=trace.attenuation,
                          temperature=trace.temperature, label=trace.label), guess


def cmd_fit_linear(args) -> int:
    trace = _load_trace(args.trace)
    trace, guess = _window_trace(trace, args.window) if args.window > 0 else (trace, None)
    report = fit_linear(trace, guess)
    out = args.out or f"{args.trace}.report.json"
    provenance = {"command": "fit-linear",
                  "inputs": [os.path.basename(args.trace)],
                  "input_digest": input_digest([args.trace])}
    write_report([report], out, provenance=provenance)
    p = report.params
    print(f"{trace.label or args.trace}: f_r={p.resonant_freq:.9g} Hz "
          f"Q_i={p.q_internal:.6g} Q_c={p.q_coupling:.6g} "
          f"residual_rms={report.residual_rms:.3g} "
          f"converged={report.converged}")
    return 0


@contextlib.contextmanager
def _at_power(power_dbm: float):
    """Prefix the drive power to the message of a per-power failure.

    The error keeps its class, so ``main`` still maps it to its own exit
    code and names it.  OSError formats its message from its own fields,
    so it is re-raised as a fresh instance of the same class.
    """
    prefix = f"power {power_dbm:g} dBm failed: "
    try:
        yield
    except OSError as exc:
        raise type(exc)(f"{prefix}{exc}") from exc
    except HangerFitError as exc:
        exc.args = (f"{prefix}{exc}",)
        raise


def cmd_fit_sweep(args) -> int:
    manifest = parse_manifest(args.manifest)
    include_two_photon = args.model == "tls+2photon"

    # Parse up to the first unreadable power, fit every parsed power in one
    # stacked solve per point count, then report the lowest failing power.
    traces = []
    unreadable = None
    for path, power_dbm in manifest.entries:
        try:
            with _at_power(power_dbm):
                traces.append(_load_trace(path, manifest, power_dbm))
        except (OSError, HangerFitError) as exc:
            unreadable = exc
            break
    fits = fit_linear_stack(traces)

    points = []
    reports = []
    excluded_powers = []
    for (path, power_dbm), report in zip(manifest.entries, fits):
        with _at_power(power_dbm):
            if isinstance(report, HangerFitError):
                raise report
            n_bar = mean_photon_number(dbm_to_watts(power_dbm - manifest.attenuation),
                                       report.params)
        excluded = (args.exclude_nonlinear_powers
                    and "nonlinear_suspected" in report.diagnostics)
        if excluded:
            excluded_powers.append(power_dbm)
        else:
            points.append((n_bar, report.params.internal_loss,
                           report.std_errors["internal_loss"]))
        reports.append(dataclasses.replace(report, details={
            **report.details, "photon_number": n_bar, "excluded_nonlinear": excluded}))
        if args.verbose:
            print(f"power {power_dbm:g} dBm: n={n_bar:.4g} "
                  f"Q_i={report.params.q_internal:.5g} excluded={excluded}")
    if unreadable is not None:
        raise unreadable

    n_bars = np.array([p[0] for p in points])
    losses = np.array([p[1] for p in points])
    try:
        tls_report = fit_tls(n_bars, losses, manifest.temperature,
                             reports[0].params.resonant_freq,
                             include_two_photon=include_two_photon)
    except InsufficientSpanError as exc:
        if excluded_powers:
            exc.args = (f"{exc} ({len(excluded_powers)} of {len(reports)} powers "
                        f"excluded as nonlinear)",)
        raise

    out = args.out or f"{args.manifest}.report.json"
    trace_paths = [path for path, _ in manifest.entries]
    provenance = {"command": "fit-sweep", "model": args.model,
                  "exclude_nonlinear_powers": bool(args.exclude_nonlinear_powers),
                  "excluded_powers_dbm": excluded_powers,
                  "inputs": [os.path.basename(p) for p in trace_paths],
                  "input_digest": input_digest(trace_paths)}
    per_power_details = [
        {key: r.details[key] for key in ("photon_number", "excluded_nonlinear")}
        for r in reports]
    write_report([tls_report] + reports, out, provenance=provenance,
                 summary={"per_power_details": per_power_details})

    table_path = args.plot_table or f"{args.manifest}.qi_vs_n.csv"
    rows = [(n, 1.0 / loss, err / loss**2) for n, loss, err in points]
    write_plot_table("qi_vs_n", rows, table_path)

    t: TlsParams = tls_report.params
    print(f"{manifest.label}: Q_TLS={t.q_tls:.6g} n_c={t.n_c:.6g} "
          f"alpha={t.alpha_tls:.4g} delta_0={t.delta_0:.6g}"
          + (f" two_photon={tls_report.details['two_photon_hz']:.6g} Hz"
             if include_two_photon else "")
          + f" converged={tls_report.converged}")
    return 0


def cmd_extract_kerr(args) -> int:
    manifest = parse_manifest(args.manifest)
    policy = BranchPolicy.coerce(args.policy or BranchPolicy.SWEEP_UP)

    base_linear: LinearParams | None = None
    fits = []
    for path, power_dbm in manifest.entries:
        with _at_power(power_dbm):
            trace = _load_trace(path, manifest, power_dbm)
            if base_linear is None:
                # The lowest power anchors the resonance and the drive seed.
                base_linear = fit_linear(trace).params
            flux = input_photon_flux(dbm_to_watts(power_dbm - manifest.attenuation),
                                     base_linear.resonant_freq)
            guess = seed_nonlinear_guess(trace, base_linear, flux)
            fits.append(fit_nonlinear(trace, guess, policy))
    photon_numbers = [fit.details["max_photon_number"] for fit in fits]

    kerr, two_photon, diagnostics = extract_kerr_two_photon(fits, photon_numbers)
    kerr_err = diagnostics["kerr_stderr_hz"]
    two_photon_err = diagnostics["two_photon_stderr_hz"]
    if (abs(kerr) < MIN_SLOPE_SIGMAS * kerr_err
            and abs(two_photon) < MIN_SLOPE_SIGMAS * two_photon_err):
        raise LowSignalError(
            f"neither rate resolved (low sensitivity): kerr={kerr:.6g} "
            f"(+-{kerr_err:.3g}) Hz, two_photon={two_photon:.6g} "
            f"(+-{two_photon_err:.3g}) Hz, need one >= {MIN_SLOPE_SIGMAS:g} sigma "
            f"from zero; sweep appears linear")

    out = args.out or f"{args.manifest}.report.json"
    trace_paths = [path for path, _ in manifest.entries]
    provenance = {"command": "extract-kerr", "policy": policy.value,
                  "inputs": [os.path.basename(p) for p in trace_paths],
                  "input_digest": input_digest(trace_paths)}
    summary = {"kerr_hz": kerr, "two_photon_hz": two_photon}
    summary.update(diagnostics)
    write_report(fits, out, provenance=provenance, summary=summary)

    table_path = args.plot_table or f"{args.manifest}.kerr_slope.csv"
    rows = []
    for fit, n in zip(fits, photon_numbers):
        rows.append((n, fit.params.kerr * n, fit.std_errors["kerr"] * n,
                     fit.params.two_photon * n, fit.std_errors["two_photon"] * n))
    write_plot_table("kerr_slope", rows, table_path)

    print(f"{manifest.label}: kerr={kerr:.6g} Hz "
          f"(+-{diagnostics['kerr_stderr_hz']:.3g}, R2={diagnostics['kerr_r_squared']:.4f}) "
          f"two_photon={two_photon:.6g} Hz "
          f"(+-{diagnostics['two_photon_stderr_hz']:.3g}, "
          f"R2={diagnostics['two_photon_r_squared']:.4f})")
    return 0


_CONFIG_DEFAULTS = {
    "label": "R1",
    "amplitude": 1.0,
    "electric_delay_s": 0.0,
    "phase_offset_rad": 0.0,
    "fano_asymmetry_rad": 0.0,
    "temperature_k": 0.010,
    "kerr_hz": 0.0,
    "two_photon_hz": 0.0,
    "attenuation_db": 74.0,
    "freq_span_linewidths": 10.0,
    "n_points": 401,
    "noise_sigma": 0.0,
    "seed": 0,
    "branch_policy": "sweep_up",
}
_CONFIG_REQUIRED = ["resonant_freq_hz", "coupling_q", "q_tls", "n_c_photons",
                    "alpha_tls", "delta_0", "instrument_powers_dbm"]


def _config_number(config, key, *, minimum=None, exclusive_minimum=None,
                   maximum=None) -> float:
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(key, "must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value!r}")
    if exclusive_minimum is not None and value <= exclusive_minimum:
        raise ConfigError(key, f"must be > {exclusive_minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(key, f"must be <= {maximum}, got {value!r}")
    return value


def load_simulation_config(path: str) -> dict:
    """Read and validate a simulate config; raises ConfigError naming the key."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    known = set(_CONFIG_DEFAULTS) | set(_CONFIG_REQUIRED)
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown key")
    for key in _CONFIG_REQUIRED:
        if key not in raw:
            raise ConfigError(key, "required key missing")
    config = dict(_CONFIG_DEFAULTS)
    config.update(raw)

    config["resonant_freq_hz"] = _config_number(config, "resonant_freq_hz", exclusive_minimum=0)
    config["coupling_q"] = _config_number(config, "coupling_q", exclusive_minimum=1.0)
    config["amplitude"] = _config_number(config, "amplitude", exclusive_minimum=0)
    config["electric_delay_s"] = _config_number(config, "electric_delay_s")
    config["phase_offset_rad"] = _config_number(config, "phase_offset_rad")
    config["fano_asymmetry_rad"] = _config_number(
        config, "fano_asymmetry_rad", exclusive_minimum=-math.pi / 2)
    if config["fano_asymmetry_rad"] >= math.pi / 2:
        raise ConfigError("fano_asymmetry_rad", "must be < pi/2")
    config["q_tls"] = _config_number(config, "q_tls", exclusive_minimum=0)
    config["n_c_photons"] = _config_number(config, "n_c_photons", exclusive_minimum=0)
    config["alpha_tls"] = _config_number(config, "alpha_tls", exclusive_minimum=0, maximum=2.0)
    config["delta_0"] = _config_number(config, "delta_0", minimum=0.0)
    config["temperature_k"] = _config_number(config, "temperature_k", exclusive_minimum=0)
    config["kerr_hz"] = _config_number(config, "kerr_hz")
    config["two_photon_hz"] = _config_number(config, "two_photon_hz", minimum=0.0)
    config["attenuation_db"] = _config_number(config, "attenuation_db", minimum=0.0)
    config["freq_span_linewidths"] = _config_number(
        config, "freq_span_linewidths", exclusive_minimum=0)
    config["noise_sigma"] = _config_number(config, "noise_sigma", minimum=0.0)
    if not isinstance(config["n_points"], int) or config["n_points"] < 16:
        raise ConfigError("n_points", f"expected integer >= 16, got {config['n_points']!r}")
    if not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        raise ConfigError("seed", f"expected an integer, got {config['seed']!r}")
    if not isinstance(config["label"], str):
        raise ConfigError("label", "expected a string")
    powers = config["instrument_powers_dbm"]
    if (not isinstance(powers, list) or len(powers) < 1
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                       and math.isfinite(p) for p in powers)):
        raise ConfigError("instrument_powers_dbm", "expected a list of finite numbers")
    if sorted(powers) != list(powers):
        raise ConfigError("instrument_powers_dbm", "powers must be sorted ascending")
    try:
        BranchPolicy.coerce(config["branch_policy"])
    except ValueError:
        raise ConfigError("branch_policy",
                          f"expected one of low/high/sweep_up/sweep_down, "
                          f"got {config['branch_policy']!r}")
    return config


def cmd_simulate(args) -> int:
    config = load_simulation_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.policy is not None:
        config["branch_policy"] = args.policy.replace("-", "_")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    tls = TlsParams(q_tls=config["q_tls"], n_c=config["n_c_photons"],
                    alpha_tls=config["alpha_tls"], delta_0=config["delta_0"],
                    temperature=config["temperature_k"],
                    f_r=config["resonant_freq_hz"])
    low_power_loss = float(eval_tls_loss(tls, 0.0))
    try:
        linear = LinearParams(amplitude=config["amplitude"],
                              electric_delay=config["electric_delay_s"],
                              phase_offset=config["phase_offset_rad"],
                              fano_asymmetry=config["fano_asymmetry_rad"],
                              resonant_freq=config["resonant_freq_hz"],
                              internal_loss=low_power_loss,
                              coupling_loss=1.0 / config["coupling_q"])
    except ParameterError as exc:
        raise ConfigError("q_tls/delta_0/coupling_q", str(exc))

    freqs = linewidth_grid(linear, config["freq_span_linewidths"], config["n_points"])
    traces = synthesize_power_sweep(
        linear, tls, config["kerr_hz"], config["two_photon_hz"],
        config["instrument_powers_dbm"], config["attenuation_db"], freqs,
        seed=config["seed"], noise_sigma=config["noise_sigma"],
        policy=config["branch_policy"], label=config["label"])

    entries = []
    for k, trace in enumerate(traces):
        name = f"{config['label']}_p{k:02d}.csv"
        write_csv_trace(trace, os.path.join(out_dir, name))
        entries.append((os.path.join(out_dir, name), trace.instrument_power))
    manifest = SweepManifest(label=config["label"], entries=tuple(entries),
                             attenuation=config["attenuation_db"],
                             temperature=config["temperature_k"])
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest, manifest_path)
    print(f"wrote {len(traces)} trace(s) + manifest to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each flag is attached only to the commands that read it.
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", default=None, help="report output path")
    policy_flag = argparse.ArgumentParser(add_help=False)
    policy_flag.add_argument("--policy", default=None,
                             choices=["low", "high", "sweep-up", "sweep-down"],
                             help="photon-number branch policy")

    parser = argparse.ArgumentParser(
        prog="hangerfit",
        description="Loss and nonlinearity analysis for hanger-type resonators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit-linear", parents=[out_flag],
                           help="fit the linear model to one trace")
    p_fit.add_argument("trace", help="CSV trace (or .s2p) path")
    p_fit.add_argument("--window", type=float, default=10.0,
                       help="fit the points within this many linewidths centred on "
                            "the dip, starting from the estimate that placed the "
                            "window (0 fits the whole trace; default 10)")
    p_fit.set_defaults(func=cmd_fit_linear)

    p_sweep = sub.add_parser("fit-sweep", parents=[out_flag],
                             help="TLS fit of a power sweep")
    p_sweep.add_argument("manifest", help="sweep manifest JSON path (CSV or .s2p entries)")
    p_sweep.add_argument("--model", choices=["tls", "tls+2photon"], default="tls")
    p_sweep.add_argument("--exclude-nonlinear-powers", action="store_true",
                         help="leave out of the TLS fit each power whose linear fit "
                              "reports nonlinear_suspected (structured residuals "
                              "above the noise)")
    p_sweep.add_argument("--plot-table", default=None, help="qi_vs_n CSV path")
    p_sweep.add_argument("--verbose", action="store_true", help="per-power progress")
    p_sweep.set_defaults(func=cmd_fit_sweep)

    p_kerr = sub.add_parser("extract-kerr", parents=[out_flag, policy_flag],
                            help="extract Kerr and two-photon rates from a sweep")
    p_kerr.add_argument("manifest", help="sweep manifest JSON path (CSV or .s2p entries)")
    p_kerr.add_argument("--plot-table", default=None, help="kerr_slope CSV path")
    p_kerr.set_defaults(func=cmd_extract_kerr)

    p_sim = sub.add_parser("simulate", parents=[policy_flag],
                           help="synthesize a sweep campaign from a config")
    p_sim.add_argument("config", help="JSON config path")
    p_sim.add_argument("out_dir", help="output directory for traces + manifest")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the generator seed")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceParseError, ConfigError, InputMismatchError, OSError) as exc:
        print(f"hangerfit: input error: {exc}", file=sys.stderr)
        return 2
    except HangerFitError as exc:
        print(f"hangerfit: analysis error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
