"""File formats: CSV traces, Touchstone import, manifests, reports, tables.

CSV is the canonical interchange format.  A trace file is

    # power_dbm=-90.0
    # attenuation_db=74.0
    # temperature_k=0.01
    # label=R1
    freq_hz,s21_re,s21_im
    4199962500,0.9893498417836845,0.0039121371872200075
    ...

Touchstone v1 ``.s2p`` files are import-only (the format carries no power
metadata).  Reports and manifests are JSON.  All numbers are serialized
with ``repr`` (17 significant digits, shortest round trip for binary64),
text is UTF-8, line endings are tolerant on read and ``\\n`` on write.
Every parser error reports the offending line number.

Both trace parsers read the metadata, header and option lines with
``readline`` and then hand the rest of the open file to one ``np.loadtxt``
call, which streams the data block without holding the text in memory.
The result is checked in bulk: column count, at least 8 rows, finite
values, strictly increasing frequency (after unit scaling) and, for CSV,
the required metadata.  When ``loadtxt`` raises or a check fails, the file
is read again by the line scanner (``_scan_csv_trace``,
``_scan_touchstone``).  The scanner is the only code that raises a parse
error, so each error keeps its class and line number; it also accepts the
few well-formed layouts the bulk read declines, such as a whitespace-only
line between CSV rows.  Both paths give bit-identical arrays.  Touchstone
MA and DB pairs become complex with ``magnitude * exp(1j * radians(angle))``
on whole columns; for DB, numpy's ``10.0 ** x`` can differ from Python's
scalar ``**`` in the last bit (at most about 3e-16 relative).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedOptionLineError,
    MalformedRowError,
    MissingMetadataError,
    NonMonotoneFrequencyError,
    ParameterError,
    TraceParseError,
    UnsupportedFormatError,
)
from .linearfit import FitReport
from .model import FrequencyTrace, LinearParams, NonlinearParams, TlsParams

__all__ = [
    "SweepManifest",
    "parse_csv_trace",
    "write_csv_trace",
    "parse_touchstone",
    "parse_manifest",
    "write_manifest",
    "write_report",
    "read_report",
    "write_plot_table",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "hangerfit-report/1"

_CSV_HEADER = ["freq_hz", "s21_re", "s21_im"]
_REQUIRED_METADATA = ["power_dbm", "attenuation_db", "temperature_k", "label"]


@dataclass(frozen=True)
class SweepManifest:
    """Power sweep of trace files for one resonator.

    ``entries`` are kept sorted by power, ascending (equal powers keep their
    given order), so ``entries[0]`` is always the lowest power.
    """

    label: str
    entries: tuple          # of (path, power_dbm)
    attenuation: float      # dB, shared by all traces
    temperature: float      # K

    def __post_init__(self):
        paths = [path for path, _ in self.entries]
        if len(set(paths)) != len(paths):
            raise ParameterError("manifest trace paths must be distinct")
        if not all(math.isfinite(power) for _, power in self.entries):
            raise ParameterError("manifest powers must be finite")
        entries = sorted(((str(p), float(w)) for p, w in self.entries), key=lambda e: e[1])
        object.__setattr__(self, "entries", tuple(entries))


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def parse_csv_trace(path) -> FrequencyTrace:
    """Parse a CSV trace file (format documented in the module docstring).

    Raises :class:`MalformedRowError`, :class:`NonMonotoneFrequencyError`
    or :class:`MissingMetadataError`, each carrying the line number.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as handle:
        trace = _bulk_csv_trace(handle)
    return trace if trace is not None else _scan_csv_trace(path)


def _bulk_csv_trace(handle) -> FrequencyTrace | None:
    """Read a CSV trace in one ``np.loadtxt`` call; None if the scanner must."""
    metadata: dict[str, str] = {}
    for raw in iter(handle.readline, ""):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            break
        key, sep, value = line[1:].partition("=")
        if not sep:
            return None
        metadata[key.strip()] = value.strip()
    else:
        return None
    if [part.strip() for part in line.split(",")] != _CSV_HEADER:
        return None
    # A data row must follow the header at once; this also keeps loadtxt
    # from warning about an empty data block.
    first = handle.readline()
    if not first.strip():
        return None
    try:
        power = float(metadata["power_dbm"])
        attenuation = float(metadata["attenuation_db"])
        temperature = float(metadata["temperature_k"])
        rows = np.loadtxt(itertools.chain([first], handle), delimiter=",",
                          comments=None, ndmin=2)
        if rows.shape[1] != 3:
            return None
        return FrequencyTrace(freqs=rows[:, 0], s21=rows[:, 1] + 1j * rows[:, 2],
                              instrument_power=power, attenuation=attenuation,
                              temperature=temperature, label=metadata["label"])
    except (KeyError, ValueError):  # ParameterError is a ValueError
        return None


def _scan_csv_trace(path: str) -> FrequencyTrace:
    """Line-by-line CSV parser: raises each error with its line number."""
    metadata: dict[str, str] = {}
    freqs: list[float] = []
    re_parts: list[float] = []
    im_parts: list[float] = []
    header_seen = False
    header_line = 0
    lineno = 0

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise MalformedRowError("metadata after data header", path, lineno)
                body = line[1:].strip()
                if "=" not in body:
                    raise MalformedRowError(
                        f"metadata line must be 'key=value', got {body!r}", path, lineno)
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                names = [part.strip() for part in line.split(",")]
                if names != _CSV_HEADER:
                    raise MalformedRowError(
                        f"expected column header {','.join(_CSV_HEADER)!r}, got {line!r}",
                        path, lineno)
                header_seen = True
                header_line = lineno
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise MalformedRowError(
                    f"expected 3 comma-separated values, got {len(parts)}", path, lineno)
            try:
                f_val, re_val, im_val = (float(part) for part in parts)
            except ValueError:
                raise MalformedRowError(f"non-numeric value in {line!r}", path, lineno)
            if not (math.isfinite(f_val) and math.isfinite(re_val) and math.isfinite(im_val)):
                raise MalformedRowError("non-finite value", path, lineno)
            if freqs and f_val <= freqs[-1]:
                raise NonMonotoneFrequencyError(
                    f"frequency {f_val!r} not above previous {freqs[-1]!r}", path, lineno)
            freqs.append(f_val)
            re_parts.append(re_val)
            im_parts.append(im_val)

    last_line = lineno
    if not header_seen:
        raise MalformedRowError("missing column header line", path, last_line + 1)
    for key in _REQUIRED_METADATA:
        if key not in metadata:
            raise MissingMetadataError(key, path, header_line)
    try:
        power = float(metadata["power_dbm"])
        attenuation = float(metadata["attenuation_db"])
        temperature = float(metadata["temperature_k"])
    except ValueError as exc:
        raise MalformedRowError(f"non-numeric metadata: {exc}", path, header_line)
    if len(freqs) < 8:
        raise MalformedRowError(
            f"need >= 8 data rows, got {len(freqs)}", path, last_line)
    try:
        return FrequencyTrace(freqs=np.array(freqs), s21=np.array(re_parts) + 1j * np.array(im_parts),
                              instrument_power=power, attenuation=attenuation,
                              temperature=temperature, label=metadata["label"])
    except ParameterError as exc:
        raise MalformedRowError(str(exc), path, last_line)


def write_csv_trace(trace: FrequencyTrace, path) -> None:
    """Write a trace in the canonical CSV format (atomic replace)."""
    lines = [
        f"# power_dbm={float(trace.instrument_power)!r}",
        f"# attenuation_db={float(trace.attenuation)!r}",
        f"# temperature_k={float(trace.temperature)!r}",
        f"# label={trace.label}",
        ",".join(_CSV_HEADER),
    ]
    for f_val, s_val in zip(trace.freqs, trace.s21):
        lines.append(f"{float(f_val)!r},{float(s_val.real)!r},{float(s_val.imag)!r}")
    _atomic_write(str(path), "\n".join(lines) + "\n")


_TOUCHSTONE_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_TOUCHSTONE_FORMATS = ("RI", "MA", "DB")
# Column pair order in a v1 .s2p data row: S11 S21 S12 S22.
_S2P_PAIR_INDEX = {(1, 1): 0, (2, 1): 1, (1, 2): 2, (2, 2): 3}


def _touchstone_s21(first: np.ndarray, second: np.ndarray, fmt: str) -> np.ndarray:
    """Complex values of one RI, MA or DB column pair (angles in degrees)."""
    if fmt == "RI":
        values = np.empty(first.shape, dtype=complex)
        values.real = first
        values.imag = second
        return values
    magnitude = first if fmt == "MA" else 10.0 ** (first / 20.0)
    return magnitude * np.exp(1j * np.radians(second))


def _touchstone_options(line: str, path: str, lineno: int) -> tuple[float, str]:
    """Frequency scale and number format of a ``# <unit> S <fmt> R <z0>`` line."""
    tokens = line[1:].upper().split()
    # Standard defaults: GHz S MA R 50.
    unit, parameter, data_format, z0 = "GHZ", "S", "MA", 50.0
    idx = 0
    if idx < len(tokens) and tokens[idx] in _TOUCHSTONE_UNITS:
        unit = tokens[idx]
        idx += 1
    if idx < len(tokens) and tokens[idx] in ("S", "Y", "Z", "H", "G"):
        parameter = tokens[idx]
        idx += 1
    if idx < len(tokens) and tokens[idx] in _TOUCHSTONE_FORMATS:
        data_format = tokens[idx]
        idx += 1
    if idx < len(tokens):
        if tokens[idx] != "R" or idx + 1 >= len(tokens):
            raise MalformedOptionLineError(
                f"unrecognized option tokens {tokens[idx:]!r}", path, lineno)
        try:
            z0 = float(tokens[idx + 1])
        except ValueError:
            raise MalformedOptionLineError(
                f"reference impedance {tokens[idx + 1]!r} not numeric", path, lineno)
        idx += 2
    if idx != len(tokens):
        raise MalformedOptionLineError(
            f"unrecognized option tokens {tokens[idx:]!r}", path, lineno)
    if parameter != "S":
        raise UnsupportedFormatError(
            f"only S-parameter files supported, got {parameter!r}", path, lineno)
    del z0  # parsed for validation; S21 does not need renormalization
    return _TOUCHSTONE_UNITS[unit], data_format


def parse_touchstone(path, port_pair: tuple[int, int] = (2, 1), *,
                     instrument_power: float = 0.0, attenuation: float = 0.0,
                     temperature: float = 0.010, label: str | None = None) -> FrequencyTrace:
    """Parse a Touchstone v1 ``.s2p`` file and extract one S-parameter.

    The option line ``# <unit> S <RI|MA|DB> R <z0>`` controls frequency
    scaling and number format.  Drive metadata is not part of the format
    and must be supplied via the keyword arguments.

    Raises :class:`UnsupportedFormatError` for non-S parameters or
    Touchstone v2 keyword lines and :class:`MalformedOptionLineError` /
    :class:`MalformedRowError` with line numbers for syntax problems.
    """
    path = str(path)
    if port_pair not in _S2P_PAIR_INDEX:
        raise ParameterError(f"port pair {port_pair} not valid for a 2-port file")
    pair_index = _S2P_PAIR_INDEX[port_pair]
    drive = {"instrument_power": instrument_power, "attenuation": attenuation,
             "temperature": temperature,
             "label": label if label is not None else os.path.basename(path)}
    with open(path, "r", encoding="utf-8") as handle:
        trace = _bulk_touchstone(handle, path, pair_index, drive)
    return trace if trace is not None else _scan_touchstone(path, pair_index, drive)


def _bulk_touchstone(handle, path: str, pair_index: int, drive: dict) -> FrequencyTrace | None:
    """Read a Touchstone data block in one ``np.loadtxt`` call; None if the scanner must."""
    options = None
    for raw in iter(handle.readline, ""):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if not line.startswith("#") or options is not None:
            break  # the first data row; a second option line fails in loadtxt
        try:
            options = _touchstone_options(line, path, 0)
        except TraceParseError:
            return None
    else:
        return None
    if options is None:
        return None
    unit_scale, fmt = options
    try:
        # ``raw`` holds data, so loadtxt never warns about an empty block.
        rows = np.loadtxt(itertools.chain([raw], handle), comments="!", ndmin=2)
        if rows.shape[1] != 9:
            return None
        first, second = rows[:, 1 + 2 * pair_index], rows[:, 2 + 2 * pair_index]
        return FrequencyTrace(freqs=rows[:, 0] * unit_scale,
                              s21=_touchstone_s21(first, second, fmt), **drive)
    except ValueError:  # ParameterError is a ValueError
        return None


def _scan_touchstone(path: str, pair_index: int, drive: dict) -> FrequencyTrace:
    """Line-by-line Touchstone parser: raises each error with its line number."""
    unit_scale = None
    fmt = None
    freqs: list[float] = []
    firsts: list[float] = []
    seconds: list[float] = []
    lineno = 0

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("!"):
                continue
            if line.startswith("["):
                raise UnsupportedFormatError(
                    f"Touchstone v2 keyword {line.split()[0]!r} not supported", path, lineno)
            if line.startswith("#"):
                if unit_scale is not None:
                    raise MalformedOptionLineError("duplicate option line", path, lineno)
                unit_scale, fmt = _touchstone_options(line, path, lineno)
                continue
            if unit_scale is None:
                raise MalformedOptionLineError(
                    "data before the '#' option line", path, lineno)
            parts = line.split("!")[0].split()
            if len(parts) != 9:
                raise MalformedRowError(
                    f"expected 9 values (freq + 4 S-parameter pairs), got {len(parts)}",
                    path, lineno)
            try:
                numbers = [float(part) for part in parts]
            except ValueError:
                raise MalformedRowError(f"non-numeric value in {line!r}", path, lineno)
            f_val = numbers[0] * unit_scale
            first, second = numbers[1 + 2 * pair_index], numbers[2 + 2 * pair_index]
            if not (math.isfinite(f_val) and math.isfinite(first) and math.isfinite(second)):
                raise MalformedRowError("non-finite value", path, lineno)
            if freqs and f_val <= freqs[-1]:
                raise NonMonotoneFrequencyError(
                    f"frequency {f_val!r} not above previous {freqs[-1]!r}", path, lineno)
            freqs.append(f_val)
            firsts.append(first)
            seconds.append(second)

    last_line = lineno
    if unit_scale is None:
        raise MalformedOptionLineError("missing '#' option line", path, last_line + 1)
    if len(freqs) < 8:
        raise MalformedRowError(f"need >= 8 data rows, got {len(freqs)}", path, last_line)
    return FrequencyTrace(freqs=np.array(freqs),
                          s21=_touchstone_s21(np.array(firsts), np.array(seconds), fmt),
                          **drive)


def parse_manifest(path) -> SweepManifest:
    """Read a JSON sweep manifest; trace paths resolve relative to it."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MalformedRowError(f"invalid JSON: {exc.msg}", path, exc.lineno)
    base = os.path.dirname(os.path.abspath(path))
    try:
        entries = tuple(
            (os.path.join(base, item["path"]), float(item["power_dbm"]))
            for item in payload["traces"])
        return SweepManifest(label=str(payload["label"]), entries=entries,
                             attenuation=float(payload["attenuation_db"]),
                             temperature=float(payload["temperature_k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRowError(f"manifest schema violation: {exc!r}", path, 1)


def write_manifest(manifest: SweepManifest, path) -> None:
    """Write a sweep manifest as JSON with paths relative to the file."""
    base = os.path.dirname(os.path.abspath(str(path)))
    payload = {
        "label": manifest.label,
        "attenuation_db": manifest.attenuation,
        "temperature_k": manifest.temperature,
        "traces": [
            {"path": os.path.relpath(trace_path, base), "power_dbm": power}
            for trace_path, power in manifest.entries
        ],
    }
    _atomic_write(str(path), json.dumps(payload, indent=2) + "\n")


def _params_payload(params) -> dict:
    if isinstance(params, NonlinearParams):
        lin = _params_payload(params.linear)
        lin.update({"type": "nonlinear", "kerr_hz": params.kerr,
                    "two_photon_hz": params.two_photon,
                    "drive_flux": params.drive_flux})
        return lin
    if isinstance(params, LinearParams):
        return {
            "type": "linear",
            "amplitude": params.amplitude,
            "electric_delay_s": params.electric_delay,
            "phase_offset_rad": params.phase_offset,
            "fano_asymmetry_rad": params.fano_asymmetry,
            "resonant_freq_hz": params.resonant_freq,
            "internal_loss": params.internal_loss,
            "coupling_loss": params.coupling_loss,
        }
    if isinstance(params, TlsParams):
        return {
            "type": "tls",
            "q_tls": None if math.isinf(params.q_tls) else params.q_tls,
            "n_c_photons": params.n_c,
            "alpha_tls": params.alpha_tls,
            "delta_0": params.delta_0,
            "temperature_k": params.temperature,
            "resonant_freq_hz": params.f_r,
        }
    raise ParameterError(f"cannot serialize params of type {type(params).__name__}")


def _params_from_payload(payload: dict):
    kind = payload["type"]
    if kind == "linear" or kind == "nonlinear":
        linear = LinearParams(
            amplitude=payload["amplitude"],
            electric_delay=payload["electric_delay_s"],
            phase_offset=payload["phase_offset_rad"],
            fano_asymmetry=payload["fano_asymmetry_rad"],
            resonant_freq=payload["resonant_freq_hz"],
            internal_loss=payload["internal_loss"],
            coupling_loss=payload["coupling_loss"])
        if kind == "linear":
            return linear
        return NonlinearParams(linear=linear, kerr=payload["kerr_hz"],
                               two_photon=payload["two_photon_hz"],
                               drive_flux=payload["drive_flux"])
    if kind == "tls":
        q_tls = payload["q_tls"]
        return TlsParams(q_tls=math.inf if q_tls is None else q_tls,
                         n_c=payload["n_c_photons"], alpha_tls=payload["alpha_tls"],
                         delta_0=payload["delta_0"], temperature=payload["temperature_k"],
                         f_r=payload["resonant_freq_hz"])
    raise MalformedRowError(f"unknown params type {kind!r}", "<report>", 1)


def _report_payload(report: FitReport) -> dict:
    return {
        "params": _params_payload(report.params),
        "std_errors": dict(sorted(report.std_errors.items())),
        "residual_rms": report.residual_rms,
        "n_points": report.n_points,
        "converged": report.converged,
        "diagnostics": sorted(report.diagnostics),
        "details": dict(sorted(report.details.items())),
    }


def _report_from_payload(payload: dict) -> FitReport:
    return FitReport(params=_params_from_payload(payload["params"]),
                     std_errors=dict(payload["std_errors"]),
                     residual_rms=payload["residual_rms"],
                     n_points=payload["n_points"],
                     converged=payload["converged"],
                     diagnostics=frozenset(payload["diagnostics"]),
                     details=dict(payload["details"]))


def input_digest(paths) -> str:
    """SHA-256 over the raw bytes of the given files, order-sensitive."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return f"sha256:{digest.hexdigest()}"


def write_report(reports: list[FitReport], path, *, provenance: dict | None = None,
                 summary: dict | None = None) -> None:
    """Write fit reports plus provenance as versioned JSON (atomic replace).

    ``provenance`` may carry e.g. ``inputs`` (file names) and
    ``input_digest``; the tool version and schema tag are always included.
    ``summary`` holds pipeline-level results (e.g. extracted slopes).
    Reports are written with full float precision so a parse-back
    reproduces every numeric field exactly.
    """
    from . import __version__

    payload = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "provenance": dict(sorted((provenance or {}).items())),
        "summary": dict(sorted((summary or {}).items())),
        "reports": [_report_payload(report) for report in reports],
    }
    _atomic_write(str(path), json.dumps(payload, indent=2, allow_nan=True) + "\n")


def read_report(path) -> tuple[list[FitReport], dict]:
    """Parse a report file back into :class:`FitReport` objects + metadata."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != REPORT_SCHEMA:
        raise UnsupportedFormatError(
            f"unknown report schema {payload.get('schema')!r}", path, 1)
    reports = [_report_from_payload(item) for item in payload["reports"]]
    meta = {key: payload.get(key) for key in ("schema", "tool_version", "provenance", "summary")}
    return reports, meta


_TABLE_COLUMNS = {
    "qi_vs_n": ["photon_number", "q_internal", "q_internal_err"],
    "iq_trace": ["freq_hz", "re", "im"],
    "kerr_slope": ["photon_number", "kerr_shift_hz", "kerr_shift_err_hz",
                   "two_photon_rate_hz", "two_photon_rate_err_hz"],
}


def write_plot_table(kind: str, rows, path) -> None:
    """Write a plot-ready CSV table of the given kind.

    ``rows`` is an iterable of per-row value sequences matching the
    documented columns: qi_vs_n (photon_number, q_internal,
    q_internal_err), iq_trace (freq_hz, re, im), kerr_slope
    (photon_number, kerr_shift_hz, kerr_shift_err_hz, two_photon_rate_hz,
    two_photon_rate_err_hz).
    """
    if kind not in _TABLE_COLUMNS:
        raise ParameterError(f"unknown table kind {kind!r}; "
                             f"expected one of {sorted(_TABLE_COLUMNS)}")
    columns = _TABLE_COLUMNS[kind]
    lines = [",".join(columns)]
    for row in rows:
        values = list(row)
        if len(values) != len(columns):
            raise ParameterError(
                f"{kind} rows need {len(columns)} values, got {len(values)}")
        lines.append(",".join(repr(float(value)) for value in values))
    _atomic_write(str(path), "\n".join(lines) + "\n")
