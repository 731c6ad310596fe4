"""File formats: round trips, Touchstone conversions, malformed-input corpus."""

import cmath
import json
import math
import warnings

import numpy as np
import pytest

from hangerfit import traceio
from hangerfit.cli import main
from hangerfit import (
    FitReport,
    FrequencyTrace,
    LinearParams,
    MalformedOptionLineError,
    MalformedRowError,
    MissingMetadataError,
    NonlinearParams,
    NonMonotoneFrequencyError,
    ParameterError,
    SweepManifest,
    TlsParams,
    TraceParseError,
    UnsupportedFormatError,
    linewidth_grid,
    parse_csv_trace,
    parse_manifest,
    parse_touchstone,
    read_report,
    synthesize_linear,
    write_csv_trace,
    write_manifest,
    write_plot_table,
    write_report,
)


def make_trace():
    p = LinearParams(amplitude=0.83, electric_delay=31.7e-9, phase_offset=0.41,
                     fano_asymmetry=0.12, resonant_freq=5.123456789e9,
                     internal_loss=4.2e-7, coupling_loss=1.9e-6)
    freqs = linewidth_grid(p, n_points=64)
    return synthesize_linear(p, freqs, 0.01, seed=77, instrument_power=-63.0,
                             attenuation=74.0, temperature=0.011, label="R3")


CSV_BODY = """# power_dbm=-60.0
# attenuation_db=74.0
# temperature_k=0.01
# label=demo
freq_hz,s21_re,s21_im
4.0e9,0.99,0.01
4.1e9,0.98,0.02
4.2e9,0.97,0.03
4.3e9,0.96,0.04
4.4e9,0.95,0.05
4.5e9,0.94,0.06
4.6e9,0.93,0.07
4.7e9,0.92,0.08
"""

S2P_BODY = """! demo file
# GHz S RI R 50
5.000 0.1 0.0 0.99 0.01 0.0 0.0 0.1 0.0
5.001 0.1 0.0 0.98 0.02 0.0 0.0 0.1 0.0
5.002 0.1 0.0 0.97 0.03 0.0 0.0 0.1 0.0
5.003 0.1 0.0 0.96 0.04 0.0 0.0 0.1 0.0
5.004 0.1 0.0 0.95 0.05 0.0 0.0 0.1 0.0
5.005 0.1 0.0 0.94 0.06 0.0 0.0 0.1 0.0
5.006 0.1 0.0 0.93 0.07 0.0 0.0 0.1 0.0
5.007 0.1 0.0 0.92 0.08 0.0 0.0 0.1 0.0
"""


class TestCsvTrace:
    def test_small_wellformed_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_BODY)
        trace = parse_csv_trace(path)
        assert len(trace) == 8
        assert trace.instrument_power == -60.0
        assert trace.label == "demo"
        assert trace.s21[0] == 0.99 + 0.01j

    def test_write_parse_round_trip_is_exact(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.csv"
        write_csv_trace(trace, path)
        back = parse_csv_trace(path)
        np.testing.assert_array_equal(back.freqs, trace.freqs)
        np.testing.assert_array_equal(back.s21, trace.s21)
        assert back.instrument_power == trace.instrument_power
        assert back.attenuation == trace.attenuation
        assert back.temperature == trace.temperature
        assert back.label == trace.label

    def test_decreasing_frequency_reports_row(self, tmp_path):
        body = CSV_BODY.replace("4.3e9", "4.05e9")
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(NonMonotoneFrequencyError) as err:
            parse_csv_trace(path)
        assert err.value.line == 9  # the offending data row


class TestTouchstone:
    def test_ghz_unit_scaling(self, tmp_path):
        path = tmp_path / "a.s2p"
        path.write_text(S2P_BODY)
        trace = parse_touchstone(path)
        assert trace.freqs[0] == pytest.approx(5.0e9)
        assert trace.s21[0] == pytest.approx(0.99 + 0.01j)

    def test_magnitude_angle_conversion(self, tmp_path):
        rows = "\n".join(
            f"{5.0 + k * 0.001:.3f} 0.1 0 0.5 90 0 0 0.1 0" for k in range(8))
        path = tmp_path / "ma.s2p"
        path.write_text("# GHz S MA R 50\n" + rows + "\n")
        trace = parse_touchstone(path)
        assert trace.s21[0] == pytest.approx(0.5j, abs=1e-12)

    def test_db_conversion(self, tmp_path):
        rows = "\n".join(
            f"{5.0 + k * 0.001:.3f} -20 0 -6.0206 0 -40 0 -20 0" for k in range(8))
        path = tmp_path / "db.s2p"
        path.write_text("# GHz S DB R 50\n" + rows + "\n")
        trace = parse_touchstone(path)
        assert trace.s21[0].real == pytest.approx(0.5, rel=1e-4)
        assert trace.s21[0].imag == 0.0

    def test_port_pair_selection(self, tmp_path):
        path = tmp_path / "a.s2p"
        path.write_text(S2P_BODY)
        s11 = parse_touchstone(path, port_pair=(1, 1))
        assert s11.s21[0] == pytest.approx(0.1 + 0.0j)

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "a.s2p"
        path.write_text("! header\n\n" + S2P_BODY + "! trailing\n")
        assert len(parse_touchstone(path)) == 8


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _extend_rows(body, first_row, suffix):
    """``body`` with ``suffix`` appended to every line from ``first_row`` on."""
    lines = body.splitlines()
    return "\n".join(lines[:first_row] + [line + suffix for line in lines[first_row:]]) + "\n"


def malformed_csv_cases():
    """name -> (file body, error class, line the error names)."""
    rows_ok = CSV_BODY.splitlines()[5:]
    header_meta = CSV_BODY.splitlines()[:4]
    cases = {
        "missing_header.csv": (
            "\n".join(header_meta + rows_ok) + "\n", MalformedRowError, 5),
        "bad_float.csv": (
            CSV_BODY.replace("0.97", "zero.97"), MalformedRowError, 8),
        "wrong_columns.csv": (
            CSV_BODY.replace("4.2e9,0.97,0.03", "4.2e9,0.97"), MalformedRowError, 8),
        "extra_columns.csv": (
            CSV_BODY.replace("4.2e9,0.97,0.03", "4.2e9,0.97,0.03,7"), MalformedRowError, 8),
        "four_values_every_row.csv": (
            _extend_rows(CSV_BODY, 5, ",7"), MalformedRowError, 6),
        "trailing_comma.csv": (
            CSV_BODY.replace("4.2e9,0.97,0.03", "4.2e9,0.97,0.03,"), MalformedRowError, 8),
        "non_monotone.csv": (
            CSV_BODY.replace("4.3e9", "4.1e9"), NonMonotoneFrequencyError, 9),
        "duplicate_freq.csv": (
            CSV_BODY.replace("4.3e9", "4.2e9"), NonMonotoneFrequencyError, 9),
        "missing_power.csv": (
            CSV_BODY.replace("# power_dbm=-60.0\n", ""), MissingMetadataError, 4),
        "missing_attenuation.csv": (
            CSV_BODY.replace("# attenuation_db=74.0\n", ""), MissingMetadataError, 4),
        "missing_temperature.csv": (
            CSV_BODY.replace("# temperature_k=0.01\n", ""), MissingMetadataError, 4),
        "missing_label.csv": (
            CSV_BODY.replace("# label=demo\n", ""), MissingMetadataError, 4),
        "bad_metadata_line.csv": (
            CSV_BODY.replace("# label=demo", "# label demo"), MalformedRowError, 4),
        "bad_metadata_value.csv": (
            CSV_BODY.replace("-60.0", "minus sixty"), MalformedRowError, 5),
        "nan_value.csv": (
            CSV_BODY.replace("0.97", "nan"), MalformedRowError, 8),
        "too_few_rows.csv": (
            "\n".join(CSV_BODY.splitlines()[:8]) + "\n", MalformedRowError, 8),
        "header_only.csv": (
            "\n".join(CSV_BODY.splitlines()[:5]) + "\n", MalformedRowError, 5),
        "metadata_after_header.csv": (
            CSV_BODY + "# label=late\n", MalformedRowError, 14),
        "hash_line_among_rows.csv": (
            CSV_BODY.replace("4.3e9,", "# note\n4.3e9,"), MalformedRowError, 9),
        "wrong_header_names.csv": (
            CSV_BODY.replace("freq_hz,s21_re,s21_im", "f,re,im"), MalformedRowError, 5),
    }
    return cases


def malformed_touchstone_cases():
    """name -> (file body, error class, line the error names)."""
    return {
        "v2_keyword.s2p": (
            "[Version] 2.0\n" + S2P_BODY, UnsupportedFormatError, 1),
        "keyword_after_data.s2p": (
            S2P_BODY + "[End]\n", UnsupportedFormatError, 11),
        "non_s_parameter.s2p": (
            S2P_BODY.replace("# GHz S RI R 50", "# GHz Y RI R 50"),
            UnsupportedFormatError, 2),
        "bad_unit.s2p": (
            S2P_BODY.replace("# GHz S RI R 50", "# LIGHTYEARS S RI R 50"),
            MalformedOptionLineError, 2),
        "bad_impedance.s2p": (
            S2P_BODY.replace("R 50", "R fifty"), MalformedOptionLineError, 2),
        "missing_option_line.s2p": (
            S2P_BODY.replace("# GHz S RI R 50\n", ""), MalformedOptionLineError, 2),
        "duplicate_option_line.s2p": (
            S2P_BODY.replace("! demo file", "# GHz S RI R 50"),
            MalformedOptionLineError, 2),
        "short_row.s2p": (
            S2P_BODY.replace("5.003 0.1 0.0 0.96 0.04 0.0 0.0 0.1 0.0",
                             "5.003 0.1 0.0"), MalformedRowError, 6),
        "tenth_token.s2p": (
            S2P_BODY.replace("5.003 0.1 0.0 0.96 0.04 0.0 0.0 0.1 0.0",
                             "5.003 0.1 0.0 0.96 0.04 0.0 0.0 0.1 0.0 0.5"),
            MalformedRowError, 6),
        "ten_tokens_every_row.s2p": (
            _extend_rows(S2P_BODY, 2, " 0.5"), MalformedRowError, 3),
        "bad_number.s2p": (
            S2P_BODY.replace("0.96", "0.9x6"), MalformedRowError, 6),
        "non_monotone.s2p": (
            S2P_BODY.replace("5.003", "5.001"), NonMonotoneFrequencyError, 6),
        "nan_s21.s2p": (
            S2P_BODY.replace("0.96 0.04", "nan 0.04"), MalformedRowError, 6),
        "inf_frequency.s2p": (
            S2P_BODY.replace("5.004", "inf"), MalformedRowError, 7),
    }


class TestMalformedCorpus:
    # Every case is parsed with warnings as errors: the bulk read must fall
    # back to the scanner without numpy warning on the way.
    @pytest.mark.parametrize("name", sorted(malformed_csv_cases()))
    def test_csv_case_reports_location(self, tmp_path, name):
        body, expected, line = malformed_csv_cases()[name]
        path = _write(tmp_path, name, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected) as err:
                parse_csv_trace(path)
        assert isinstance(err.value, TraceParseError)
        assert err.value.line == line
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("name", sorted(malformed_touchstone_cases()))
    def test_touchstone_case_reports_location(self, tmp_path, name):
        body, expected, line = malformed_touchstone_cases()[name]
        path = _write(tmp_path, name, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected) as err:
                parse_touchstone(path)
        assert isinstance(err.value, TraceParseError)
        assert err.value.line == line

    @pytest.mark.parametrize("name", ["nan_s21.s2p", "inf_frequency.s2p"])
    def test_non_finite_touchstone_value_is_input_error(self, tmp_path, capsys, name):
        body, _, line = malformed_touchstone_cases()[name]
        path = _write(tmp_path, name, body)
        code = main(["fit-linear", str(path), "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert f"{path}:{line}: non-finite value" in capsys.readouterr().err

    def test_corpus_has_at_least_twenty_files(self):
        total = len(malformed_csv_cases()) + len(malformed_touchstone_cases())
        assert total >= 20


def _no_scan(*args, **kwargs):
    raise AssertionError("the line scanner ran on a well-formed file")


def _csv_text(freqs, s21, number, *, spaced=False, blank_every=0, newline="\n"):
    sep = " , " if spaced else ","
    lines = ["# power_dbm=-60.0", "# attenuation_db=74.0", "# temperature_k=0.01",
             "# label=diff", "freq_hz,s21_re,s21_im"]
    for k, (f_val, z) in enumerate(zip(freqs, s21)):
        if blank_every and k and k % blank_every == 0:
            lines.append("")
        lines.append(sep.join(number(float(v)) for v in (f_val, z.real, z.imag)))
    return newline.join(lines) + newline


def _s2p_text(freqs, s21, fmt, unit, number, *, comment=False, blank_every=0,
              newline="\n"):
    scale = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}[unit]
    s11 = np.full(s21.shape, 0.05 - 0.02j)

    def pair(z):
        if fmt == "RI":
            return z.real, z.imag
        angle = np.degrees(np.angle(z))
        return (np.abs(z) if fmt == "MA" else 20.0 * np.log10(np.abs(z))), angle

    cols = [freqs / scale]
    for z in (s11, s21, s21, s11):
        cols.extend(pair(z))
    lines = ["! differential test file", f"# {unit} S {fmt} R 50"]
    for k, row in enumerate(np.column_stack(cols).tolist()):
        if blank_every and k and k % blank_every == 0:
            lines.append("")
        line = " ".join(number(v) for v in row)
        lines.append(line + (" ! row comment" if comment and k % 5 == 2 else ""))
    return newline.join(lines) + newline


def _diff_trace():
    rng = np.random.default_rng(11)
    freqs = np.linspace(4.9e9, 5.1e9, 97) + rng.uniform(-1e3, 1e3, 97)
    s21 = (0.8 + 0.1 * rng.normal(size=97)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 97))
    s21[3] = complex(-0.5, -0.0)  # a negative zero and a -180 degree angle
    return freqs, s21


NUMBER_STYLES = {
    "repr": repr,
    "exp6": lambda v: f"{v:.6e}",
    "plus": lambda v: f"{v:+.17g}",
}

CSV_LAYOUTS = {
    "plain": {},
    "spaced": {"spaced": True},
    "crlf": {"newline": "\r\n"},
    "blank_lines": {"blank_every": 7},
}

S2P_LAYOUTS = {
    "plain": {},
    "inline_comment": {"comment": True},
    "crlf": {"newline": "\r\n"},
    "blank_lines": {"blank_every": 7},
}


class TestBulkMatchesScanner:
    """The bulk read gives the scanner's arrays, and it runs on well-formed files."""

    @pytest.mark.parametrize("style", sorted(NUMBER_STYLES))
    @pytest.mark.parametrize("layout", sorted(CSV_LAYOUTS))
    def test_csv(self, tmp_path, monkeypatch, style, layout):
        freqs, s21 = _diff_trace()
        path = _write(tmp_path, "d.csv", _csv_text(freqs, s21, NUMBER_STYLES[style],
                                                   **CSV_LAYOUTS[layout]))
        scanned = traceio._scan_csv_trace(str(path))
        monkeypatch.setattr(traceio, "_scan_csv_trace", _no_scan)
        bulk = parse_csv_trace(path)
        assert bulk.freqs.tobytes() == scanned.freqs.tobytes()
        assert bulk.s21.tobytes() == scanned.s21.tobytes()
        assert (bulk.instrument_power, bulk.attenuation, bulk.temperature, bulk.label) == (
            scanned.instrument_power, scanned.attenuation, scanned.temperature, scanned.label)

    @pytest.mark.parametrize("style", sorted(NUMBER_STYLES))
    @pytest.mark.parametrize("layout", sorted(S2P_LAYOUTS))
    @pytest.mark.parametrize("fmt, unit", [("RI", "HZ"), ("MA", "KHZ"),
                                           ("DB", "MHZ"), ("RI", "GHZ"),
                                           ("MA", "GHZ"), ("DB", "HZ")])
    def test_touchstone(self, tmp_path, monkeypatch, fmt, unit, layout, style):
        freqs, s21 = _diff_trace()
        path = _write(tmp_path, "d.s2p", _s2p_text(freqs, s21, fmt, unit,
                                                   NUMBER_STYLES[style],
                                                   **S2P_LAYOUTS[layout]))
        drive = {"instrument_power": -20.0, "attenuation": 60.0,
                 "temperature": 0.015, "label": "d"}
        scanned = traceio._scan_touchstone(str(path), 1, drive)
        monkeypatch.setattr(traceio, "_scan_touchstone", _no_scan)
        bulk = parse_touchstone(path, **drive)
        assert bulk.freqs.tobytes() == scanned.freqs.tobytes()
        if fmt == "DB":
            np.testing.assert_allclose(bulk.s21, scanned.s21, rtol=1e-15, atol=0)
        else:
            assert bulk.s21.tobytes() == scanned.s21.tobytes()

    def test_fast_path_on_each_format(self, tmp_path, monkeypatch):
        csv_path = _write(tmp_path, "t.csv", CSV_BODY)
        s2p_paths = {fmt: _write(tmp_path, f"{fmt}.s2p", _s2p_text(
            *_diff_trace(), fmt, "GHZ", repr)) for fmt in ("RI", "MA", "DB")}
        monkeypatch.setattr(traceio, "_scan_csv_trace", _no_scan)
        monkeypatch.setattr(traceio, "_scan_touchstone", _no_scan)
        assert len(parse_csv_trace(csv_path)) == 8
        for path in s2p_paths.values():
            assert len(parse_touchstone(path)) == 97

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_conversion_matches_scalar_formula(self, fmt):
        rng = np.random.default_rng(5)
        first = rng.uniform(-40.0, 2.0, 500)
        second = rng.uniform(-180.0, 180.0, 500)
        second[:3] = (0.0, 90.0, -180.0)
        values = traceio._touchstone_s21(first, second, fmt)
        if fmt == "RI":
            expected = [complex(a, b) for a, b in zip(first, second)]
            assert values.tobytes() == np.array(expected).tobytes()
            return
        scale = (lambda a: a) if fmt == "MA" else (lambda a: 10.0 ** (a / 20.0))
        expected = [scale(a) * cmath.exp(1j * math.radians(b)) for a, b in zip(first, second)]
        np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0)


class TestScannerFallback:
    """Well-formed layouts the bulk read declines still parse, via the scanner."""

    @pytest.fixture
    def scan_calls(self, monkeypatch):
        calls = []
        for name in ("_scan_csv_trace", "_scan_touchstone"):
            scan = getattr(traceio, name)

            def spy(*args, _scan=scan, **kwargs):
                calls.append(args[0])
                return _scan(*args, **kwargs)

            monkeypatch.setattr(traceio, name, spy)
        return calls

    def test_whitespace_only_line_between_rows(self, tmp_path, scan_calls):
        clean = parse_csv_trace(_write(tmp_path, "clean.csv", CSV_BODY))
        assert scan_calls == []
        path = _write(tmp_path, "ws.csv", CSV_BODY.replace("4.3e9,", "   \n4.3e9,"))
        trace = parse_csv_trace(path)
        assert scan_calls == [str(path)]
        assert trace.freqs.tobytes() == clean.freqs.tobytes()
        assert trace.s21.tobytes() == clean.s21.tobytes()

    def test_comment_between_option_line_and_data(self, tmp_path, scan_calls):
        body = S2P_BODY.replace("# GHz S RI R 50\n", "# GHz S RI R 50\n! rows follow\n\n")
        trace = parse_touchstone(_write(tmp_path, "c.s2p", body))
        assert scan_calls == []
        assert len(trace) == 8

    def test_blank_line_right_after_header(self, tmp_path, scan_calls):
        path = _write(tmp_path, "b.csv", CSV_BODY.replace("s21_im\n", "s21_im\n\n"))
        assert len(parse_csv_trace(path)) == 8
        assert scan_calls == [str(path)]


class TestReports:
    def linear_report(self):
        params = LinearParams(amplitude=0.83, electric_delay=31.7e-9,
                              phase_offset=0.41, fano_asymmetry=0.12,
                              resonant_freq=5.123456789e9,
                              internal_loss=4.2e-7, coupling_loss=1.9e-6)
        return FitReport(params=params,
                         std_errors={"amplitude": 1.2e-4, "resonant_freq": 0.37},
                         residual_rms=3.3e-3, n_points=64, converged=True,
                         diagnostics=frozenset({"low_snr"}),
                         details={"q_i": 1 / 4.2e-7, "q_c": 1 / 1.9e-6})

    def nonlinear_report(self):
        linear = self.linear_report().params
        params = NonlinearParams(linear=linear, kerr=-1.5e3, two_photon=1e3,
                                 drive_flux=2.5e8)
        return FitReport(params=params, std_errors={"kerr": 31.0},
                         residual_rms=1e-2, n_points=128, converged=True,
                         diagnostics=frozenset({"bifurcated"}),
                         details={"max_photon_number": 61.5})

    def tls_report(self):
        params = TlsParams(q_tls=4e6, n_c=10.0, alpha_tls=0.5, delta_0=2.5e-7,
                           temperature=0.010, f_r=5e9)
        return FitReport(params=params, std_errors={"q_tls": 2e5},
                         residual_rms=5e-3, n_points=12, converged=True,
                         diagnostics=frozenset(), details={"tls_loss": 2.5e-7})

    def test_empty_report_list_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        write_report([], path)
        reports, meta = read_report(path)
        assert reports == []
        assert meta["schema"] == "hangerfit-report/1"

    def test_round_trip_reproduces_numeric_fields_exactly(self, tmp_path):
        path = tmp_path / "r.json"
        originals = [self.linear_report(), self.nonlinear_report(), self.tls_report()]
        write_report(originals, path, provenance={"inputs": ["a.csv"]})
        back, meta = read_report(path)
        assert meta["provenance"]["inputs"] == ["a.csv"]
        for a, b in zip(originals, back):
            assert type(a.params) is type(b.params)
            assert a.std_errors == b.std_errors
            assert a.residual_rms == b.residual_rms
            assert a.n_points == b.n_points
            assert a.diagnostics == b.diagnostics
        assert back[0].params == originals[0].params
        assert back[1].params.kerr == -1.5e3
        assert back[2].params.n_c == 10.0

    def test_bifurcated_flag_survives_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        write_report([self.nonlinear_report()], path)
        payload = json.loads(path.read_text())
        assert "bifurcated" in payload["reports"][0]["diagnostics"]

    def test_infinite_q_tls_serializes(self, tmp_path):
        params = TlsParams(q_tls=math.inf, n_c=10.0, alpha_tls=0.5,
                           delta_0=2.5e-7, temperature=0.010, f_r=5e9)
        report = FitReport(params=params, std_errors={}, residual_rms=0.0,
                           n_points=12, converged=True, diagnostics=frozenset(),
                           details={})
        path = tmp_path / "inf.json"
        write_report([report], path)
        back, _ = read_report(path)
        assert math.isinf(back[0].params.q_tls)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = SweepManifest(label="R1",
                                 entries=(("p0.csv", -90.0), ("p1.csv", -80.0)),
                                 attenuation=74.0, temperature=0.01)
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        back = parse_manifest(path)
        assert back.label == "R1"
        assert back.attenuation == 74.0
        assert [p for _, p in back.entries] == [-90.0, -80.0]
        assert all(str(tmp_path) in path for path, _ in back.entries)

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ParameterError):
            SweepManifest(label="R1", entries=(("a.csv", -90.0), ("a.csv", -80.0)),
                          attenuation=74.0, temperature=0.01)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(MalformedRowError) as err:
            parse_manifest(path)
        assert err.value.line >= 1


class TestPlotTables:
    def test_qi_vs_n_row_count(self, tmp_path):
        rows = [(10.0**k, 1e6 + k, 1e4) for k in range(12)]
        path = tmp_path / "qi.csv"
        write_plot_table("qi_vs_n", rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "photon_number,q_internal,q_internal_err"
        assert len(lines) == 13

    def test_iq_trace_matches_length(self, tmp_path):
        trace = make_trace()
        rows = [(f, z.real, z.imag) for f, z in zip(trace.freqs, trace.s21)]
        path = tmp_path / "iq.csv"
        write_plot_table("iq_trace", rows, path)
        assert len(path.read_text().strip().splitlines()) == len(trace) + 1

    def test_kerr_slope_columns(self, tmp_path):
        rows = [(10.0, -1.5e4, 300.0, 1e4, 250.0)]
        path = tmp_path / "k.csv"
        write_plot_table("kerr_slope", rows, path)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == ["photon_number", "kerr_shift_hz",
                                     "kerr_shift_err_hz", "two_photon_rate_hz",
                                     "two_photon_rate_err_hz"]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_plot_table("surprise", [], tmp_path / "x.csv")

    def test_wrong_row_width_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_plot_table("iq_trace", [(1.0, 2.0)], tmp_path / "x.csv")
