"""CLI: exit codes, report emission, sweep pipelines, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hangerfit
from hangerfit import (
    LinearParams,
    linewidth_grid,
    parse_csv_trace,
    parse_manifest,
    read_report,
    synthesize_linear,
    write_csv_trace,
)
from hangerfit.cli import main


def run(argv):
    return main([str(a) for a in argv])


def write_flat_trace(path, power_dbm=-60.0):
    freqs = np.linspace(5e9 - 1e5, 5e9 + 1e5, 101)
    rng = np.random.default_rng(0)
    s21 = 1.0 + 0.002 * (rng.normal(size=101) + 1j * rng.normal(size=101))
    body = [f"# power_dbm={power_dbm!r}", "# attenuation_db=74.0", "# temperature_k=0.01",
            "# label=flat", "freq_hz,s21_re,s21_im"]
    body += [f"{float(f)!r},{float(z.real)!r},{float(z.imag)!r}"
             for f, z in zip(freqs, s21)]
    path.write_text("\n".join(body) + "\n")


def write_single_trace(path):
    p = LinearParams(amplitude=0.9, electric_delay=12e-9, phase_offset=0.4,
                     fano_asymmetry=0.15, resonant_freq=5e9,
                     internal_loss=5e-7, coupling_loss=1e-6)
    freqs = linewidth_grid(p, span_linewidths=12.0, n_points=401)
    trace = synthesize_linear(p, freqs, 0.005, seed=31, instrument_power=-60.0,
                              attenuation=74.0, temperature=0.01, label="R1")
    write_csv_trace(trace, path)
    return p


TLS_CONFIG = {
    "label": "R1",
    "resonant_freq_hz": 5.0e9,
    "coupling_q": 2.0e5,
    "q_tls": 4.0e6,
    "n_c_photons": 10.0,
    "alpha_tls": 0.5,
    "delta_0": 2.5e-7,
    "temperature_k": 0.01,
    "attenuation_db": 74.0,
    "instrument_powers_dbm": list(np.linspace(-81.0, -1.0, 12)),
    "n_points": 241,
    "freq_span_linewidths": 10.0,
    "noise_sigma": 0.002,
    "seed": 2024,
}

KERR_CONFIG = {
    "label": "K1",
    "resonant_freq_hz": 5.0e9,
    "coupling_q": 6250.0,          # wide line: modest photon numbers
    "q_tls": 4.0e6,
    "n_c_photons": 10.0,
    "alpha_tls": 0.5,
    "delta_0": 4.0e-5,             # residual loss dominates: near-constant delta_i
    "temperature_k": 0.01,
    "kerr_hz": -1.5e3,
    "two_photon_hz": 1.0e3,
    "attenuation_db": 74.0,
    "instrument_powers_dbm": list(np.linspace(-53.0, -43.0, 6)),
    "n_points": 401,
    "freq_span_linewidths": 8.0,
    "noise_sigma": 0.002,
    "seed": 7,
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def simulate(tmp_path, config, subdir="campaign"):
    config_path = write_config(tmp_path, config)
    out_dir = tmp_path / subdir
    assert run(["simulate", config_path, out_dir]) == 0
    return out_dir / "manifest.json", out_dir


def third_power(manifest_path):
    """Trace path of the third sweep power and how errors name that power."""
    path, power_dbm = parse_manifest(manifest_path).entries[2]
    return path, f"power {power_dbm:g} dBm"


class TestFitLinearCommand:
    def test_success_writes_report_and_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        truth = write_single_trace(trace_path)
        out = tmp_path / "report.json"
        assert run(["fit-linear", trace_path, "--out", out]) == 0
        reports, meta = read_report(out)
        assert len(reports) == 1
        assert reports[0].params.resonant_freq == pytest.approx(
            truth.resonant_freq, abs=0.1 * 7.5e3)
        assert reports[0].details["q_c_raw"] > reports[0].details["q_c"]
        assert meta["provenance"]["input_digest"].startswith("sha256:")
        assert "Q_i=" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run(["fit-linear", tmp_path / "nope.csv"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_flat_trace_is_analysis_error(self, tmp_path, capsys):
        trace_path = tmp_path / "flat.csv"
        write_flat_trace(trace_path)
        assert run(["fit-linear", trace_path]) == 3
        assert "NoResonance" in capsys.readouterr().err

    def test_flag_of_another_command_rejected(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        write_single_trace(trace_path)
        with pytest.raises(SystemExit) as excinfo:
            run(["fit-linear", trace_path, "--seed", 3])
        assert excinfo.value.code == 2


class TestSimulateCommand:
    def test_writes_traces_and_manifest(self, tmp_path):
        manifest_path, out_dir = simulate(tmp_path, TLS_CONFIG)
        csv_files = sorted(out_dir.glob("R1_p*.csv"))
        assert len(csv_files) == 12
        assert manifest_path.exists()

    def test_same_seed_byte_identical(self, tmp_path):
        _, dir_a = simulate(tmp_path, TLS_CONFIG, "a")
        _, dir_b = simulate(tmp_path, TLS_CONFIG, "b")
        for file_a in sorted(dir_a.iterdir()):
            file_b = dir_b / file_a.name
            assert file_a.read_bytes() == file_b.read_bytes()

    def test_negative_two_photon_names_key(self, tmp_path, capsys):
        config = dict(KERR_CONFIG, two_photon_hz=-5.0)
        config_path = write_config(tmp_path, config)
        assert run(["simulate", config_path, tmp_path / "out"]) == 2
        assert "two_photon_hz" in capsys.readouterr().err

    def test_unknown_key_names_key(self, tmp_path, capsys):
        config = dict(TLS_CONFIG, kerr_coefficient=1.0)
        config_path = write_config(tmp_path, config)
        assert run(["simulate", config_path, tmp_path / "out"]) == 2
        assert "kerr_coefficient" in capsys.readouterr().err

    def test_unsorted_powers_rejected(self, tmp_path, capsys):
        config = dict(TLS_CONFIG, instrument_powers_dbm=[-10.0, -20.0])
        config_path = write_config(tmp_path, config)
        assert run(["simulate", config_path, tmp_path / "out"]) == 2
        assert "instrument_powers_dbm" in capsys.readouterr().err


class TestFitSweepCommand:
    def test_tls_round_trip_within_ten_percent(self, tmp_path):
        manifest_path, out_dir = simulate(tmp_path, TLS_CONFIG)
        out = tmp_path / "sweep.json"
        table = tmp_path / "qi.csv"
        assert run(["fit-sweep", manifest_path, "--out", out,
                    "--plot-table", table]) == 0
        reports, meta = read_report(out)
        tls = reports[0].params
        assert tls.q_tls == pytest.approx(4.0e6, rel=0.10)
        assert tls.n_c == pytest.approx(10.0, rel=0.10)
        assert tls.alpha_tls == pytest.approx(0.5, rel=0.10)
        assert tls.delta_0 == pytest.approx(2.5e-7, rel=0.10)
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "photon_number,q_internal,q_internal_err"
        assert len(rows) == 13

    def test_nonlinear_powers_excluded_from_table(self, tmp_path):
        config = dict(TLS_CONFIG, label="X1", kerr_hz=-1.5e3, coupling_q=6250.0,
                      delta_0=4.0e-5,
                      instrument_powers_dbm=list(np.linspace(-85.0, -37.0, 9)),
                      n_points=301)
        manifest_path, _ = simulate(tmp_path, config)
        out = tmp_path / "sweep.json"
        table = tmp_path / "qi.csv"
        code = run(["fit-sweep", manifest_path, "--exclude-nonlinear-powers",
                    "--out", out, "--plot-table", table])
        assert code == 0
        _, meta = read_report(out)
        excluded = meta["provenance"]["excluded_powers_dbm"]
        assert len(excluded) >= 1
        assert max(excluded) == pytest.approx(-37.0)
        rows = table.read_text().strip().splitlines()
        assert len(rows) - 1 == 9 - len(excluded)

    def test_single_power_is_analysis_error(self, tmp_path, capsys):
        config = dict(TLS_CONFIG, instrument_powers_dbm=[-40.0])
        manifest_path, _ = simulate(tmp_path, config)
        assert run(["fit-sweep", manifest_path]) == 3
        assert "InsufficientSpan" in capsys.readouterr().err

    def test_missing_trace_is_input_error_naming_power(self, tmp_path, capsys):
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        path, power = third_power(manifest_path)
        os.remove(path)
        assert run(["fit-sweep", manifest_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert power in err

    def test_flat_trace_keeps_its_error_class(self, tmp_path, capsys):
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        path, power = third_power(manifest_path)
        # The flat trace states its manifest power, so only the fit can fail.
        write_flat_trace(pathlib.Path(path), parse_manifest(manifest_path).entries[2][1])
        assert run(["fit-sweep", manifest_path]) == 3
        err = capsys.readouterr().err
        assert "NoResonanceError" in err
        assert power in err


def touchstone_copy(manifest_path, out_dir):
    """RI .s2p copy of every trace of a sweep, with a manifest naming them."""
    out_dir.mkdir()
    payload = json.loads(manifest_path.read_text())
    for item in payload["traces"]:
        trace = parse_csv_trace(manifest_path.parent / item["path"])
        rows = [" ".join(repr(float(v)) for v in (f, 0.0, 0.0, z.real, z.imag,
                                                   z.real, z.imag, 0.0, 0.0))
                for f, z in zip(trace.freqs, trace.s21)]
        item["path"] = item["path"].replace(".csv", ".s2p")
        (out_dir / item["path"]).write_text("# Hz S RI R 50\n" + "\n".join(rows) + "\n")
    copy_path = out_dir / "manifest.json"
    copy_path.write_text(json.dumps(payload))
    return copy_path


class TestSweepInputs:
    def test_touchstone_sweep_fits_like_csv(self, tmp_path):
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        s2p_manifest = touchstone_copy(manifest_path, tmp_path / "s2p")
        fitted = []
        for tag, path in (("csv", manifest_path), ("s2p", s2p_manifest)):
            out = tmp_path / f"{tag}.json"
            assert run(["fit-sweep", path, "--out", out,
                        "--plot-table", tmp_path / f"{tag}.csv"]) == 0
            reports, _ = read_report(out)
            fitted.append([(r.params, r.std_errors, r.details) for r in reports])
        assert len(fitted[1]) == 13
        assert fitted[0] == fitted[1]
        assert (tmp_path / "csv.csv").read_bytes() == (tmp_path / "s2p.csv").read_bytes()

    def test_touchstone_entry_takes_manifest_drive(self, tmp_path):
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        s2p_manifest = touchstone_copy(manifest_path, tmp_path / "s2p")
        manifest = parse_manifest(s2p_manifest)
        path, power_dbm = manifest.entries[2]
        trace = hangerfit.cli._load_trace(path, manifest, power_dbm)
        assert trace.instrument_power == power_dbm
        assert trace.attenuation == TLS_CONFIG["attenuation_db"]
        assert trace.temperature == TLS_CONFIG["temperature_k"]

    @pytest.mark.parametrize("command", ["fit-sweep", "extract-kerr"])
    def test_csv_power_disagreeing_with_manifest_is_input_error(
            self, tmp_path, capsys, command):
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        path, power = third_power(manifest_path)
        trace_path = pathlib.Path(path)
        stated = parse_manifest(manifest_path).entries[2][1]
        text = trace_path.read_text()
        trace_path.write_text(text.replace(f"# power_dbm={stated!r}", "# power_dbm=-12.5"))
        assert run([command, manifest_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert trace_path.name in err
        assert "-12.5" in err and repr(stated) in err
        assert power in err


class TestExtractKerrCommand:
    def test_round_trip(self, tmp_path):
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        out = tmp_path / "kerr.json"
        table = tmp_path / "slope.csv"
        assert run(["extract-kerr", manifest_path, "--out", out,
                    "--plot-table", table]) == 0
        _, meta = read_report(out)
        summary = meta["summary"]
        assert summary["kerr_hz"] == pytest.approx(-1.5e3, rel=0.05)
        assert summary["two_photon_hz"] == pytest.approx(1.0e3, rel=0.05)
        assert summary["kerr_r_squared"] > 0.99
        rows = table.read_text().strip().splitlines()
        assert len(rows) == 7

    def test_two_powers_insufficient(self, tmp_path, capsys):
        config = dict(KERR_CONFIG, instrument_powers_dbm=[-53.0, -43.0])
        manifest_path, _ = simulate(tmp_path, config)
        assert run(["extract-kerr", manifest_path]) == 3
        assert "Insufficient" in capsys.readouterr().err

    def test_missing_trace_is_input_error_naming_power(self, tmp_path, capsys):
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        path, power = third_power(manifest_path)
        os.remove(path)
        assert run(["extract-kerr", manifest_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert power in err

    def test_each_trace_parsed_once(self, tmp_path, monkeypatch):
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        parsed = []
        parse = hangerfit.cli.parse_csv_trace

        def counting_parse(path):
            parsed.append(path)
            return parse(path)

        monkeypatch.setattr(hangerfit.cli, "parse_csv_trace", counting_parse)
        assert run(["extract-kerr", manifest_path, "--out", tmp_path / "kerr.json",
                    "--plot-table", tmp_path / "slope.csv"]) == 0
        assert parsed == [path for path, _ in parse_manifest(manifest_path).entries]

    def test_all_linear_sweep_is_analysis_error(self, tmp_path, capsys):
        config = dict(KERR_CONFIG, kerr_hz=0.0, two_photon_hz=0.0,
                      instrument_powers_dbm=list(np.linspace(-90.0, -80.0, 5)))
        manifest_path, _ = simulate(tmp_path, config)
        assert run(["extract-kerr", manifest_path]) == 3
        err = capsys.readouterr().err
        assert "low sensitivity" in err


class TestManifestOrder:
    def test_reversed_manifest_gives_identical_sweep_outputs(self, tmp_path):
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        payload = json.loads(manifest_path.read_text())
        payload["traces"].reverse()
        reversed_path = manifest_path.with_name("reversed.json")
        reversed_path.write_text(json.dumps(payload))
        outputs = []
        for tag, path in (("given", manifest_path), ("reversed", reversed_path)):
            out, table = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            assert run(["fit-sweep", path, "--out", out, "--plot-table", table]) == 0
            outputs.append((out.read_bytes(), table.read_bytes()))
        assert outputs[0] == outputs[1]


class TestEndToEndDeterminism:
    def test_repeat_runs_identical_reports(self, tmp_path):
        results = []
        for tag in ("run1", "run2"):
            base = tmp_path / tag
            base.mkdir()
            config_path = write_config(base, KERR_CONFIG)
            out_dir = base / "campaign"
            assert run(["simulate", config_path, out_dir]) == 0
            sweep_out = base / "sweep.json"
            kerr_out = base / "kerr.json"
            assert run(["fit-sweep", out_dir / "manifest.json",
                        "--out", sweep_out, "--plot-table", base / "qi.csv"]) == 0
            assert run(["extract-kerr", out_dir / "manifest.json",
                        "--out", kerr_out, "--plot-table", base / "slope.csv"]) == 0
            results.append((sweep_out.read_bytes(), kerr_out.read_bytes(),
                            (base / "qi.csv").read_bytes(),
                            (base / "slope.csv").read_bytes()))
        assert results[0] == results[1]


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal alone costs about half of a cold start; no command needs it.
    src = os.path.dirname(os.path.dirname(hangerfit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hangerfit.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
