"""CLI: exit codes, report emission, sweep pipelines, determinism."""

import dataclasses
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
    estimate_initial,
    linewidth_grid,
    loaded_linewidth,
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


def write_single_trace(path, coupling_loss=1e-6):
    p = LinearParams(amplitude=0.9, electric_delay=12e-9, phase_offset=0.4,
                     fano_asymmetry=0.15, resonant_freq=5e9,
                     internal_loss=5e-7, coupling_loss=coupling_loss)
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
        # Overcoupled (Q_c/Q_i = 0.5) and undercoupled (Q_c/Q_i = 3) traces.
        for coupling_loss in (1e-6, 5e-7 / 3.0):
            trace_path = tmp_path / "trace.csv"
            truth = write_single_trace(trace_path, coupling_loss)
            out = tmp_path / "report.json"
            assert run(["fit-linear", trace_path, "--out", out]) == 0
            reports, meta = read_report(out)
            assert len(reports) == 1
            assert reports[0].params.resonant_freq == pytest.approx(
                truth.resonant_freq, abs=0.1 * loaded_linewidth(truth))
            assert reports[0].details["q_c_raw"] > reports[0].details["q_c"]
            assert meta["provenance"]["input_digest"].startswith("sha256:")
            assert "Q_i=" in capsys.readouterr().out

    def test_window_estimate_seeds_the_fit(self, tmp_path, monkeypatch):
        # The estimate that places the window is the fit's starting point:
        # a windowed fit-linear estimates once.
        calls = []

        def counted(trace):
            calls.append(len(trace))
            return estimate_initial(trace)

        monkeypatch.setattr(hangerfit.cli, "estimate_initial", counted)
        monkeypatch.setattr(hangerfit.linearfit, "estimate_initial", counted)
        trace_path = tmp_path / "trace.csv"
        write_single_trace(trace_path)
        assert run(["fit-linear", trace_path, "--window", 4,
                    "--out", tmp_path / "report.json"]) == 0
        assert calls == [401]

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
    def test_tls_round_trip_within_ten_percent(self, tmp_path, capsys):
        manifest_path, out_dir = simulate(tmp_path, TLS_CONFIG)
        capsys.readouterr()
        out = tmp_path / "sweep.json"
        table = tmp_path / "qi.csv"
        assert run(["fit-sweep", manifest_path, "--out", out,
                    "--plot-table", table]) == 0
        # The summary line says whether the TLS fit converged.
        assert capsys.readouterr().out.rstrip().endswith("converged=True")
        reports, meta = read_report(out)
        assert reports[0].converged
        tls = reports[0].params
        assert tls.q_tls == pytest.approx(4.0e6, rel=0.10)
        assert tls.n_c == pytest.approx(10.0, rel=0.10)
        assert tls.alpha_tls == pytest.approx(0.5, rel=0.10)
        assert tls.delta_0 == pytest.approx(2.5e-7, rel=0.10)
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "photon_number,q_internal,q_internal_err"
        assert len(rows) == 13

    def test_nonlinear_powers_excluded_from_table(self, tmp_path, capsys):
        config = dict(TLS_CONFIG, label="X1", kerr_hz=-1.5e3, coupling_q=6250.0,
                      delta_0=4.0e-5,
                      instrument_powers_dbm=list(np.linspace(-85.0, -37.0, 9)),
                      n_points=301)
        manifest_path, _ = simulate(tmp_path, config)
        out = tmp_path / "sweep.json"
        table = tmp_path / "qi.csv"
        capsys.readouterr()
        code = run(["fit-sweep", manifest_path, "--exclude-nonlinear-powers", "--verbose",
                    "--out", out, "--plot-table", table])
        assert code == 0
        reports, meta = read_report(out)
        excluded = meta["provenance"]["excluded_powers_dbm"]
        assert len(excluded) >= 1
        assert max(excluded) == pytest.approx(-37.0)
        rows = table.read_text().strip().splitlines()
        assert len(rows) - 1 == 9 - len(excluded)
        # A power is excluded exactly when its own linear fit suspects
        # nonlinearity, and its report and progress line say so.
        powers = [power for _, power in parse_manifest(manifest_path).entries]
        suspected = ["nonlinear_suspected" in r.diagnostics for r in reports[1:]]
        assert excluded == [p for p, s in zip(powers, suspected) if s]
        assert [r.details["excluded_nonlinear"] for r in reports[1:]] == suspected
        assert [d["excluded_nonlinear"] for d in meta["summary"]["per_power_details"]] \
            == suspected
        progress = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("power ")]
        assert [line.split()[1] for line in progress] == [f"{p:g}" for p in powers]
        assert [line.split("excluded=")[1] for line in progress] == [str(s) for s in suspected]

    def test_single_power_is_analysis_error(self, tmp_path, capsys):
        config = dict(TLS_CONFIG, instrument_powers_dbm=[-40.0])
        manifest_path, _ = simulate(tmp_path, config)
        assert run(["fit-sweep", manifest_path]) == 3
        err = capsys.readouterr().err
        assert "InsufficientSpanError: need >= 6 points, got 1" in err
        assert "excluded" not in err

    def test_span_error_counts_the_excluded_powers(self, tmp_path, capsys, monkeypatch):
        # Mark the seven lowest powers as nonlinear: five points are left.
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        fit_stack = hangerfit.cli.fit_linear_stack

        def suspecting(traces):
            return [dataclasses.replace(report, diagnostics=report.diagnostics
                                        | {"nonlinear_suspected"}) if k < 7 else report
                    for k, report in enumerate(fit_stack(traces))]

        monkeypatch.setattr(hangerfit.cli, "fit_linear_stack", suspecting)
        assert run(["fit-sweep", manifest_path, "--exclude-nonlinear-powers"]) == 3
        assert ("InsufficientSpanError: need >= 6 points, got 5 "
                "(7 of 12 powers excluded as nonlinear)") in capsys.readouterr().err

    def test_first_failing_power_decides_the_error(self, tmp_path, capsys):
        # A fit failure at the third power comes before an unreadable fifth
        # power, and an unreadable third power before a fit failure at the
        # fifth, although every power is read before any is fitted.
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        entries = parse_manifest(manifest_path).entries
        power = [f"power {p:g} dBm" for _, p in entries]
        write_flat_trace(pathlib.Path(entries[2][0]), entries[2][1])
        os.remove(entries[4][0])
        assert run(["fit-sweep", manifest_path]) == 3
        err = capsys.readouterr().err
        assert "NoResonanceError" in err and power[2] in err

        manifest_path, _ = simulate(tmp_path, TLS_CONFIG, "swapped")
        entries = parse_manifest(manifest_path).entries
        write_flat_trace(pathlib.Path(entries[4][0]), entries[4][1])
        os.remove(entries[2][0])
        assert run(["fit-sweep", manifest_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and power[2] in err

    def test_mixed_point_counts_fit_like_single_traces(self, tmp_path):
        manifest_path, out_dir = simulate(tmp_path, TLS_CONFIG)
        entries = parse_manifest(manifest_path).entries
        for path, power_dbm in entries[1::3]:
            # Every third power on a coarser 201-point grid.
            trace = parse_csv_trace(path)
            p = hangerfit.fit_linear(trace).params
            coarse = synthesize_linear(p, linewidth_grid(p, 10.0, 201), 0.002, seed=5,
                                       instrument_power=power_dbm, attenuation=74.0,
                                       temperature=0.01, label="R1")
            write_csv_trace(coarse, path)
        out = tmp_path / "sweep.json"
        assert run(["fit-sweep", manifest_path, "--out", out,
                    "--plot-table", tmp_path / "qi.csv"]) == 0
        reports, _ = read_report(out)
        assert sorted({r.n_points for r in reports[1:]}) == [201, 241]
        for report, (path, _) in zip(reports[1:], entries):
            alone = hangerfit.fit_linear(parse_csv_trace(path))
            assert report.params == alone.params
            assert report.std_errors == alone.std_errors
            assert report.converged == alone.converged

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

    def test_undercoupled_sweep_fits_without_the_ellipticity(self, tmp_path):
        # Q_c/Q_i of 100-200 at noise 1e-3: every linear fit succeeds and
        # none suspects nonlinearity, so the flag excludes no power.
        manifest_path, _ = simulate(tmp_path, dict(TLS_CONFIG, coupling_q=4.0e8,
                                                   noise_sigma=1e-3))
        out = tmp_path / "sweep.json"
        assert run(["fit-sweep", manifest_path, "--exclude-nonlinear-powers",
                    "--out", out, "--plot-table", tmp_path / "qi.csv"]) == 0
        reports, meta = read_report(out)
        assert meta["provenance"]["excluded_powers_dbm"] == []
        assert all("ellipticity" not in r.details for r in reports[1:])
        assert all("ellipticity" not in d for d in meta["summary"]["per_power_details"])


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

    @pytest.mark.parametrize("key, stated, given", [
        ("attenuation_db", "74.0", "75.0"), ("temperature_k", "0.01", "0.02")])
    def test_csv_drive_disagreeing_with_manifest_is_input_error(
            self, tmp_path, capsys, key, stated, given):
        # 1 dB of attenuation moves the photon number by 26 %.
        manifest_path, _ = simulate(tmp_path, TLS_CONFIG)
        path, power = third_power(manifest_path)
        trace_path = pathlib.Path(path)
        text = trace_path.read_text()
        trace_path.write_text(text.replace(f"# {key}={stated}", f"# {key}={given}"))
        assert run(["fit-sweep", manifest_path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert trace_path.name in err
        assert f"{key}={given}" in err and f"manifest {stated}" in err
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

    def test_first_failing_power_decides_the_error(self, tmp_path, capsys):
        # A constant third power fails its fit before an unreadable fifth
        # power is reported, although every power is read before any is fitted.
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        entries = parse_manifest(manifest_path).entries
        path, power_dbm = entries[2]
        trace = parse_csv_trace(path)
        write_csv_trace(dataclasses.replace(trace, s21=np.full(len(trace), 0.5 + 0.5j)), path)
        os.remove(entries[4][0])
        assert run(["extract-kerr", manifest_path]) == 3
        err = capsys.readouterr().err
        assert (f"analysis error: SingularJacobianError: power {power_dbm:g} dBm failed: "
                "trace is constant") in err
        assert "input error" not in err

    def test_mixed_point_counts_fit_like_single_traces(self, tmp_path):
        manifest_path, _ = simulate(tmp_path, KERR_CONFIG)
        manifest = parse_manifest(manifest_path)
        # The fourth power on every other point of its grid: 201 points.
        path = manifest.entries[3][0]
        trace = parse_csv_trace(path)
        write_csv_trace(dataclasses.replace(trace, freqs=trace.freqs[::2],
                                            s21=trace.s21[::2]), path)
        out = tmp_path / "kerr.json"
        assert run(["extract-kerr", manifest_path, "--out", out,
                    "--plot-table", tmp_path / "slope.csv"]) == 0
        reports, _ = read_report(out)
        assert [r.n_points for r in reports] == [401, 401, 401, 201, 401, 401]
        traces = [parse_csv_trace(path) for path, _ in manifest.entries]
        anchor = hangerfit.fit_linear(traces[0]).params
        for report, trace, (_, power_dbm) in zip(reports, traces, manifest.entries):
            flux = hangerfit.input_photon_flux(
                hangerfit.dbm_to_watts(power_dbm - manifest.attenuation), anchor.resonant_freq)
            alone = hangerfit.fit_nonlinear(
                trace, hangerfit.seed_nonlinear_guess(trace, anchor, flux), "sweep_up")
            assert report.params == alone.params
            assert report.std_errors == alone.std_errors
            assert report.converged == alone.converged

    def test_all_linear_sweep_is_analysis_error(self, tmp_path, capsys):
        config = dict(KERR_CONFIG, kerr_hz=0.0, two_photon_hz=0.0,
                      instrument_powers_dbm=list(np.linspace(-90.0, -80.0, 5)))
        manifest_path, _ = simulate(tmp_path, config)
        assert run(["extract-kerr", manifest_path]) == 3
        err = capsys.readouterr().err
        assert "low sensitivity" in err


class TestEmptyManifest:
    @pytest.mark.parametrize("command", ["fit-sweep", "extract-kerr"])
    def test_no_traces_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"label": "E", "attenuation_db": 74.0,
                                    "temperature_k": 0.01, "traces": []}))
        assert run([command, path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "manifest lists no traces" in err


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


def test_cli_import_loads_no_scipy():
    # The least-squares core is numpy-only; scipy is not a dependency.
    src = os.path.dirname(os.path.dirname(hangerfit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, hangerfit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
