"""Self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

1. The benchmark's own generator (``gen.py``) agrees with ``hangerfit.synth``
   on a linear, a sub-bifurcation and a bistable configuration.
2. Each workload runs at a tiny size with tracing on, twice.  Every metric
   that ``BENCHMARK.json`` names is printed with its unit, self times are
   >= 0, both runs give identical counts, and the untraced run prints every
   end-to-end metric.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import gen

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def generator_matches_synth():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hangerfit import LinearParams, NonlinearParams, synthesize_nonlinear
    from hangerfit.calibration import dbm_to_watts, input_photon_flux

    f_r, d_i, d_c = 5e9, 4e-5, 1.6e-4
    env = dict(amplitude=0.8, delay=30e-9, phase=0.4, fano=0.2)
    linear = LinearParams(amplitude=env["amplitude"], electric_delay=env["delay"],
                          phase_offset=env["phase"], fano_asymmetry=env["fano"],
                          resonant_freq=f_r, internal_loss=d_i, coupling_loss=d_c)
    width = f_r * (d_i + d_c)
    freqs = np.linspace(f_r - 8 * width, f_r + 4 * width, 801)
    unit, _, _ = gen.drive_terms(1.0, f_r, d_i, d_c, -1.5e3, 0.0)
    for label, xi, two_photon in (("linear", 0.0, 0.0), ("sub-bifurcation", -0.3, 300.0),
                                  ("bistable", -1.5, 0.0)):
        power_w = abs(xi / unit) if xi else 1e-15
        kerr = -1.5e3 if xi else 0.0
        ours = gen.nonlinear_s21(freqs, env["amplitude"], env["delay"], env["phase"],
                                 env["fano"], f_r, d_i, d_c, power_w, kerr, two_photon)
        theirs = synthesize_nonlinear(
            NonlinearParams(linear=linear, kerr=kerr, two_photon=two_photon,
                            drive_flux=input_photon_flux(power_w, f_r)),
            freqs, "sweep_up", noise_sigma=0.0).s21
        err = float(np.max(np.abs(ours - theirs)))
        check(err < 1e-9, f"generator differs from hangerfit.synth on the {label} "
                          f"config by {err:.3g}")
        if label == "bistable":
            counts = [len(r) for r in gen.cubic_positive_roots(
                xi, 0.0, (freqs - f_r) / width)]
            check(counts.count(3) > 10, "bistable config has no three-root region")
        print(f"ok: generator matches hangerfit.synth ({label}, max |diff| {err:.2g})")
    check(abs(gen.dbm_to_w(-30.0) - dbm_to_watts(-30.0)) < 1e-18, "dBm conversion")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n"
                                f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"], f"{workload} trace={trace} not correct:\n{proc.stdout}")
    return result["metrics"]


def tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    count_units = {"count", "1"}
    for workload in gen.WORKLOADS:
        metrics = run(workload, 0)
        check({m["name"]: m["unit"] for m in declared["end_to_end"]}
              == {k: v["unit"] for k, v in metrics.items()},
              f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        check(all(v["value"] > 0 for v in metrics.values()),
              f"{workload}: an end-to-end metric is not positive: {metrics}")
        first, second = run(workload, 1), run(workload, 1)
        for traced in (first, second):
            check({m["name"]: m["unit"] for m in declared["per_layer"]}
                  == {k: v["unit"] for k, v in traced.items()},
                  f"{workload}: per-layer metrics differ from BENCHMARK.json")
            for name, metric in traced.items():
                if name.endswith(".self_s"):
                    check(metric["value"] >= 0, f"{workload}: {name} < 0")
        for name, metric in first.items():
            if metric["unit"] in count_units:
                check(metric["value"] == second[name]["value"],
                      f"{workload}: {name} differs between traced runs: "
                      f"{metric['value']} vs {second[name]['value']}")
        check(first["trace.count_mismatches"]["value"] == 0,
              f"{workload}: counts differ between passes of one traced run")
        print(f"ok: {workload} tiny runs: {len(metrics)} end-to-end and "
              f"{len(first)} per-layer metrics, counts repeat")


if __name__ == "__main__":
    generator_matches_synth()
    tiny_runs()
    print("selftest passed")
