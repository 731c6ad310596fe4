"""hangerfit benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tls_sweep --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed (``gen.py``, which
does not use ``hangerfit``), times cold imports of ``hangerfit.cli`` in
fresh interpreters, then runs the workload in a separate worker process
(``worker.py``): one client calling ``hangerfit.cli.main`` in process, one
operation after another, each writing to a fresh path.  It prints every
metric with its unit, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced run.  ``correct`` is false when an operation escaped
``main`` with an undocumented outcome, a report did not re-read, a repeated
operation gave different bytes, or traced passes disagreed on outcomes.
The program is always imported from ``src/`` of the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("fits_per_s", "1/s"),
    ("ok_frac", "1"),
    ("acc_frac", "1"),
    ("peak_rss_mb", "MB"),
)

# Layer -> metrics; self times are seconds per operation (mean over a traced
# pass), counts are per pass over the workload's inputs.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("traceio.parse_csv_trace.self_s", "s"),
    ("traceio.parse_csv_trace.rows", "count"),
    ("traceio.parse_touchstone.self_s", "s"),
    ("traceio.parse_touchstone.rows", "count"),
    ("traceio.input_digest.self_s", "s"),
    ("traceio.input_digest.bytes", "count"),
    ("traceio.write_report.self_s", "s"),
    ("traceio.write_report.bytes", "count"),
    ("traceio.write_plot_table.self_s", "s"),
    ("linearfit.estimate_initial.calls", "count"),
    ("linearfit.estimate_initial.self_s", "s"),
    ("linearfit.estimate_initial.fail", "count"),
    ("linearfit.fit_linear.calls", "count"),
    ("linearfit.fit_linear.self_s", "s"),
    ("linearfit.fit_linear.fail", "count"),
    ("linearfit.fit_linear.converged_frac", "1"),
    ("linearfit.model_evals_per_fit", "count"),
    ("duffing.fit_nonlinear.calls", "count"),
    ("duffing.fit_nonlinear.self_s", "s"),
    ("duffing.fit_nonlinear.fail", "count"),
    ("duffing.fit_nonlinear.converged_frac", "1"),
    ("duffing.model_evals_per_fit", "count"),
    ("duffing.positive_cubic_roots.self_s", "s"),
    ("duffing.positive_cubic_roots.points", "count"),
    ("duffing.bistable_point_frac", "1"),
    ("duffing.selected_photon_numbers.self_s", "s"),
    ("duffing.ellipticity_metric.self_s", "s"),
    ("tls.fit_tls.calls", "count"),
    ("tls.fit_tls.self_s", "s"),
    ("tls.fit_tls.fail", "count"),
    ("import.hangerfit.cli_s", "s"),
    ("import.scipy.optimize_s", "s"),
    ("import.scipy.signal_s", "s"),
    ("import.numpy_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_s", "s"),
    ("trace.count_mismatches", "count"),
) + tuple((f"outcome.{name}", "count") for name in (
    "ok", "HangerFitError", "NoResonanceError", "InsufficientSpanError",
    "LowSignalError", "BifurcationUnstableError", "other"))

SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3
IMPORT_MODULES = ("hangerfit.cli", "scipy.optimize", "scipy.signal", "numpy")
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _src_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cold_import_seconds(root):
    """Wall time of a fresh interpreter importing ``hangerfit.cli``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import hangerfit.cli"], cwd=root,
                          env=_src_env(root), capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import hangerfit.cli failed:\n{proc.stderr}")
    return seconds


def import_times(root):
    """Median cumulative ``-X importtime`` seconds of selected modules."""
    per_module = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hangerfit.cli"],
                              cwd=root, env=_src_env(root), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import hangerfit.cli failed:\n{proc.stderr}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in per_module and name not in seen:
                    seen[name] = int(parts[1]) * 1e-6
        for name in IMPORT_MODULES:
            per_module[name].append(seen.get(name, 0.0))  # 0: not imported
    return {f"import.{name}_s": statistics.median(v) for name, v in per_module.items()}


def run_worker(job, work, deadline):
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                               job_path, result_path], cwd=job["root"],
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def tail(samples):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample.  Returns (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end_metrics(result, setup):
    samples = result["samples"]
    per_input = result["per_input"]
    tail_value, tail_pct, n = tail(samples)
    truth_fits = sum(p["truth_fits"] for p in per_input)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value,
        "fits_per_s": result["fits_with_report"] / sum(samples),
        "ok_frac": sum(p["ok"] for p in per_input) / len(per_input),
        "acc_frac": sum(p["accurate"] for p in per_input) / truth_fits,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {n} samples",
             "op_p50_s": f"{n} samples",
             "setup_s": f"median of {len(setup)} cold spawns",
             "acc_frac": f"of {truth_fits} per-trace fits with known truth",
             "ok_frac": f"of {len(per_input)} inputs"}
    return values, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(result, imports):
    passes = result["passes"]
    ops = result["ops_per_pass"]
    empty = {"calls": 0, "fail": 0, "rows": 0, "bytes": 0, "points": 0, "three": 0,
             "converged": 0, "self_s": 0.0, "evals": {}}

    def per_op_self(name):
        return statistics.median(p["agg"].get(name, empty)["self_s"] / ops for p in passes)

    first = passes[0]["agg"]

    def count(name, key):
        return first.get(name, empty)[key]

    values = {}
    for metric, unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            values[metric] = per_op_self(layer)
        elif field in ("calls", "fail", "rows", "bytes", "points"):
            values[metric] = count(layer, field)
    for layer in ("linearfit.fit_linear", "duffing.fit_nonlinear"):
        done = count(layer, "calls") - count(layer, "fail")
        values[f"{layer}.converged_frac"] = _ratio(count(layer, "converged"), done)
    values["linearfit.model_evals_per_fit"] = _ratio(
        first.get("linearfit.fit_linear", empty)["evals"].get("eval_linear_s21", 0),
        count("linearfit.fit_linear", "calls"))
    values["duffing.model_evals_per_fit"] = _ratio(
        first.get("duffing.fit_nonlinear", empty)["evals"].get("eval_nonlinear_s21", 0),
        count("duffing.fit_nonlinear", "calls"))
    values["duffing.bistable_point_frac"] = _ratio(
        count("duffing.positive_cubic_roots", "three"),
        count("duffing.positive_cubic_roots", "points"))
    values.update(imports)
    values["trace.ops"] = ops
    values["trace.overhead_s"] = statistics.median(
        (p["traced_s"] - p["plain_s"]) / ops for p in passes)
    outcomes = dict(passes[0]["outcomes"])
    for metric, _ in PER_LAYER:
        if metric.startswith("outcome.") and metric != "outcome.other":
            values[metric] = outcomes.pop(metric[len("outcome."):], 0)
    values["outcome.other"] = sum(outcomes.values())
    notes = {"trace.overhead_s": f"traced minus untraced wall time per op, "
                                 f"median of {len(passes)} pass pairs"}
    values["trace.count_mismatches"] = len(result["count_mismatches"])
    if result["count_mismatches"]:
        notes["trace.count_mismatches"] = "counts differ between passes: " + ", ".join(
            result["count_mismatches"])
    if result["missing_targets"]:
        notes["trace.ops"] = "functions not found: " + ", ".join(result["missing_targets"])
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the self-test")
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hangerfit", "cli.py")):
        print("bench: run from the root of a hangerfit checkout (src/hangerfit missing)",
              file=sys.stderr)
        return 2

    base = os.path.join(root, ".bench_work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(base, f"{tag}-{os.getpid()}")
    try:
        if args.trace:
            imports = import_times(root)
        else:
            setup = [cold_import_seconds(root) for _ in range(SETUP_SPAWNS)]
        specs = gen.generate(args.workload, os.path.join(work, "inputs"), args.seed, args.size)
        for spec in specs:
            spec["tolerance"] = gen.ACC_TOLERANCE
        job = {"root": root, "specs": specs, "out_dir": os.path.join(work, "outputs"),
               "seconds": args.seconds, "trace": args.trace,
               "trace_path": os.path.join(base, "traces", f"{args.workload}.spans.jsonl")}
        result = run_worker(job, work, started + RUN_LIMIT_S)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, notes = per_layer_metrics(result, imports)
        declared = PER_LAYER
    else:
        values, notes = end_to_end_metrics(result, setup)
        declared = END_TO_END

    machine = result["machine"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']}")
    print(f"hangerfit imported from {machine['hangerfit_imported_from']}")
    times = result.get("input_median_s") or [None] * len(specs)
    for spec, outcome, seconds in zip(specs, result["per_input"], times):
        got = "exit 0" if outcome["code"] == 0 else \
            f"exit {outcome['code']} {outcome['error_class']}"
        timing = "" if seconds is None else f" median {seconds * 1e3:8.1f} ms"
        print(f"  {spec['name']:4s} {spec['stratum']:34s} {got:30s} "
              f"{'ok ' if outcome['ok'] else 'BAD'} "
              f"accurate {outcome['accurate']:2d}/{outcome['truth_fits']:<2d}{timing}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, unit in declared:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    record = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(record, seed=args.seed, workload=args.workload, machine=machine,
                       notes=notes, per_input=result["per_input"],
                       op_samples_s=result.get("samples"),
                       problems=result["problems"]), handle, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
