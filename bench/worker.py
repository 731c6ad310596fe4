"""Closed-loop runner for one workload, in a process of its own.

Usage: python3 bench/worker.py JOB.json RESULT.json

One client runs operations one after another.  Each operation is a warm,
in-process call of ``hangerfit.cli.main(argv)`` that writes its report (and
table) to a fresh path.  After every operation, outside the timed region,
the outputs are checked: the report re-reads with ``read_report``, a failed
operation printed a typed error and left no report, and an input run again
gives byte-identical outputs.  ``peak_rss_kb`` is this process's peak
resident memory; inputs were generated by the parent process.

With ``trace`` set, the run alternates untraced and traced passes over the
whole input list and reports per-layer aggregates of the traced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

_ERROR_LINE = re.compile(r"hangerfit: (?:analysis error: (\w+):|(input error):)")


def _fail(result_path, message):
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"fatal": message}, handle)
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(2)


def _file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class Runner:
    def __init__(self, job, cli, read_report):
        self.cli = cli
        self.read_report = read_report
        self.specs = job["specs"]
        self.out_dir = job["out_dir"]
        self.count = 0
        self.first = {}      # input index -> digest and evaluation of its first run
        self.problems = []
        self.failed = 0

    def run_op(self, index, tracer=None):
        """Run and check one operation; returns (seconds, code, error_class)."""
        spec = self.specs[index]
        self.count += 1
        stem = os.path.join(self.out_dir, f"op{self.count:06d}")
        out, table = stem + ".report.json", stem + ".table.csv"
        argv = spec["argv"] + ["--out", out]
        if spec["table"]:
            argv += ["--plot-table", table]
        err = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is not None:
                sid, t_op = tracer.begin_op(self.count)
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any escape from main is a failed op
                code, crash = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(sid, t_op, None if crash is None else "crash")
        match = _ERROR_LINE.search(err.getvalue())
        error_class = None
        if match:
            error_class = match.group(1) or "InputError"
        self._check(index, code, error_class, crash, out, table if spec["table"] else None)
        return seconds, code, error_class

    def _check(self, index, code, error_class, crash, out, table):
        spec = self.specs[index]
        problems = []
        reports = None
        if crash is not None or code not in (0, 2, 3):
            problems.append(f"undocumented outcome: code={code!r} {crash or ''}")
        elif code == 0:
            try:
                reports, _ = self.read_report(out)
            except Exception as exc:  # an unreadable report is a failed op
                problems.append(f"report does not re-read: {type(exc).__name__}: {exc}")
            if table is not None and not os.path.exists(table):
                problems.append("plot table missing")
        else:
            if error_class is None:
                problems.append("error exit without a typed error message")
            if os.path.exists(out):
                problems.append("failed operation left a report behind")
        if reports is not None:
            n_traces = spec["fits"]
            if spec["kind"] == "linear_sweep":
                reports = reports[1:]
            if len(reports) != n_traces:
                problems.append(f"{len(reports)} per-trace reports, expected {n_traces}")
                reports = None
        if problems:
            self.failed += 1
            self.problems += [f"{spec['name']}: {p}" for p in problems]
            return
        digest = hashlib.sha256(f"{code}|{error_class}|".encode())
        if code == 0:
            digest.update(_file_bytes(out))
            if table is not None:
                digest.update(_file_bytes(table))
        digest = digest.hexdigest()
        first = self.first.get(index)
        if first is None:
            self.first[index] = dict(self._evaluate(spec, code, error_class, reports),
                                     digest=digest)
        elif first["digest"] != digest:
            self.failed += 1
            self.problems.append(f"{spec['name']}: repeated run gave different outputs")

    @staticmethod
    def _evaluate(spec, code, error_class, reports):
        expected = spec["expected"]
        ok = code == expected["exit"] and (
            "error" not in expected or error_class == expected["error"])
        truth = spec["truth"]
        accurate = 0
        if code == 0 and truth:
            tol = spec["tolerance"]
            for report, t in zip(reports, truth):
                p = report.params
                if spec["kind"] == "nonlinear_sweep":
                    tp_scale = t["two_photon"] if t["two_photon"] > 0 else abs(t["kerr"])
                    good = (abs(p.kerr - t["kerr"]) <= tol * abs(t["kerr"])
                            and abs(p.two_photon - t["two_photon"]) <= tol * tp_scale)
                else:
                    good = (abs(p.q_internal / t["q_i"] - 1.0) <= tol
                            and abs(p.q_coupling / t["q_c"] - 1.0) <= tol)
                accurate += bool(good)
        fits = 0
        if code == 0:
            fits = spec["fits"]
        return {"ok": ok, "code": code, "error_class": error_class,
                "accurate": accurate, "truth_fits": len(truth), "fits": fits}


def _machine(hangerfit_dir):
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "hangerfit_imported_from": hangerfit_dir}


def closed_loop(runner, seconds):
    """Warm once, then run the input list round-robin for ``seconds``,
    finishing at least one whole pass."""
    runner.run_op(0)
    n = len(runner.specs)
    samples, fits = [], 0
    per_input = [[] for _ in range(n)]
    start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - start < seconds:
        index = k % n
        dt, code, _ = runner.run_op(index)
        samples.append(dt)
        per_input[index].append(dt)
        if code == 0:
            fits += runner.specs[index]["fits"]
        k += 1
    return {"samples": samples, "fits_with_report": fits,
            "input_median_s": [statistics.median(v) for v in per_input]}


_COUNT_KEYS = ("calls", "fail", "rows", "bytes", "points", "three", "converged")


def _pass_aggregate(spans, self_of):
    """Per span name: counts, summed self time and model evaluations."""
    agg = {}
    for span in spans:
        name, error, info = span[1], span[7], span[8]
        a = agg.setdefault(name, dict.fromkeys(_COUNT_KEYS, 0) | {"self_s": 0.0, "evals": {}})
        a["calls"] += 1
        a["fail"] += error is not None
        a["self_s"] += self_of[span[0]]
        for key, value in (info or {}).items():
            if key == "evals":
                for model, count in value.items():
                    a["evals"][model] = a["evals"].get(model, 0) + count
            else:
                a[key] += value
    return agg


def traced_loop(runner, seconds, trace_path):
    from spans import Tracer, self_times

    tracer = Tracer()
    runner.run_op(0)
    n = len(runner.specs)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = sum(runner.run_op(i)[0] for i in range(n))
        tracer.install()
        first_span = len(tracer.spans)
        outcomes = {}
        try:
            traced = 0.0
            for i in range(n):
                dt, code, error_class = runner.run_op(i, tracer)
                traced += dt
                key = "ok" if code == 0 else error_class or "other"
                outcomes[key] = outcomes.get(key, 0) + 1
        finally:
            tracer.uninstall()
        spans = tracer.spans[first_span:]
        passes.append({"plain_s": plain, "traced_s": traced, "outcomes": outcomes,
                       "agg": _pass_aggregate(spans, self_times(spans))})
    tracer.dump(trace_path)
    # At the seed a failing sweep's pool.map cancels the per-power fits still
    # queued, so the work done there depends on thread timing.  Span names
    # whose counts differ between passes are reported, not treated as errors.
    counts = [{name: ({k: a[k] for k in _COUNT_KEYS}, a["evals"])
               for name, a in p["agg"].items()} for p in passes]
    varying = sorted({name for c in counts[1:] for name in set(c) | set(counts[0])
                      if c.get(name) != counts[0].get(name)})
    if any(p["outcomes"] != passes[0]["outcomes"] for p in passes):
        runner.problems.append("operation outcomes differ between traced passes")
        runner.failed += 1
    return {"passes": passes, "ops_per_pass": n, "missing_targets": tracer.missing,
            "count_mismatches": varying}


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import hangerfit
    import hangerfit.cli
    from hangerfit.traceio import read_report

    # The package is not installed; an outside copy would measure other code.
    imported_from = os.path.dirname(os.path.realpath(hangerfit.__file__))
    if imported_from != os.path.realpath(os.path.join(src, "hangerfit")):
        _fail(result_path, f"hangerfit imported from {imported_from}, not {src}")

    runner = Runner(job, hangerfit.cli, read_report)
    os.makedirs(runner.out_dir, exist_ok=True)
    if job["trace"]:
        result = traced_loop(runner, job["seconds"], job["trace_path"])
    else:
        result = closed_loop(runner, job["seconds"])
    if len(runner.first) != len(runner.specs) and not runner.failed:
        runner.problems.append("some inputs never completed a checked run")
    result.update({
        "attempted": runner.count,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "per_input": [runner.first.get(i) or {
            "ok": False, "code": None, "error_class": None, "accurate": 0,
            "truth_fits": len(spec["truth"]), "fits": 0, "digest": None}
            for i, spec in enumerate(runner.specs)],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": _machine(imported_from),
    })
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py JOB.json RESULT.json")
    main(sys.argv[1], sys.argv[2])
