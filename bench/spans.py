"""In-process spans around the public functions of each ``hangerfit`` layer.

``src/`` is not edited: :class:`Tracer` replaces a function at every module
attribute that is bound to it (``hangerfit.cli.estimate_initial`` and
``hangerfit.linearfit.estimate_initial`` alike), so the wrapper sits on the
path of every caller that looks the name up, and :meth:`Tracer.uninstall`
puts the originals back.

A span records name, start, end, parent, op id and thread.  The parent comes
from a per-thread stack; a span opened on a thread with an empty stack (the
CLI's pool threads) takes the current op span as its parent.  Model
evaluations are not spans: they are counted on the innermost open span of
their thread, so their time stays in the caller's self time.  Spans are kept
in memory and written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _digest_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in _argument(args, kwargs, 0, "paths"))}


def _written_bytes(index):
    def observe(args, kwargs, result):
        return {"bytes": os.path.getsize(str(_argument(args, kwargs, index, "path")))}
    return observe


def _converged(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _roots(args, kwargs, result):
    counts = result[1]
    return {"points": int(counts.size), "three": int((counts == 3).sum())}


# (module, function, span name, observer of the call's arguments and result)
SPAN_TARGETS = (
    ("hangerfit.cli", "main", "cli.main", None),
    ("hangerfit.traceio", "parse_csv_trace", "traceio.parse_csv_trace", _rows),
    ("hangerfit.traceio", "parse_touchstone", "traceio.parse_touchstone", _rows),
    ("hangerfit.traceio", "parse_manifest", "traceio.parse_manifest", None),
    ("hangerfit.traceio", "input_digest", "traceio.input_digest", _digest_bytes),
    ("hangerfit.traceio", "write_report", "traceio.write_report", _written_bytes(1)),
    ("hangerfit.traceio", "write_plot_table", "traceio.write_plot_table", _written_bytes(2)),
    ("hangerfit.linearfit", "estimate_initial", "linearfit.estimate_initial", None),
    ("hangerfit.linearfit", "fit_linear", "linearfit.fit_linear", _converged),
    ("hangerfit.duffing", "fit_nonlinear", "duffing.fit_nonlinear", _converged),
    ("hangerfit.duffing", "selected_photon_numbers", "duffing.selected_photon_numbers", None),
    ("hangerfit.duffing", "positive_cubic_roots", "duffing.positive_cubic_roots", _roots),
    ("hangerfit.duffing", "ellipticity_metric", "duffing.ellipticity_metric", None),
    ("hangerfit.tls", "fit_tls", "tls.fit_tls", None),
)

# Model evaluations, counted on the span that made them.
COUNT_TARGETS = (
    ("hangerfit.model", "eval_linear_s21", "eval_linear_s21"),
    ("hangerfit.duffing", "eval_nonlinear_s21", "eval_nonlinear_s21"),
)


class _Open:
    """A span not yet closed: its id and the model evaluations made in it."""
    __slots__ = ("sid", "evals")

    def __init__(self, sid):
        self.sid = sid
        self.evals = {}


class Tracer:
    """Span recorder; spans are tuples
    ``(id, name, start, end, parent, op, thread, error_class, info)``."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []
        self.op_sid = None
        self.op_id = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so every call records one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].sid if stack else self.op_sid
            frame = _Open(next(self._ids))
            stack.append(frame)
            error = None
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if error is None and observe is not None:
                    info = observe(args, kwargs, result)
                if frame.evals:
                    info = dict(info or {}, evals=frame.evals)
                self.spans.append((frame.sid, name, start, end, parent,
                                   self.op_id, threading.get_ident(), error, info))
            return result
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so every call is counted on the innermost open span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                evals = stack[-1].evals
                evals[name] = evals.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def begin_op(self, op_id):
        """Open the benchmark's span for one operation; returns its id."""
        self.op_id = op_id
        self.op_sid = next(self._ids)
        return self.op_sid, time.perf_counter()

    def end_op(self, sid, start, error=None):
        self.spans.append((sid, "op", start, time.perf_counter(), None, self.op_id,
                           threading.get_ident(), error, None))
        self.op_sid = None

    def install(self):
        """Replace every ``hangerfit`` module attribute bound to a target."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "hangerfit" or name.startswith("hangerfit.")) and m]
        self.missing = []
        for module_name, func_name, name, observe in SPAN_TARGETS:
            self._replace(modules, module_name, func_name,
                          lambda fn, n=name, o=observe: self.span(n, fn, o))
        for module_name, func_name, name in COUNT_TARGETS:
            self._replace(modules, module_name, func_name,
                          lambda fn, n=name: self.counter(n, fn))

    def _replace(self, modules, module_name, func_name, make):
        home = importlib.import_module(module_name)
        original = getattr(home, func_name, None)
        if original is None:
            self.missing.append(f"{module_name}.{func_name}")
            return
        wrapper = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def dump(self, path):
        """Write every recorded span, one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span id -> duration minus the children that ran on the same thread."""
    by_id = {s[0]: s for s in spans}
    covered = {}
    for sid, _, start, end, parent, _, thread, _, _ in spans:
        owner = by_id.get(parent)
        if owner is not None and owner[6] == thread:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {s[0]: (s[3] - s[2]) - covered.get(s[0], 0.0) for s in spans}
