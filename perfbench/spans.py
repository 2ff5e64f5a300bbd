"""In-memory spans and the hooks that place them at layer boundaries.

The benchmark never edits ``irrev``. It wraps the public functions of each
layer where other code looks them up (module attributes such as
``irrev.surrogates.iaaft``, which ``significance_test`` calls by that name),
so a span is recorded around every call into a layer: the benchmark's own
calls and the calls one layer makes into another. Spans inside a function
(for example per IAAFT phase) need hooks in the program itself and are not
recorded here.

Every hooked call also yields a small dict of counts taken from its
arguments and result (pattern counts, IAAFT iterations, bytes). The runner
reads those events for its correctness checks and input properties whether
or not spans are recorded, so the traced and untraced runs execute the same
wrappers and differ only in span recording.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans with name, start, end, parent and op id, kept in memory."""

    def __init__(self):
        self.recording = False  # switched on by the runner where it traces
        self.phase = "setup"
        self.op = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "phase": self.phase,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


def duration_s(rec: dict) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e9


def self_time_s(rec: dict, children: dict) -> float:
    """Span duration minus the time its direct children cover.

    ``children`` maps a span id to the list of its direct child spans.
    """
    return duration_s(rec) - sum(duration_s(c) for c in children[rec["id"]])


# -- what each hooked call reports ---------------------------------------------

def _measure_info(args, kwargs, result):
    return {"m": result.config.m, "tau": result.config.tau, "kind": result.kind}


def _histogram_info(args, kwargs, result):
    return {
        "m": result.config.m,
        "tau": result.config.tau,
        "transform": result.transform,
        "windows": result.n_windows,
        "tied_windows": result.n_tied_windows,
        "patterns": len(result.counts),
    }


def iaaft_info(args, kwargs, result):
    """Member index, IAAFT diagnostics and the surrogate itself."""
    surrogate, diag = result
    index = args[2] if len(args) > 2 else kwargs.get("index", 0)
    return {
        "index": int(index),
        "iterations": diag.iterations_used,
        "converged": bool(diag.converged),
        "spectrum_rms_error": diag.spectrum_rms_error,
        "surrogate": np.asarray(surrogate),  # dropped before spans are written
    }


def _series_file_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0].path)}


def _path_info(position):
    def info(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return info


# (module, attribute, span name, info). A function imported by name into
# another module is hooked there too, under the same span name.
HOOKS = (
    ("irrev.models", "generate", "models.generate", None),
    ("irrev.io", "write_series", "io.write_series", _path_info(1)),
    ("irrev.io", "read_series", "io.read_series", _series_file_info),
    ("irrev.io", "write_report", "io.write_report", _path_info(1)),
    ("irrev.io", "read_report", "io.read_report", _path_info(0)),
    ("irrev.measures", "sweep", "measures.sweep", None),
    ("irrev.measures", "measure", "measures.measure", _measure_info),
    ("irrev.measures", "build_histogram", "measures.build_histogram",
     _histogram_info),
    ("irrev.surrogates", "measure", "measures.measure", _measure_info),
    ("irrev.surrogates", "iaaft", "surrogates.iaaft", iaaft_info),
    ("irrev.surrogates", "percentile_nearest_rank",
     "surrogates.percentile_nearest_rank", None),
    ("irrev.surrogates", "significance_test", "surrogates.significance_test",
     None),
    ("irrev.cli", "measure", "measures.measure", _measure_info),
    ("irrev.cli", "main", "cli.main", None),
)


class Probe:
    """Installs the hooks; collects events for the current pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.events: list[tuple[str, dict]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info):
        tracer, events = self.tracer, self.events

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            attrs = info(args, kwargs, result) if info is not None else {}
            if rec is not None:
                rec.update((k, v) for k, v in attrs.items()
                           if k != "surrogate")
            events.append((name, attrs))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, info in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def drain(self) -> list[tuple[str, dict]]:
        """Remove and return the (span name, info) events so far."""
        taken = list(self.events)
        self.events.clear()
        return taken
