#!/usr/bin/env python3
"""Benchmark runner for irrev: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload surrogate-ensemble --seed 1 \\
        --seconds 30 --trace 0

The runner generates its inputs from ``--seed``, sets them up several
times (``setup_s`` is the median), then repeats the workload's timed body
until ``--seconds`` have passed and checks every pass's outputs. It prints
a readable summary and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. It
also writes a result file with provenance and raw samples to ``--out-dir``
(and, traced, the spans). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as ref
from compare import tail_percentile
from irrev import cli, measures, models, surrogates
from irrev import io as dio
from irrev.ordinal import EmbeddingConfig
from spans import Probe, Tracer, duration_s, iaaft_info, self_time_s

KINDS = (measures.KIND_TIR, measures.KIND_AIR)
ALL_MS = tuple(range(2, 8))
OUT = ref.ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Size:
    n: int  # series length
    setup_reps: int


SIZES = {
    "full": Size(n=ref.SERIES_LENGTH, setup_reps=5),
    "tiny": Size(n=1500, setup_reps=1),
}


def note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


@dataclass
class Context:
    seed: int
    size: Size
    workdir: Path
    tracer: Tracer
    check_reference: bool  # default seed at full size
    _ops: int = 0

    def new_op(self) -> None:
        """Start the next op: spans recorded until the next call share its id."""
        self._ops += 1
        self.tracer.op = self._ops


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def _logistic(ctx: Context) -> np.ndarray:
    spec = models.ModelSpec("logistic", ctx.size.n,
                            params={"x1": ref.logistic_x1(ctx.seed)})
    return models.generate(spec)


def _histogram_properties(events) -> dict:
    """Distinct patterns and tied-window share per m, identity, tau=1."""
    props = {"patterns": {}, "tied_window_share": {}}
    for name, a in events:
        if (name == "measures.build_histogram" and a["transform"] == "identity"
                and a["tau"] == 1):
            props["patterns"][a["m"]] = a["patterns"]
            props["tied_window_share"][a["m"]] = a["tied_windows"] / a["windows"]
    return props


# -- workloads -------------------------------------------------------------------
# Each has setup() (inputs and warm-up, untimed by the pass clock), body()
# (one timed pass) and check(outputs, events) -> set of failed units, run
# after the pass stops its clock. ``units`` is the work done by one pass.

class SurrogateEnsemble:
    """significance_test on logistic data at m=4, TIR and AIR in turn.

    One pass is one significance_test; passes alternate the kind, so both
    kinds measure the same members. IAAFT is capped at 100 iterations
    (logistic surrogates never converge before ~230), so the work per member
    is fixed.
    """

    name = "surrogate-ensemble"
    unit = "surrogate members"
    MEMBERS = 2  # per significance_test; keeps a pass near 4 s

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.config = EmbeddingConfig(m=ref.SURROGATE_M)
        self.params = surrogates.IaaftParams(
            max_iterations=ref.IAAFT_ITERATIONS, seed=ctx.seed,
            n_surrogates=self.MEMBERS)
        self.units = self.MEMBERS
        self.passes = 0
        self.originals = {}
        self.first_values = {}  # kind -> surrogate values of its first pass
        self.digests = {}  # member index -> digest of its first generation
        self.properties = {}

    def setup(self):
        self.series = _logistic(self.ctx)
        dio.write_series(self.series, str(self.ctx.workdir / "series.txt"))
        # Warm-up: FFT plans at this length and the m=4 encoder.
        surrogates.iaaft(self.series, replace(self.params, max_iterations=1))
        measures.measure(self.series, self.config, KINDS[0])

    def body(self):
        kind = KINDS[self.passes % len(KINDS)]
        self.passes += 1
        self.ctx.new_op()
        return kind, surrogates.significance_test(self.series, self.config,
                                                  kind, self.params)

    def check(self, outputs, events) -> set:
        kind, v = outputs
        everything = set(range(self.units))
        if not self.originals:
            self.sorted_x = np.sort(self.series)
            self.originals = {k: measures.measure(self.series, self.config,
                                                  k).value for k in KINDS}
        failed = set()
        values = list(v.surrogate_values)
        members = [a for name, a in events if name == "surrogates.iaaft"]
        if not members:
            # significance_test generated its members without calling
            # irrev.surrogates.iaaft (a batched engine, say): regenerate them
            # through the public function and tie them to the verdict.
            members = [iaaft_info((self.series, self.params, i), {},
                                  surrogates.iaaft(self.series, self.params, i))
                       for i in range(self.units)]
            if values != [measures.measure(m["surrogate"], self.config,
                                           kind).value for m in members]:
                note(f"{kind} values differ from the regenerated members")
                failed |= everything
        if len(members) != self.units:
            note(f"saw {len(members)} IAAFT calls for {self.units} members")
            return everything
        if not (len(values) == self.units
                and v.original_value == self.originals[kind]
                and v.p2_5 == _nearest_rank(values, 2.5)
                and v.p97_5 == _nearest_rank(values, 97.5)
                and v.significant_above == (v.original_value > v.p97_5)
                and v.significant_below == (v.original_value < v.p2_5)):
            note(f"{kind} verdict is inconsistent: {v}")
            failed |= everything
        if self.first_values.setdefault(kind, values) != values:
            note(f"{kind} surrogate values differ from its first pass")
            failed |= everything
        for i, member in enumerate(members):
            surrogate = member["surrogate"]
            if member["index"] != i or not _same_bits(np.sort(surrogate),
                                                      self.sorted_x):
                note(f"member {i} lost the input's amplitudes")
                failed.add(i)
            digest = ref.surrogate_digest(surrogate)
            if self.digests.setdefault(i, digest) != digest:
                note(f"member {i} differs when regenerated")
                failed.add(i)
        if self.ctx.check_reference:
            want = ref.load_reference()["surrogate"]["sha256"]
            if self.digests[0] != want:
                note(f"reference surrogate digest {self.digests[0]} != {want}")
                failed.add(0)
        if not self.properties:
            self.properties = {
                "iterations_per_member": [m["iterations"] for m in members],
                "converged_members": sum(m["converged"] for m in members),
                "spectrum_rms_error_max": max(m["spectrum_rms_error"]
                                              for m in members),
                **_histogram_properties(events),
            }
        return failed


class LogisticSweep:
    """sweep over m=2..7 x tau=1..5, both kinds, on tie-free logistic data."""

    name = "logistic-sweep"
    unit = "cells"
    MS = ALL_MS
    TAUS = tuple(range(1, 6))

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cells = [(k, m, t) for k in KINDS for m in self.MS
                      for t in self.TAUS]
        self.units = len(self.cells)
        self.first_values = None
        self.properties = {}

    def setup(self):
        self.series = _logistic(self.ctx)
        dio.write_series(self.series, str(self.ctx.workdir / "series.txt"))
        measures.measure(self.series, EmbeddingConfig(m=2), KINDS[0])

    def body(self):
        self.ctx.new_op()
        return measures.sweep(self.series, self.MS, self.TAUS)

    def check(self, reports, events) -> set:
        cells = [(r.kind, r.config.m, r.config.tau) for r in reports]
        if cells != self.cells:
            note("sweep cells are missing or out of order")
            return set(self.cells)
        values = {c: r.value for c, r in zip(cells, reports)}
        failed = set()
        for t in self.TAUS:
            tir, air = values[(KINDS[0], 2, t)], values[(KINDS[1], 2, t)]
            if abs(tir - air) > 1e-12:
                note(f"m=2 tau={t}: TIR {tir!r} != AIR {air!r}")
                failed |= {(KINDS[0], 2, t), (KINDS[1], 2, t)}
        tied = [a for name, a in events
                if name == "measures.build_histogram" and a["tied_windows"]]
        if tied:
            note("logistic input has tied windows; the sweep is not tie-free")
            return set(self.cells)
        if self.first_values is None:
            self.first_values = values
            self.properties = _histogram_properties(events)
            if self.ctx.check_reference:
                failed |= self._check_reference(values)
        else:
            failed |= {c for c in self.cells
                       if values[c] != self.first_values[c]}
        return failed

    def _check_reference(self, values) -> set:
        rows = [("logistic", k, m, values[(k, m, 1)])
                for k in KINDS for m in ref.REFERENCE_MS]
        for name in ("henon", "gaussian"):
            rows += ref.value_rows(name, ref.reference_series(name))
        want = ref.load_reference()["values"]["sha256"]
        got = ref.values_digest(rows)
        if got == want:
            return set()
        note(f"reference TIR/AIR digest {got} != {want}")
        return {c for c in self.cells if c[2] == 1}


class TiedReports:
    """The ``analyze --out`` path for m=3..7 on Gaussian data rounded to 0.1."""

    name = "tied-reports"
    unit = "analyze rounds"
    MS = tuple(range(3, 8))
    CLI_M = 7

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.series_path = str(ctx.workdir / "series.txt")
        self.units = len(self.MS)
        self.first_values = None
        self.properties = {}

    def setup(self):
        spec = models.ModelSpec("gaussian", self.ctx.size.n,
                                params={"seed": self.ctx.seed})
        self.series = np.round(models.generate(spec), 1)
        dio.write_series(self.series, self.series_path)
        warm = dio.read_series(dio.SeriesFile(self.series_path))
        measures.measure(warm, EmbeddingConfig(m=self.MS[0]), KINDS[0])

    def body(self):
        rounds = []
        for m in self.MS:
            self.ctx.new_op()
            config = EmbeddingConfig(m=m)
            series = dio.read_series(dio.SeriesFile(self.series_path))
            doc = dio.ReportDocument(
                provenance={"input": self.series_path, "m": m,
                            "seed": self.ctx.seed},
                reports=[measures.measure(series, config, k) for k in KINDS])
            path = str(self.ctx.workdir / f"report-m{m}.json")
            dio.write_report(doc, path)
            rounds.append((m, series, doc, dio.read_report(path)))
        return rounds

    def check(self, rounds, events) -> set:
        failed = set()
        first = self.first_values is None
        if first:
            self.first_values = {}
            self.properties = _histogram_properties(events)
        for m, series, doc, back in rounds:
            values = [r.value for r in doc.reports]
            if not np.array_equal(np.asarray(series), self.series):
                note(f"m={m}: series read back differs from the one written")
                failed.add(m)
            if (back.reports != doc.reports or back.provenance != doc.provenance
                    or back.schema_version != doc.schema_version):
                note(f"m={m}: report changed in a write/read round trip")
                failed.add(m)
            if first:
                self.first_values[m] = values
                negated = measures.measure(-self.series, EmbeddingConfig(m=m),
                                           KINDS[1]).value
                if negated != values[1]:
                    note(f"m={m}: AIR(-x) {negated!r} != AIR(x) {values[1]!r}")
                    failed.add(m)
            elif values != self.first_values[m]:
                note(f"m={m}: values differ from the first pass")
                failed.add(m)
        return failed

    def traced_extra(self) -> bool:
        """One ``irrev analyze --out`` through the CLI on the same file."""
        out = str(self.ctx.workdir / "cli-report.json")
        self.ctx.new_op()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--input", self.series_path,
                             "--m", str(self.CLI_M), "--out", out])
        self.ctx.tracer.recording = False
        if code != 0:
            note(f"irrev analyze exited with {code}")
            return False
        values = [r.value for r in dio.read_report(out).reports]
        if values != self.first_values[self.CLI_M]:
            note("irrev analyze disagrees with measure()")
            return False
        return True


WORKLOADS = {w.name: w for w in (SurrogateEnsemble, LogisticSweep, TiedReports)}


# -- metrics -----------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, traced_passes: int, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of setup, traced passes and the CLI.

    Timings are medians per call, except that io timings and bytes are
    totals per pass. A layer the workload never calls reads 0.
    """
    per_pass = max(traced_passes, 1)
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def pick(name, phase="pass", **match):
        return [s for s in spans if s["name"] == name and s["phase"] == phase
                and all(s.get(k) == v for k, v in match.items())]

    def med(name, phase="pass", **match):
        return _median([duration_s(s) for s in pick(name, phase, **match)])

    def total(name):
        return sum(duration_s(s) for s in pick(name)) / per_pass

    def self_med(name, phase="pass", **match):
        return _median([self_time_s(s, children)
                        for s in pick(name, phase, **match)])

    members = pick("surrogates.iaaft")
    hists = pick("measures.build_histogram")
    top = max(((s["m"], s) for s in hists
               if s["transform"] == "identity" and s["tau"] == 1),
              default=(0, None), key=lambda ms: ms[0])[1]
    windows = sum(s["windows"] for s in hists)
    reads = pick("io.read_series") + pick("io.read_report")

    out = {
        "models.generate_s": (med("models.generate", "setup"), "s"),
        "io.write_series_s": (med("io.write_series", "setup"), "s"),
        "surrogates.iaaft_s": (med("surrogates.iaaft"), "s"),
        "surrogates.iterations": (
            _median([s["iterations"] for s in members]), "count"),
        "surrogates.iteration_s": (
            _median([duration_s(s) / s["iterations"] for s in members]), "s"),
        "surrogates.converged_ratio": (
            sum(s["converged"] for s in members) / len(members)
            if members else 0.0, "ratio"),
        "surrogates.spectrum_rms_error_max": (
            max((s["spectrum_rms_error"] for s in members), default=0.0),
            "ratio"),
        "surrogates.percentile_s": (
            med("surrogates.percentile_nearest_rank"), "s"),
        "surrogates.loop_overhead_s": (
            self_med("surrogates.significance_test"), "s"),
    }
    for kind in KINDS:
        for m in ALL_MS:
            out[f"measures.measure_s.{kind}.m{m}"] = (
                med("measures.measure", kind=kind, m=m), "s")
    for m in ALL_MS:
        out[f"measures.histogram_s.m{m}"] = (
            med("measures.build_histogram", m=m), "s")
    for m in ALL_MS:
        out[f"measures.accumulate_s.m{m}"] = (
            self_med("measures.measure", m=m), "s")
    out.update({
        "measures.ns_per_window": (
            1e9 * sum(duration_s(s) for s in hists) / windows
            if windows else 0.0, "ns"),
        "measures.windows": (windows / per_pass, "count"),
        "measures.patterns": (top["patterns"] if top else 0, "count"),
        "measures.tied_window_ratio": (
            top["tied_windows"] / top["windows"] if top else 0.0, "ratio"),
        "io.read_series_s": (total("io.read_series"), "s"),
        "io.write_report_s": (total("io.write_report"), "s"),
        "io.read_report_s": (total("io.read_report"), "s"),
        "io.bytes_written": (
            sum(s["bytes"] for s in pick("io.write_report")) / per_pass, "B"),
        "io.bytes_read": (sum(s["bytes"] for s in reads) / per_pass, "B"),
        "cli.main_s": (med("cli.main", "cli"), "s"),
        "cli.overhead_s": (self_med("cli.main", "cli"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


# -- provenance ------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ref.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, properties: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k.upper()},
        "seed": seed,
        "input": properties,
    }


# -- one run -----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full") -> dict:
    size = SIZES[size_name]
    workdir = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    probe = Probe(tracer)
    probe.install()
    try:
        ctx = Context(seed, size, workdir, tracer,
                      check_reference=(seed == ref.DEFAULT_SEED
                                       and size_name == "full"))
        wl = WORKLOADS[workload](ctx)

        setup_s = []
        tracer.recording = trace
        for _ in range(size.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        tracer.recording = False

        tracer.phase = "pass"
        attempted = failed = 0
        passes = []  # (seconds, traced) of each pass that returned
        n_pass = 0
        start = time.perf_counter()
        while n_pass == 0 or time.perf_counter() - start < seconds:
            # Traced runs alternate traced and untraced passes, so the
            # tracing overhead is measured within one process.
            traced = trace and n_pass % 2 == 0
            n_pass += 1
            probe.drain()
            gc.collect()  # every pass starts from the same heap state
            tracer.recording = traced
            t0 = time.perf_counter()
            try:
                outputs = wl.body()
            except Exception:  # an op that raises counts as failed
                outputs = None
                note(traceback.format_exc())
            elapsed = time.perf_counter() - t0
            tracer.recording = False
            events = probe.drain()
            attempted += wl.units
            if outputs is None:
                failed += wl.units
                continue
            passes.append((elapsed, traced))
            try:
                failed += len(wl.check(outputs, events))
            except Exception:  # malformed output
                note(traceback.format_exc())
                failed += wl.units
            del outputs, events

        if trace and hasattr(wl, "traced_extra"):
            tracer.phase = "cli"
            tracer.recording = True
            attempted += 1
            try:
                ok = wl.traced_extra()
            except Exception:
                note(traceback.format_exc())
                ok = False
            tracer.recording = False
            failed += not ok
    finally:
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [s for s, traced in passes if not traced]
    traced_wall = [s for s, traced in passes if traced]
    end_to_end = {
        "setup_s": (_median(setup_s), "s"),
        "wall_s": (_median(wall), "s"),
        "throughput": (wl.units / _median(wall) if wall else 0.0, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size_name,
        "unit": wl.unit,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "samples": {"setup_s": setup_s, "wall_s": wall,
                    "traced_wall_s": traced_wall},
        "wall_tail": tail_percentile(wall),
        "provenance": provenance(seed, wl.properties),
    }
    if trace:
        overhead = (_median(traced_wall) - _median(wall)
                    if traced_wall and wall else 0.0)
        result["per_layer"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in layer_metrics(tracer.spans, len(traced_wall),
                                           overhead).items()}
        result["spans"] = tracer.spans
    return result


def summary(result: dict) -> str:
    e2e = {k: v["value"] for k, v in result["end_to_end"].items()}
    wall = result["samples"]["wall_s"]
    tail = result["wall_tail"]
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else f"max {max(wall):.4f} s (too few for a tail percentile)"
                 if wall else "no passes")
    lines = [
        f"{result['workload']} seed={result['seed']} trace={result['trace']} "
        f"size={result['size']}",
        f"  setup_s      {e2e['setup_s']:.4f} s (median of "
        f"{len(result['samples']['setup_s'])})",
        f"  wall_s       {e2e['wall_s']:.4f} s (median of {len(wall)} "
        f"passes; {tail_text})",
        f"  throughput   {e2e['throughput']:.4f} 1/s ({result['unit']})",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB",
        f"  error_rate   {result['error_rate']:.4f} "
        f"({result['failed']}/{result['attempted']} failed)",
    ]
    for name, m in result.get("per_layer", {}).items():
        lines.append(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ref.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs in seconds, for the smoke test")
    parser.add_argument("--out-dir", default=str(OUT / "results"),
                        help="directory for the result file (a result set)")
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(summary(result))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
