"""Fast smoke test of the benchmark runner at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path,
                                               capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    saved = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert saved["provenance"]["seed"] == 3
    assert saved["provenance"]["input"]


def _corrupt_member(original):
    def iaaft(series, params, index=0):
        surrogate, diagnostics = original(series, params, index)
        if index == 1:
            surrogate = surrogate.copy()
            surrogate[0] = np.nextafter(surrogate[0], np.inf)
        return surrogate, diagnostics
    return iaaft


def _corrupt_m2_air(original):
    def sweep(*args, **kwargs):
        reports = original(*args, **kwargs)
        i = next(i for i, r in enumerate(reports)
                 if r.kind == "AIR" and r.config.m == 2)
        reports[i] = dataclasses.replace(reports[i],
                                         value=reports[i].value + 1e-9)
        return reports
    return sweep


def _corrupt_read_back(original):
    def read_report(path):
        doc = original(path)
        first = doc.reports[0]
        doc.reports[0] = dataclasses.replace(first, value=first.value + 1e-9)
        return doc
    return read_report


@pytest.mark.parametrize("workload, module, attr, corrupt", [
    ("surrogate-ensemble", run.surrogates, "iaaft", _corrupt_member),
    ("logistic-sweep", run.measures, "sweep", _corrupt_m2_air),
    ("tied-reports", run.dio, "read_report", _corrupt_read_back),
])
def test_corrupted_output_counts_as_failed(workload, module, attr, corrupt,
                                           monkeypatch):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    result = run.run(workload, seed=3, seconds=0, trace=False,
                     size_name="tiny")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["error_rate"] == result["failed"] / result["attempted"]
    assert result["end_to_end"]["ok_ratio"]["value"] < 1.0


@pytest.mark.parametrize("corrupt", [False, True])
def test_members_are_checked_without_iaaft_spans(corrupt, monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", tuple(
        h for h in spans.HOOKS if h[2] != "surrogates.iaaft"))
    if corrupt:
        monkeypatch.setattr(run.surrogates, "iaaft",
                            _corrupt_member(run.surrogates.iaaft))
    result = run.run("surrogate-ensemble", seed=3, seconds=0, trace=False,
                     size_name="tiny")
    assert result["correct"] is not corrupt
    assert (result["failed"] > 0) is corrupt


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
