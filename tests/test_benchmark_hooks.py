"""Every function the benchmark hooks must exist under its hooked name, and
every count the benchmark takes from a hooked call must be readable.

``perfbench/spans.py`` wraps library functions where other code looks them
up, by module attribute (``irrev.cli.measure``,
``irrev.surrogates.percentile_nearest_rank``, ...), and reads counts from
their arguments and results (``n_windows``, ``n_tied_windows``,
``len(counts)``, IAAFT diagnostics, file sizes). A refactor that drops one
of those names, or renames a field an info function reads, would crash the
benchmark. These tests read the hook table, without installing it, resolve
each name, and run each info function on a real call.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from irrev import EmbeddingConfig, IaaftParams, measure
from irrev.io import ReportDocument, SeriesFile, write_report, write_series

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


_HOOKS = _load_spans().HOOKS


@pytest.mark.parametrize("module_name, attr",
                         [(module_name, attr) for module_name, attr, *_ in _HOOKS])
def test_hooked_name_is_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


_SERIES = np.random.default_rng(3).standard_normal(64)
_CFG = EmbeddingConfig(m=3)


def _report():
    return ReportDocument(provenance={}, reports=[measure(_SERIES, _CFG, "TIR")])


def _written_report(tmp):
    path = str(tmp / "report.json")
    write_report(_report(), path)
    return path


def _written_series(tmp):
    path = str(tmp / "series.txt")
    write_series(_SERIES, path)
    return path


# (module, attribute) -> the arguments of one small real call, in ``tmp``.
_CALLS = {
    ("irrev.io", "write_series"): lambda tmp: (_SERIES, str(tmp / "s.txt")),
    ("irrev.io", "read_series"): lambda tmp: (SeriesFile(_written_series(tmp)),),
    ("irrev.io", "write_report"): lambda tmp: (_report(), str(tmp / "r.json")),
    ("irrev.io", "read_report"): lambda tmp: (_written_report(tmp),),
    ("irrev.measures", "measure"): lambda tmp: (_SERIES, _CFG, "AIR"),
    ("irrev.measures", "build_histogram"): lambda tmp: (_SERIES, _CFG,
                                                        "time-reverse"),
    ("irrev.surrogates", "measure"): lambda tmp: (_SERIES, _CFG, "TIR"),
    ("irrev.surrogates", "iaaft"): lambda tmp: (
        _SERIES, IaaftParams(max_iterations=3), 2),
    ("irrev.cli", "measure"): lambda tmp: (_SERIES, _CFG, "TIR"),
}


@pytest.mark.parametrize("module_name, attr, info",
                         [(module_name, attr, info)
                          for module_name, attr, _, info in _HOOKS if info])
def test_hook_info_reads_a_real_result(tmp_path, module_name, attr, info):
    assert (module_name, attr) in _CALLS, f"no call for {module_name}.{attr}"
    args = _CALLS[module_name, attr](tmp_path)
    result = getattr(importlib.import_module(module_name), attr)(*args)
    attrs = info(args, {}, result)
    assert isinstance(attrs, dict) and attrs
    if attr == "build_histogram":
        assert attrs == {"m": 3, "tau": 1, "transform": "time-reverse",
                         "windows": 62, "tied_windows": 0,
                         "patterns": len(result.codes)}
    if attr == "iaaft":
        assert attrs["index"] == 2 and attrs["iterations"] == 3
