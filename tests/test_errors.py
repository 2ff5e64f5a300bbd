"""The input rules of ``irrev.errors`` and every place that uses them."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import irrev
from irrev import (
    EmbeddingConfig,
    IaaftParams,
    InvalidParams,
    IrreversibilityReport,
    ModelSpec,
    NonFiniteSample,
    Pattern,
    build_histogram,
    extract_pattern,
    iaaft,
    is_self_symmetric,
    measure,
    measures,
    sweep,
)
from irrev.errors import checked_real, checked_series
from irrev.io import SeriesFile, read_report, write_series
from irrev.surrogates import prepare_iaaft

_CFG = EmbeddingConfig(m=3)

# Each entry point that takes a series, called on ``series`` in ``tmp``.
_SERIES_ENTRY_POINTS = {
    "measure": lambda series, tmp: measure(series, _CFG, "TIR"),
    "sweep": lambda series, tmp: sweep(series, [3], [1]),
    "build_histogram": lambda series, tmp: build_histogram(series, _CFG),
    "iaaft": lambda series, tmp: iaaft(series, IaaftParams(max_iterations=2)),
    "prepare_iaaft": lambda series, tmp: prepare_iaaft(series),
    "write_series": lambda series, tmp: write_series(series, str(tmp / "s.txt")),
    "extract_pattern": lambda series, tmp: extract_pattern(series, _CFG),
}
_SAMPLES = [1.0, 3, 2, 5, 4, 1, 7, 8, 6, 3]
_BAD_SERIES = {
    "complex array": (np.array([1 + 5j, 3 - 2j, *_SAMPLES[2:]]), InvalidParams,
                      "series must hold real numbers"),
    "complex list": ([1 + 5j, *_SAMPLES[1:]], InvalidParams,
                     "series must hold real numbers"),
    "text list": ([str(v) for v in _SAMPLES], InvalidParams,
                  "series must hold real numbers"),
    "text object array": (np.array([str(v) for v in _SAMPLES], dtype=object),
                          InvalidParams, "series must hold real numbers"),
    "2-D array": (np.arange(20.0).reshape(10, 2), InvalidParams,
                  "series must be one-dimensional"),
    "NaN": ([*_SAMPLES[:3], float("nan"), *_SAMPLES[4:]], NonFiniteSample,
            "non-finite sample nan"),
}


@pytest.mark.parametrize("bad", _BAD_SERIES)
@pytest.mark.parametrize("entry_point", _SERIES_ENTRY_POINTS)
def test_every_series_entry_point_refuses_bad_series(tmp_path, entry_point, bad):
    series, error, message = _BAD_SERIES[bad]
    with pytest.raises(error) as err:
        _SERIES_ENTRY_POINTS[entry_point](series, tmp_path)
    assert str(err.value) == message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("series", [
    [True, False, True], [1, 2, 3], np.array([1, 2, 3], dtype=np.uint8),
    np.array([1.0, 2.0, 3.0], dtype=np.float32), np.array([1, 2.5, 3], dtype=object),
    (1.0, 2.0, 3.0)])
def test_real_samples_convert(series):
    x = checked_series(series)
    assert x.dtype == np.float64 and x.tolist() == [float(v) for v in series]


@pytest.mark.parametrize("series, first", [
    ([1.0, None, 2.0], "nan"), ([1.0, -np.inf, np.nan], "-inf"),
    (np.array([np.inf, 0.0]), "inf")])
def test_first_non_finite_sample_named(series, first):
    with pytest.raises(NonFiniteSample, match=f"^non-finite sample {first}$"):
        checked_series(series)


@pytest.mark.parametrize("series", [
    np.array(["1", "2"]), np.array([b"1", b"2"]), [[1.0, 2.0], [3.0]],
    np.array([1, 2], dtype="datetime64[s]"), np.array([1 + 0j, 2 + 0j]),
    np.array([1, 2j], dtype=object), np.array([1.0, "2"], dtype=object),
    np.array([1.0, b"2"], dtype=object), 1.0])
def test_non_real_or_ragged_series_refused(series):
    with pytest.raises(InvalidParams, match="^series must"):
        checked_series(series)


def _broken_document(tmp):
    path = tmp / "doc.json"
    path.write_text(json.dumps({"schema_version": "both"}))
    return read_report(str(path))


# Each fixed-choice parameter, given the value "both", and the field it names.
_CHOICE_SITES = {
    "EmbeddingConfig.scheme": ("scheme", lambda tmp: EmbeddingConfig(3, 1, "both")),
    "Pattern.scheme": ("scheme", lambda tmp: Pattern((1, 2), "both")),
    "is_self_symmetric": ("symmetry",
                          lambda tmp: is_self_symmetric(Pattern((1, 2)), "both")),
    "build_histogram": ("transform",
                        lambda tmp: build_histogram([1.0, 2, 3], _CFG, "both")),
    "measure": ("kind", lambda tmp: measure([1.0, 2, 3], _CFG, "both")),
    "sweep": ("kind", lambda tmp: sweep([1.0, 2, 3], [3], [1], kinds=["TIR", "both"])),
    "IrreversibilityReport": ("kind", lambda tmp: IrreversibilityReport(
        "both", _CFG, 0.0, [], 0, 0, 1)),
    "SeriesFile.format": ("format", lambda tmp: SeriesFile("s.txt", "both")),
    "schema_version": ("schema_version", _broken_document),
    "ModelSpec.kind": ("kind", lambda tmp: ModelSpec("both", 10)),
}


@pytest.mark.parametrize("site", _CHOICE_SITES)
def test_every_choice_names_its_field(tmp_path, site):
    field, call = _CHOICE_SITES[site]
    with pytest.raises(InvalidParams,
                       match=rf"^{field} must be one of \(.+\), got 'both'$"):
        call(tmp_path)


@pytest.mark.parametrize("value", [0.5, 3, np.float64(-2.0),
                                   pytest.param(10**400, id="10**400")])
def test_checked_real_accepts_finite_reals(value):
    assert checked_real("r", value) == value


@pytest.mark.parametrize("value, above", [
    (np.nan, -np.inf), (np.inf, -np.inf), (-np.inf, -np.inf), ("1", -np.inf),
    (None, -np.inf), (1j, -np.inf), (0.0, 0), (-1, 0)])
def test_checked_real_refuses(value, above):
    with pytest.raises(InvalidParams, match="^r must be a finite real number"):
        checked_real("r", value, above)


def test_input_rules_live_in_errors_module():
    """No module but errors.py checks finiteness or a fixed choice by hand."""
    sources = sorted(Path(irrev.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name != "errors.py":
            text = path.read_text(encoding="utf-8")
            assert "np.isfinite(" not in text, path.name
            assert "must be one of" not in text, path.name
    assert not hasattr(measures, "_validated_series")
