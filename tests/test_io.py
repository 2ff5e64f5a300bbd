import json
import os

import numpy as np
import pytest

from irrev import (
    EmbeddingConfig,
    EmptyFile,
    InvalidParams,
    InvalidPattern,
    NonFiniteSample,
    ParseError,
    SurrogateVerdict,
    measure,
    sweep,
)
from irrev.io import (
    ReportDocument,
    SeriesFile,
    read_report,
    read_series,
    write_report,
    write_series,
    write_sweep_csv,
)


class TestReadSeries:
    def test_plain_with_blank_lines_and_unicode_minus(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n\n2.5\n−3\n", encoding="utf-8")
        assert read_series(SeriesFile(str(path))) == [1.0, 2.5, -3.0]

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "rr.csv"
        path.write_text("t,rr\n0,800\n1,812\n")
        f = SeriesFile(str(path), format="csv", column=1, header=True)
        assert read_series(f) == [800.0, 812.0]

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("abc\n1.0\n2.0\n")
        with pytest.raises(ParseError) as err:
            read_series(SeriesFile(str(path)))
        assert err.value.line_no == 1

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("1.0\ninf\n2.0\n")
        with pytest.raises(NonFiniteSample):
            read_series(SeriesFile(str(path)))

    def test_too_few_samples(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0\n")
        with pytest.raises(EmptyFile):
            read_series(SeriesFile(str(path)))

    @pytest.mark.parametrize("kwargs", [
        {"format": "tsv"}, {"delimiter": ""}, {"delimiter": ";;"},
        {"column": -1},
    ])
    def test_bad_options_are_invalid_params(self, kwargs):
        with pytest.raises(InvalidParams):
            SeriesFile("x.txt", **kwargs)

    def test_missing_csv_column(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ParseError):
            read_series(SeriesFile(str(path), format="csv", column=3))


class TestWriteSeries:
    def test_single_value_rendering(self, tmp_path):
        path = tmp_path / "out.txt"
        write_series([1.0], path=str(path))
        assert path.read_text() == "1\n"

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        x = list(rng.standard_normal(200))
        path = tmp_path / "rt.txt"
        write_series(x, str(path))
        assert read_series(SeriesFile(str(path))) == x

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(EmptyFile):
            write_series([], str(tmp_path / "empty.txt"))

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_series([1.0, 2.0], str(path))
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestReportDocument:
    def _document(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 4, size=300).astype(float)
        reports = [
            measure(x, EmbeddingConfig(m=3), "TIR"),
            measure(x, EmbeddingConfig(m=3), "AIR"),
        ]
        return ReportDocument(
            provenance={"input": "memory", "seed": 2, "tool_version": "0.1.0"},
            reports=reports,
        )

    def test_round_trip_byte_identical(self, tmp_path):
        doc = self._document()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_report(doc, str(first))
        write_report(read_report(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self._document(), str(a))
        write_report(self._document(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_value_is_exact(self, tmp_path):
        doc = ReportDocument(
            provenance={},
            reports=[measure([1.0] * 50, EmbeddingConfig(m=3), "TIR")],
        )
        path = tmp_path / "zero.json"
        write_report(doc, str(path))
        loaded = read_report(str(path))
        assert loaded.reports[0].value == 0.0

    @pytest.mark.parametrize("field, bad", [
        ("pattern", "9,9,9"), ("pattern", "1,2"), ("pattern", "1,2,3,1"),
        ("pattern", "0,1,2"), ("pattern", "a,b,c"), ("counterpart", "1,2,4"),
    ])
    def test_malformed_pattern_rejected(self, tmp_path, field, bad):
        path = tmp_path / "bad.json"
        write_report(self._document(), str(path))
        doc = json.loads(path.read_text())
        pair = next(p for p in doc["reports"][1]["pairs"]
                    if p["counterpart"] != "same-bin")
        pair[field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPattern, match="labels in 1..3"):
            read_report(str(path))

    def test_patterns_parsed_once_per_document(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self._document(), str(path))
        tir, air = read_report(str(path)).reports
        assert tir.pairs[0].pattern.labels == air.pairs[0].pattern.labels
        assert tir.pairs[0].pattern is air.pairs[0].pattern

    def test_config_and_verdict_bytes(self, tmp_path):
        verdict = SurrogateVerdict(
            original_value=0.5, surrogate_values=[0.25, 0.125], p2_5=0.125,
            p97_5=0.25, significant_above=True, significant_below=False)
        doc = ReportDocument(
            provenance={"config": {"m": 3, "scheme": "original", "tau": 2,
                                   "tie_epsilon": 0.0}},
            verdicts=[verdict])
        path = tmp_path / "v.json"
        write_report(doc, str(path))
        assert path.read_text() == """{
  "provenance": {
    "config": {
      "m": 3,
      "scheme": "original",
      "tau": 2,
      "tie_epsilon": 0.0
    }
  },
  "reports": [],
  "schema_version": "1",
  "verdicts": [
    {
      "original_value": 0.5,
      "p2_5": 0.125,
      "p97_5": 0.25,
      "significant_above": true,
      "significant_below": false,
      "surrogate_values": [
        0.25,
        0.125
      ]
    }
  ]
}
"""
        assert read_report(str(path)).verdicts == [verdict]

    def test_report_config_round_trip(self, tmp_path):
        config = EmbeddingConfig(m=4, tau=2, scheme="original",
                                 tie_epsilon=0.5)
        doc = ReportDocument(provenance={},
                             reports=[measure(np.arange(40.0), config, "AIR")])
        path = tmp_path / "c.json"
        write_report(doc, str(path))
        assert json.loads(path.read_text())["reports"][0]["config"] == {
            "m": 4, "tau": 2, "scheme": "original", "tie_epsilon": 0.5}
        assert read_report(str(path)).reports[0].config == config

    def test_schema_version(self, tmp_path):
        path = tmp_path / "v.json"
        write_report(self._document(), str(path))
        assert read_report(str(path)).schema_version == "1"


class TestSweepCsv:
    def test_golden_table(self, tmp_path):
        # Frozen fixture: constant series, every cell exactly zero.
        reports = sweep([5.0] * 30, [2, 3], [1, 2], kinds=["TIR", "AIR"])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, str(path))
        assert path.read_text() == (
            "kind,m,tau,value,n_windows,n_forbidden\n"
            "TIR,2,1,0,29,0\n"
            "TIR,2,2,0,28,0\n"
            "TIR,3,1,0,28,0\n"
            "TIR,3,2,0,26,0\n"
            "AIR,2,1,0,29,0\n"
            "AIR,2,2,0,28,0\n"
            "AIR,3,1,0,28,0\n"
            "AIR,3,2,0,26,0\n"
        )
