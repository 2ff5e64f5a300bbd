import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irrev import (
    EmbeddingConfig,
    PairContribution,
    Pattern,
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
from irrev import io as irrev_io
from irrev.measures import SAME_BIN

from oracle import (reference_pattern_code, reference_read_series,
                    reference_report_text)


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

    @pytest.mark.parametrize("bad", [-1, 1.5, "1", None])
    def test_column_names_itself(self, bad):
        with pytest.raises(InvalidParams, match="^column must be an integer"):
            SeriesFile("x.csv", format="csv", column=bad)

    @pytest.mark.parametrize("cast", [np.int64, np.uint32])
    def test_numpy_column_stored_as_int(self, tmp_path, cast):
        path = tmp_path / "two.csv"
        path.write_text("1,5\n2,6\n")
        file = SeriesFile(str(path), format="csv", column=cast(1))
        assert type(file.column) is int
        assert list(read_series(file)) == [5.0, 6.0]

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
        with pytest.raises(EmptyFile):
            write_series(np.array([]), str(tmp_path / "empty.txt"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad, named", [
        ([1.0, float("nan"), float("inf")], "nan"),
        ([float("-inf"), 1.0], "-inf"), (np.array([0.0, np.inf]), "inf")])
    def test_non_finite_rejected(self, tmp_path, bad, named):
        with pytest.raises(NonFiniteSample) as err:
            write_series(bad, str(tmp_path / "bad.txt"))
        assert str(err.value) == f"non-finite sample {named}"
        assert os.listdir(tmp_path) == []

    def test_two_dimensional_series_rejected(self, tmp_path):
        with pytest.raises(InvalidParams, match="one-dimensional"):
            write_series(np.zeros((3, 2)), str(tmp_path / "2d.txt"))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                         0.1, 1e16, 1e17, 123456789012345678.0]),
        st.integers(-2**60, 2**60)), min_size=1, max_size=30))
    def test_bytes_equal_per_value_rendering(self, tmp_path, samples):
        path = tmp_path / "s.txt"
        write_series(samples, str(path))
        expected = "".join(irrev_io._fmt(float(v)) + "\n" for v in samples)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_benchmark_series_bytes(self, tmp_path, logistic_series,
                                    gaussian_series):
        path = tmp_path / "s.txt"
        for x in (logistic_series, np.round(gaussian_series, 1)):
            write_series(x, str(path))
            expected = "".join(irrev_io._fmt(float(v)) + "\n" for v in x)
            assert path.read_text() == expected

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


def _special_reports():
    """A computed tied report with SAME_BIN pairs, and a hand-built one
    whose pairs hold NaN, +-inf, -0.0, ints, a bool and numpy floats beside
    SAME_BIN and real counterparts."""
    x = np.round(np.random.default_rng(5).standard_normal(400), 0)
    tied = measure(x, EmbeddingConfig(m=3, scheme="original"), "TIR")
    assert any(p.counterpart == SAME_BIN for p in tied.pairs)
    special = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0,
               1, True, np.float64(0.25), np.float64(-0.0), 1.0]
    pattern = Pattern((2, 1, 3), "original")
    hand = dataclasses.replace(tied, value=-0.0, pairs=[
        PairContribution(pattern, counterpart, a, b, c)
        for counterpart in (SAME_BIN, Pattern((3, 1, 2), "original"))
        for a, b, c in zip(special, special[3:] + special[:3],
                           special[6:] + special[:6])])
    return tied, hand


_SPECIAL_VERDICT = SurrogateVerdict(float("nan"), [-0.0, np.float64(1.5)],
                                    0.0, float("inf"), True, False)


def _assert_same_reports(back, reports):
    """``back == reports``, except that a NaN matches a NaN."""
    assert len(back) == len(reports)
    for b, r in zip(back, reports):
        assert (dataclasses.replace(b, pairs=[])
                == dataclasses.replace(r, pairs=[]))
        assert len(b.pairs) == len(r.pairs)
        for p, q in zip(b.pairs, r.pairs):
            for f in dataclasses.fields(p):
                u, v = getattr(p, f.name), getattr(q, f.name)
                assert u == v or (u != u and v != v), (f.name, u, v)


def _pair_count(pairs) -> int:
    """The number of pairs of a "1" row list or of "2" lists."""
    return len(pairs) if isinstance(pairs, list) else len(pairs["pattern"])


def _pair_field(pairs, i, key):
    return pairs[i][key] if isinstance(pairs, list) else pairs[key][i]


def _set_pair_field(pairs, i, key, value):
    if isinstance(pairs, list):
        pairs[i][key] = value
    else:
        pairs[key][i] = value


# Edits of a document at a key path: delete the item, or cut the text in half.
_DELETE, _TRUNCATE = object(), object()


def _at(doc, where):
    """The item of ``doc`` at the key path ``where``."""
    for key in where:
        doc = doc[key]
    return doc


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
        x = np.round(np.random.default_rng(25).standard_normal(20000), 1)
        tied_m7 = [measure(x, EmbeddingConfig(m=7), k) for k in ("TIR", "AIR")]
        tied, hand = _special_reports()
        special = ReportDocument(
            provenance={"input": "special values"},
            reports=[tied, hand, dataclasses.replace(hand, pairs=[])],
            verdicts=[_SPECIAL_VERDICT])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for doc in (self._document(),
                    ReportDocument(provenance={"m": 7}, reports=tied_m7),
                    special):
            write_report(doc, str(first))
            back = read_report(str(first))
            write_report(back, str(second))
            assert first.read_bytes() == second.read_bytes()
            if doc is special:
                assert back.reports[0] == tied and tied == back.reports[0]
                _assert_same_reports(back.reports, doc.reports)
                _assert_same_reports(read_report(str(second)).reports,
                                     doc.reports)
            else:
                assert back.reports == doc.reports
                assert doc.reports == back.reports
                assert read_report(str(second)).reports == back.reports

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

    def _json(self, tmp_path, version):
        """The JSON of the document in schema ``version``: "2" as
        ``write_report`` writes it, "1" as the oracle renders it."""
        doc = self._document()
        if version == "1":
            return json.loads(reference_report_text(
                dataclasses.replace(doc, schema_version="1")))
        path = tmp_path / "written.json"
        write_report(doc, str(path))
        return json.loads(path.read_text())

    @pytest.mark.parametrize("version", ["1", "2"])
    @pytest.mark.parametrize("field, bad", [
        ("pattern", "9,9,9"), ("pattern", "1,2"), ("pattern", "1,2,3,1"),
        ("pattern", "0,1,2"), ("pattern", "a,b,c"), ("counterpart", "1,2,4"),
        ("pattern", "99999999999999999999,1,2"), ("pattern", ""),
        ("counterpart", "1,,2"),
    ])
    def test_malformed_pattern_rejected(self, tmp_path, field, bad, version):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, version)
        pairs = doc["reports"][1]["pairs"]
        i = next(i for i in range(_pair_count(pairs))
                 if _pair_field(pairs, i, "counterpart") != "same-bin")
        _set_pair_field(pairs, i, field, bad)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPattern, match="labels in 1..3"):
            read_report(str(path))

    @pytest.mark.parametrize("version", ["1", "2"])
    @pytest.mark.parametrize("field", ["pattern", "counterpart"])
    @pytest.mark.parametrize("bad", [5, [1, 2, 3], None, {"a": 1}, 1.5])
    def test_non_string_pattern_rejected(self, tmp_path, version, field, bad):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, version)
        _set_pair_field(doc["reports"][0]["pairs"], 1, field, bad)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPattern, match="labels in 1..3"):
            read_report(str(path))

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_same_bin_only_as_counterpart(self, tmp_path, version):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, version)
        _set_pair_field(doc["reports"][1]["pairs"], -1, "pattern", SAME_BIN)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPattern, match="only as a counterpart"):
            read_report(str(path))

    @pytest.mark.parametrize("version", ["1", "2"])
    @pytest.mark.parametrize("value", [None, "0.5", [1], 2**70])
    def test_non_numeric_pair_value_rejected(self, tmp_path, value, version):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, version)
        _set_pair_field(doc["reports"][0]["pairs"], 0, "ys", value)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParams, match="ys must be"):
            read_report(str(path))

    @pytest.mark.parametrize("key", ["pattern", "counterpart", "p_forward",
                                     "p_counterpart", "ys"])
    @pytest.mark.parametrize("change", ["shorter", "longer", "missing",
                                        "not a list"])
    def test_pair_lists_of_other_lengths_rejected(self, tmp_path, key,
                                                  change):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, "2")
        pairs = doc["reports"][1]["pairs"]
        if change == "shorter":
            pairs[key].pop()
        elif change == "longer":
            pairs[key].append(pairs[key][0])
        elif change == "missing":
            del pairs[key]
        else:
            pairs[key] = pairs[key][0]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParams, match="pairs must hold the lists"):
            read_report(str(path))

    def test_rows_in_a_version_2_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, "1")
        doc["schema_version"] = "2"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParams, match="pairs must hold the lists"):
            read_report(str(path))

    def test_hand_built_values_are_written_as_floats(self, tmp_path):
        p, q = Pattern((1, 2, 3)), Pattern((3, 2, 1))
        hand = dataclasses.replace(
            measure(np.arange(6.0), EmbeddingConfig(m=3), "TIR"), pairs=[
                PairContribution(p, q, 1, True, np.float64(0.25)),
                PairContribution(q, SAME_BIN, np.int64(0), False, 0)])
        pairs = hand.pairs
        for column in (pairs.p_forward, pairs.p_counterpart, pairs.ys):
            assert column.dtype == np.float64
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(ReportDocument(provenance={}, reports=[hand]), str(first))
        written = json.loads(first.read_text())["reports"][0]["pairs"]
        assert written["p_forward"] == [1.0, 0.0]
        assert written["p_counterpart"] == [1.0, 0.0]
        assert written["ys"] == [0.25, 0.0]
        assert all(type(v) is float for key in ("p_forward", "p_counterpart",
                                                "ys") for v in written[key])
        back = read_report(str(first))
        assert back.reports == [hand]
        write_report(back, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_first_bad_string_in_document_order_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = self._json(tmp_path, "1")
        pairs = [p for p in doc["reports"][1]["pairs"]
                 if p["counterpart"] != "same-bin"]
        pairs[0]["counterpart"] = "1,2,4"
        pairs[1]["pattern"] = "9,9,9"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidPattern, match="'1,2,4'"):
            read_report(str(path))

    def test_first_bad_string_in_version_2_order_named(self, tmp_path):
        # A "2" report lists all its counterparts before its patterns, so a
        # bad counterpart of a later pair is named before a bad pattern of
        # an earlier one; a "1" report names the pattern.
        path = tmp_path / "bad.json"
        for version, named in (("2", "'1,2,4'"), ("1", "'9,9,9'")):
            doc = self._json(tmp_path, version)
            pairs = doc["reports"][1]["pairs"]
            paired = [i for i in range(_pair_count(pairs))
                      if _pair_field(pairs, i, "counterpart") != "same-bin"]
            _set_pair_field(pairs, paired[0], "pattern", "9,9,9")
            _set_pair_field(pairs, paired[1], "counterpart", "1,2,4")
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidPattern, match=named):
                read_report(str(path))
            # An earlier report's bad string is named first.
            _set_pair_field(doc["reports"][0]["pairs"], 0, "pattern", "3,3,4")
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidPattern, match="'3,3,4'"):
                read_report(str(path))

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_patterns_parsed_once_per_document(self, tmp_path, monkeypatch,
                                               version):
        path = tmp_path / "r.json"
        doc = self._json(tmp_path, version)
        path.write_text(json.dumps(doc))
        parsed = []
        real = irrev_io._parse_codes

        def counting(texts, m):
            parsed.extend(texts)
            return real(texts, m)

        monkeypatch.setattr(irrev_io, "_parse_codes", counting)
        tir, air = read_report(str(path)).reports
        assert tir.pairs[0].pattern.labels == air.pairs[0].pattern.labels
        assert tir.pairs[0].pattern == air.pairs[0].pattern
        strings = {_pair_field(report["pairs"], i, key)
                   for report in doc["reports"]
                   for i in range(_pair_count(report["pairs"]))
                   for key in ("pattern", "counterpart")} - {"same-bin"}
        assert sorted(parsed) == sorted(strings)

    def test_numpy_scalar_fields_are_written(self, tmp_path):
        report = dataclasses.replace(
            self._document().reports[0], value=np.float32(0.5),
            n_windows=np.int64(8), n_forbidden_counterparts=np.uint8(0))
        path = tmp_path / "r.json"
        write_report(ReportDocument(provenance={}, reports=[report]), str(path))
        written = json.loads(path.read_text())["reports"][0]
        assert (written["value"], written["n_windows"]) == (0.5, 8)
        assert read_report(str(path)).reports == [report]

    @pytest.mark.parametrize("field, bad", [
        ("value", "0.5"), ("value", None), ("n_windows", None),
        ("n_windows", "8"), ("n_observed_patterns", -1),
        ("n_forbidden_counterparts", 1.5), ("kind", "tir")])
    def test_bad_report_field_rejected_on_read(self, tmp_path, field, bad):
        path = tmp_path / "bad.json"
        write_report(self._document(), str(path))
        doc = json.loads(path.read_text())
        doc["reports"][1][field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParams, match=f"{field} must be"):
            read_report(str(path))

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
  "schema_version": "2",
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
        assert read_report(str(path)).schema_version == "2"

    def test_version_1_is_read_as_version_1(self, tmp_path):
        path = tmp_path / "v1.json"
        doc = self._document()
        path.write_text(reference_report_text(
            dataclasses.replace(doc, schema_version="1")))
        back = read_report(str(path))
        assert back.schema_version == "1"
        assert back.reports == doc.reports
        with pytest.raises(InvalidParams, match="only schema_version '2'"):
            write_report(back, str(tmp_path / "again.json"))
        assert not (tmp_path / "again.json").exists()

    @pytest.mark.parametrize("version", ["0", "3", "1.0", 2, None, ["2"]])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "v.json"
        doc = self._json(tmp_path, "2")
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParams, match="schema_version must be"):
            read_report(str(path))

    @pytest.mark.parametrize("version, where, new", [
        ("1", ("reports", 0, "pairs"), [5]),
        ("1", ("reports", 0, "pairs", 0, "counterpart"), _DELETE),
        ("2", ("reports", 0, "config"), _DELETE),
        ("2", ("reports", 0, "config", "width"), 3),
        ("2", ("reports",), 5),
        ("2", ("reports", 0), "report"),
        ("2", ("reports", 0, "kind"), _DELETE),
        ("2", ("verdicts",), [{"p2_5": 0.1, "bogus": 1}]),
        ("2", ("provenance",), _DELETE),
        ("2", ("schema_version",), _DELETE),
        ("1", ("provenance",), _DELETE),
        ("2", (), ["a list"]),
        ("2", (), _TRUNCATE),
        ("1", (), _TRUNCATE),
    ])
    def test_broken_document_is_invalid_params(self, tmp_path, version, where,
                                               new):
        path = tmp_path / "broken.json"
        doc = self._json(tmp_path, version)
        if new is _DELETE:
            del _at(doc, where[:-1])[where[-1]]
        elif where:
            _at(doc, where[:-1])[where[-1]] = new
        elif new is not _TRUNCATE:
            doc = new
        text = json.dumps(doc)
        path.write_text(text[:len(text) // 2] if new is _TRUNCATE else text)
        with pytest.raises(InvalidParams,
                           match=f"^{path} is not a report document: "):
            read_report(str(path))

    @pytest.mark.parametrize("version", ["1", "3", 2, None])
    def test_only_version_2_is_written(self, tmp_path, version):
        doc = dataclasses.replace(self._document(), schema_version=version)
        with pytest.raises(InvalidParams, match="only schema_version '2'"):
            write_report(doc, str(tmp_path / "v.json"))
        assert os.listdir(tmp_path) == []


_LABEL = st.one_of(
    st.integers(-2, 16).map(str),
    st.text(alphabet="0123456789+-_ \t", max_size=4),
    st.integers(-2**80, 2**80).map(str),
    st.sampled_from(["", " 1", "2 ", "+1", "-0", "01", "1_0", "_1", "1__2",
                     "1.0", "0x1", "1e0", "\u0663", "\uff11", "\t2\n", "\u20073",
                     "9223372036854775808", "-9223372036854775809",
                     "9" * 5000]))


@st.composite
def _pattern_texts(draw):
    m = draw(st.integers(2, 15))
    good = st.integers(1, m).map(str)
    near = st.one_of(good, st.integers(-1, m + 1).map(str), _LABEL)
    text = st.one_of(
        st.lists(good, min_size=m, max_size=m),
        st.lists(good, min_size=m - 1, max_size=m + 1),
        st.lists(near, min_size=m, max_size=m),
        st.lists(_LABEL, min_size=1, max_size=m + 1)).map(",".join)
    return m, draw(st.lists(text, min_size=1, max_size=6))


class TestParseCodesMatchesIntParse:
    """The one-step pattern parse accepts and rejects what ``int`` did."""

    @settings(max_examples=400, deadline=None)
    @given(case=_pattern_texts())
    def test_same_codes_and_rejections(self, case):
        m, texts = case
        expected = [reference_pattern_code(text, m) for text in texts]
        for text, code in zip(texts, expected):
            got = irrev_io._parse_codes([text], m)
            assert (None if got is None else got.tolist()) == (
                None if code is None else [code]), text
        got = irrev_io._parse_codes(texts, m)
        if None in expected:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == expected

    def test_no_texts(self):
        assert irrev_io._parse_codes([], 3).tolist() == []

    def test_label_count_is_checked_per_string(self):
        # Six labels in all, as two strings of 3 would have.
        assert irrev_io._parse_codes(["1,2", "3,1,2,3"], 3) is None
        assert irrev_io._parse_codes(["1,2,3", "3,1,2"], 3).tolist() == [
            reference_pattern_code("1,2,3", 3),
            reference_pattern_code("3,1,2", 3)]


@pytest.fixture(scope="module")
def tied_m6_document():
    """TIR and AIR at m=6 of 20000 Gaussian samples rounded to 0.1."""
    x = np.round(np.random.default_rng(3).standard_normal(20000), 1)
    return ReportDocument(provenance={"case": "tied m=6"},
                          reports=[measure(x, EmbeddingConfig(m=6), kind)
                                   for kind in ("TIR", "AIR")])


class _WriteFailed(Exception):
    pass


class TestWriteReportStreams:
    def test_write_holds_less_than_twice_the_file(self, tmp_path,
                                                  tied_m6_document):
        path = tmp_path / "r.json"
        tracemalloc.start()
        try:
            write_report(tied_m6_document, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    @staticmethod
    def _assert_no_trace(tmp_path, doc):
        """A failing write of ``doc`` over an existing file leaves it as it was."""
        path = tmp_path / "r.json"
        path.write_bytes(b"old\n")
        with pytest.raises(_WriteFailed):
            write_report(doc, str(path))
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["r.json"]

    def test_failure_after_the_first_list_leaves_no_trace(
            self, tmp_path, monkeypatch, tied_m6_document):
        sizes = []

        def failing_numbers_text(texts, column):
            # The counterpart list comes first and is in the temp file by now.
            sizes.extend(os.path.getsize(tmp_path / name)
                         for name in os.listdir(tmp_path) if name.endswith(".tmp"))
            raise _WriteFailed

        monkeypatch.setattr(irrev_io._PairTexts, "_numbers_text",
                            failing_numbers_text)
        self._assert_no_trace(tmp_path, tied_m6_document)
        assert len(sizes) == 1 and sizes[0] > 0

    def test_failed_fsync_leaves_no_trace(self, tmp_path, monkeypatch,
                                          tied_m6_document):
        def failing_fsync(fd):
            raise _WriteFailed

        monkeypatch.setattr(os, "fsync", failing_fsync)
        self._assert_no_trace(tmp_path, tied_m6_document)


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


def _outcome(read, path):
    """What reading ``path`` gives: the samples, or the error raised."""
    try:
        return read(path)
    except Exception as exc:  # compared by type, message and line number
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _read_plain(path):
    return read_series(SeriesFile(path))


class TestReadSeriesMatchesLineReader:
    @pytest.mark.parametrize("content", [
        b"1.0\r\n2.5\r\n-3\r\n",                       # CRLF
        b"1.0\r2.5\r-3\r",                              # lone CR
        b"1.0\r\n2.5\r-3\n4",                           # mixed endings
        b"1\n   \n2\n\t\n3\n",                          # whitespace-only
        b"\n1\n\n\n2\n\n",                               # blank lines
        b"1\n2\n3",                                      # no final newline
        b"  1.5  \n\t2\t\n3e2\n1_000\n",                 # float() spellings
        b"1\n1 2\n3\n",                                  # two values a line
        "1\n\u22122.5\n3\n".encode(),                     # unicode minus
        b"\xef\xbb\xbf1\n2\n3\n",                         # UTF-8 BOM
        b"1\n2\nnan\n4\n",                               # nan at line 3
        b"1\ninf\n",                                     # inf at line 2
        b"1\n2\n3\n-Infinity\n",                         # -inf at line 4
        b"1\n1e999\n",                                   # overflows to inf
        "1\n2\u20283\n".encode(),                         # not a line break
        b"1\n2\x0c3\n",                                  # nor a form feed
        b"1\n\xff\n",                                    # not UTF-8
        b"1\n", b"", b"\n\n", b"1\n\n\n",                # < 2 samples
    ])
    def test_same_outcome(self, tmp_path, content):
        path = tmp_path / "s.txt"
        path.write_bytes(content)
        expected = _outcome(reference_read_series, str(path))
        assert _outcome(_read_plain, str(path)) == expected

    def test_clean_file_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "s.txt"
        write_series([0.1, -2.5, 3.0], str(path))

        def per_line(text, line_no):
            raise AssertionError("parsed line by line")

        monkeypatch.setattr(irrev_io, "_parse_sample", per_line)
        assert read_series(SeriesFile(str(path))) == [0.1, -2.5, 3.0]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-10**20, 10**20).map(str),
        st.sampled_from(["", " ", "\t", "\u22121.5", "1 2", "x", "nan",
                         " 4.25 ", "\ufeff1"]),
    ), max_size=12),
        endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=12, max_size=12),
        final=st.booleans())
    def test_same_outcome_on_generated_files(self, tmp_path, lines, endings,
                                             final):
        text = "".join(line + end for line, end in zip(lines, endings))
        if lines and not final:
            text = text[:-len(endings[len(lines) - 1])]
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(reference_read_series, str(path))
        assert _outcome(_read_plain, str(path)) == expected


_TRICKY_TEXT = st.sampled_from([
    '"pairs": [],', '"reports": [],', '\n  "reports": [],\n',
    '\n      "pairs": [],\n', 'say "hi"\n', "tab\tback\\slash", "\u2212",
    "\udcff", "",
])
_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    _TRICKY_TEXT)
_KEYS = st.one_of(st.sampled_from(["pairs", "reports", "input", "seed"]),
                  st.text(max_size=6), _TRICKY_TEXT)
_PROVENANCE = st.dictionaries(_KEYS, st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=8), max_size=5)
_PAIR_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     np.float64(0.1), np.float64(-0.0), 1, 0, True, False]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-10**6, 10**6))


@st.composite
def _measured_reports(draw):
    m = draw(st.integers(2, 7))
    tau = draw(st.integers(1, 2))
    config = EmbeddingConfig(m=m, tau=tau,
                             scheme=draw(st.sampled_from(
                                 ["equal-value", "original"])))
    n = (m - 1) * tau + draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = rng.integers(0, 3, size=n).astype(float)   # tied
    else:
        x = rng.permutation(n).astype(float)           # tie-free
    return [measure(x, config, kind)
            for kind in draw(st.sets(st.sampled_from(["TIR", "AIR"])))]


@st.composite
def _hand_built_report(draw):
    m = draw(st.integers(2, 5))
    labels = st.permutations(range(1, m + 1)).map(tuple)
    pairs = draw(st.lists(st.builds(
        PairContribution,
        pattern=labels.map(Pattern),
        counterpart=st.one_of(st.just(SAME_BIN), labels.map(Pattern)),
        p_forward=_PAIR_VALUE, p_counterpart=_PAIR_VALUE, ys=_PAIR_VALUE),
        max_size=6))
    report = measure(np.arange(float(m + 3)), EmbeddingConfig(m=m), "TIR")
    return dataclasses.replace(report, pairs=pairs,
                               value=draw(_PAIR_VALUE))


_VERDICT = st.builds(
    SurrogateVerdict,
    original_value=_PAIR_VALUE,
    surrogate_values=st.lists(_PAIR_VALUE, max_size=4),
    p2_5=_PAIR_VALUE, p97_5=_PAIR_VALUE,
    significant_above=st.booleans(), significant_below=st.booleans())


class TestWriteReportMatchesJsonDumps:
    def _check(self, tmp_path, doc):
        path = tmp_path / "r.json"
        write_report(doc, str(path))
        assert path.read_bytes() == reference_report_text(doc).encode("utf-8")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(provenance=_PROVENANCE,
           reports=st.lists(st.one_of(_measured_reports(),
                                      _hand_built_report().map(lambda r: [r])),
                            max_size=3),
           empty=st.booleans(),
           verdicts=st.lists(_VERDICT, max_size=2))
    def test_same_bytes(self, tmp_path, provenance, reports, empty, verdicts):
        reports = [r for group in reports for r in group]
        if empty and reports:
            reports[0] = dataclasses.replace(reports[0], pairs=[])
        self._check(tmp_path, ReportDocument(provenance=provenance,
                                             reports=reports,
                                             verdicts=verdicts))

    def test_special_values_and_structural_strings(self, tmp_path):
        tied, hand = _special_reports()
        verdict = _SPECIAL_VERDICT
        provenance = {
            "input": 'a "quoted"\nname "pairs": [],',
            "nested": {"x": {"pairs": [], "reports": []}, "reports": []},
            "pairs": [], "reports": [],
            '"reports": [],': '\n  "reports": [],\n      "pairs": [],\n',
        }
        for reports in ([], [dataclasses.replace(tied, pairs=[])],
                        [tied, hand, dataclasses.replace(hand, pairs=[])]):
            self._check(tmp_path, ReportDocument(
                provenance=provenance, reports=reports, verdicts=[verdict]))
