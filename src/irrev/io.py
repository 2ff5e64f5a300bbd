"""Reading and writing series files, JSON report documents and sweep tables.

Formats are kept byte-stable: floats in text series and CSV tables use 17
significant digits (enough to round-trip any double), JSON documents are
written with sorted keys, and ``write -> read -> write`` is byte-identical.
Report documents embed provenance (input, config, seed, tool version) so
every published number can be regenerated.
"""

from __future__ import annotations

import csv as _csv
import json
import math
import os
import uuid
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import EmptyFile, InvalidParams, NonFiniteSample, ParseError
from .measures import _SAME_BIN_CODE, SAME_BIN, IrreversibilityReport, PairTable
from .ordinal import EmbeddingConfig, _code_digits, _pattern_code
from .surrogates import SurrogateVerdict

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class SeriesFile:
    path: str
    format: str = "plain"  # "plain" | "csv"
    delimiter: str = ","
    column: int = 0
    header: bool = False

    def __post_init__(self):
        if self.format not in ("plain", "csv"):
            raise InvalidParams(f"format must be 'plain' or 'csv', got {self.format!r}")
        if len(self.delimiter) != 1:
            raise InvalidParams(f"delimiter must be 1 character, got {self.delimiter!r}")
        if self.column < 0:
            raise InvalidParams(f"column must be >= 0, got {self.column}")


@dataclass
class ReportDocument:
    provenance: dict
    reports: list[IrreversibilityReport] = field(default_factory=list)
    verdicts: list[SurrogateVerdict] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_sample(text: str, line_no: int) -> float:
    # Accept the unicode minus some exports use.
    cleaned = text.strip().replace("−", "-")
    try:
        value = float(cleaned)
    except ValueError:
        raise ParseError(line_no, text) from None
    if not math.isfinite(value):
        raise NonFiniteSample(f"line {line_no}: non-finite sample {text!r}")
    return value


def read_series(file: SeriesFile) -> list[float]:
    """Read samples in file order; blank lines are ignored in plain format.

    A plain file is parsed in bulk. Only a file the bulk parse rejects
    (blank lines, the unicode minus, an unparsable or non-finite sample)
    is scanned again line by line, which raises the exact line's error.
    """
    with open(file.path, "r", encoding="utf-8") as fh:
        if file.format == "plain":
            samples = _bulk_samples(fh.read())
            if samples is None:
                fh.seek(0)
                samples = [_parse_sample(line, line_no)
                           for line_no, line in enumerate(fh, start=1)
                           if line.strip()]
        else:
            samples = []
            reader = _csv.reader(fh, delimiter=file.delimiter)
            for line_no, row in enumerate(reader, start=1):
                if file.header and line_no == 1:
                    continue
                if not row:
                    continue
                if file.column >= len(row):
                    raise ParseError(
                        line_no, file.delimiter.join(row),
                        f"no column {file.column}",
                    )
                samples.append(_parse_sample(row[file.column], line_no))
    if len(samples) < 2:
        raise EmptyFile(f"{file.path}: found {len(samples)} samples, need >= 2")
    return samples


def _bulk_samples(text: str) -> list[float] | None:
    """One finite float per line of ``text``, or None if any line is not."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline ends the last line
    try:
        samples = list(map(float, lines))
    except ValueError:
        return None
    return samples if all(map(math.isfinite, samples)) else None


def write_series(series, path: str) -> None:
    """Write one sample per line, 17 significant digits, newline-terminated."""
    samples = [float(v) for v in series]
    if not samples:
        raise EmptyFile("refusing to write an empty series")
    for v in samples:
        if not math.isfinite(v):
            raise NonFiniteSample(f"non-finite sample {v!r}")
    _durable_write(path, "".join(_fmt(v) + "\n" for v in samples))


def _durable_write(path: str, text: str) -> None:
    """Replace ``path`` atomically: sync a sibling temp file, rename it over."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- JSON document codec -------------------------------------------------------

_PAIR_KEYS = ("pattern", "counterpart", "p_forward", "p_counterpart", "ys")


def report_from_dict(d: dict, codes_by_m: dict) -> IrreversibilityReport:
    """Rebuild a report; ``codes_by_m`` is the memo of its document.

    ``codes_by_m`` maps ``m`` to the code of each codec string parsed so far
    (``SAME_BIN`` included); a code does not depend on the scheme. Each new
    string is parsed once, in document order, so a bad string raises before
    any later one. It must hold ``m`` integer labels in ``1..m``;
    realisability is not checked, reports are trusted input.
    """
    config = EmbeddingConfig(**d["config"])
    codes = codes_by_m.setdefault(config.m, {SAME_BIN: _SAME_BIN_CODE})
    pattern_texts, counterpart_texts, p_forward, p_counterpart, ys = (
        list(map(itemgetter(key), d["pairs"])) for key in _PAIR_KEYS)
    for text in dict.fromkeys(chain.from_iterable(zip(pattern_texts,
                                                      counterpart_texts))):
        if text not in codes:
            try:
                labels = tuple(map(int, text.split(",")))
            except ValueError:
                labels = ()
            codes[text] = _pattern_code(labels, config.m, text)
    return IrreversibilityReport(
        kind=d["kind"],
        config=config,
        value=d["value"],
        pairs=PairTable(
            config.m, config.scheme, list(map(codes.__getitem__, pattern_texts)),
            list(map(codes.__getitem__, counterpart_texts)),
            p_forward, p_counterpart, ys),
        n_observed_patterns=d["n_observed_patterns"],
        n_forbidden_counterparts=d["n_forbidden_counterparts"],
        n_windows=d["n_windows"],
    )


# ``json.dumps(..., sort_keys=True, indent=2)`` of a document, built in
# pieces: the envelope of the document and of each report is rendered with an
# empty ``reports``/``pairs`` list, whose line is then replaced by the items.
# Only keys of the document sit at an indent of 2 spaces, and only keys of a
# report at 6, so each of those lines occurs once in its envelope.
_REPORT_INDENT = "    "
_PAIR = (
    "        {\n"
    '          "counterpart": %s,\n'
    '          "p_counterpart": %s,\n'
    '          "p_forward": %s,\n'
    '          "pattern": %s,\n'
    '          "ys": %s\n'
    "        }"
)
_SAME_BIN_TEXT = json.dumps(SAME_BIN)


def _splice(envelope: str, indent: str, key: str, items: list[str]) -> str:
    """Put ``items`` in place of the empty list of ``key`` in ``envelope``."""
    if not items:
        return envelope
    head, slot, tail = envelope.partition(f'\n{indent}"{key}": [],\n')
    assert slot, key
    return "".join((head, f'\n{indent}"{key}": [\n', ",\n".join(items),
                    f"\n{indent}],\n", tail))


class _PairTexts:
    """Each pair of a :class:`PairTable` as ``json.dumps`` writes it.

    The pairs are rendered from the table's columns: the label text of each
    distinct code once per document, and the text of each distinct float
    memoised across the document. A zero is formatted each time, since
    ``0.0`` and ``-0.0`` share a key.
    """

    def __init__(self):
        self._numbers, self._codes = {}, {}

    def number(self, value: float) -> str:
        text = self._numbers.get(value)
        if text is None or not value:
            text = self._numbers[value] = (float.__repr__(value)
                                           if math.isfinite(value)
                                           else json.dumps(value))
        return text

    def _codes_text(self, m: int, codes: np.ndarray) -> list[str]:
        texts = self._codes.setdefault(m, {_SAME_BIN_CODE: _SAME_BIN_TEXT})
        codes = codes.tolist()
        fresh = [code for code in dict.fromkeys(codes) if code not in texts]
        label = '"' + ",".join(["%d"] * m) + '"'
        texts.update(zip(fresh, [
            label % tuple(row)
            for row in _code_digits(np.array(fresh, dtype=np.int64), m).tolist()]))
        return list(map(texts.__getitem__, codes))

    def lines(self, pairs: PairTable) -> list[str]:
        return list(map(_PAIR.__mod__, zip(
            self._codes_text(pairs.m, pairs.counterpart_codes),
            map(self.number, pairs.p_counterpart.tolist()),
            map(self.number, pairs.p_forward.tolist()),
            self._codes_text(pairs.m, pairs.codes),
            map(self.number, pairs.ys.tolist()))))


def _report_text(report: IrreversibilityReport, texts: _PairTexts) -> str:
    envelope = json.dumps({
        "kind": report.kind,
        "config": asdict(report.config),
        "value": report.value,
        "n_windows": report.n_windows,
        "n_observed_patterns": report.n_observed_patterns,
        "n_forbidden_counterparts": report.n_forbidden_counterparts,
        "pairs": [],
    }, sort_keys=True, indent=2)
    envelope = _REPORT_INDENT + envelope.replace("\n", "\n" + _REPORT_INDENT)
    return _splice(envelope, _REPORT_INDENT + "  ", "pairs",
                   texts.lines(report.pairs))


def write_report(doc: ReportDocument, path: str) -> None:
    """Serialize a document as sorted-key UTF-8 JSON; durable on return.

    The bytes are those of ``json.dumps(..., sort_keys=True, indent=2)``
    plus a newline. Only the envelope goes through ``json``; the pairs of
    every report are rendered through one fixed template.
    """
    texts = _PairTexts()
    envelope = json.dumps({
        "schema_version": doc.schema_version,
        "provenance": doc.provenance,
        "reports": [],
        "verdicts": [asdict(v) for v in doc.verdicts],
    }, sort_keys=True, indent=2) + "\n"
    reports = [_report_text(r, texts) for r in doc.reports]
    _durable_write(path, _splice(envelope, "  ", "reports", reports))


def read_report(path: str) -> ReportDocument:
    """Load a report document written by :func:`write_report`.

    Each distinct pattern string is parsed once per document and ``m``, and
    must hold ``m`` integer labels in ``1..m``, else :class:`InvalidPattern`
    is raised; a pair value or report field of the wrong type raises
    :class:`InvalidParams`. Reports are otherwise trusted input: neither the
    realisability of a pattern nor the numbers are re-checked. Each table
    decodes its own codes when its pairs are first read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    codes_by_m = {}
    return ReportDocument(
        provenance=d["provenance"],
        reports=[report_from_dict(r, codes_by_m) for r in d["reports"]],
        verdicts=[SurrogateVerdict(**v) for v in d["verdicts"]],
        schema_version=d["schema_version"],
    )


def write_sweep_csv(reports, path: str) -> None:
    """One row per (kind, m, tau) sweep cell."""
    lines = ["kind,m,tau,value,n_windows,n_forbidden"]
    for r in reports:
        lines.append(
            f"{r.kind},{r.config.m},{r.config.tau},{_fmt(r.value)},"
            f"{r.n_windows},{r.n_forbidden_counterparts}"
        )
    _durable_write(path, "\n".join(lines) + "\n")
