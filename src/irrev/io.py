"""Reading and writing series files, JSON report documents and sweep tables.

Formats are kept byte-stable: floats in text series and CSV tables use 17
significant digits (enough to round-trip any double), JSON documents are
written with sorted keys, and ``write -> read -> write`` is byte-identical.
Report documents embed provenance (input, config, seed, tool version) so
every published number can be regenerated.

Report documents are written in schema "2", where each report's ``pairs``
is an object of five lists of one length (``counterpart``,
``p_counterpart``, ``p_forward``, ``pattern``, ``ys``). Schema "1", with
one object per pair, is still read: its pairs are turned into the same
five lists, and from there both versions share one reader.

Every file is written to a sibling temp file, synced and renamed over the
target. A report document is streamed list by list, so a write holds about
one pair list's text and the memos of its label and number texts, never
the whole document.
"""

from __future__ import annotations

import csv as _csv
import json
import math
import os
import uuid
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import (EmptyFile, InvalidParams, InvalidPattern, NonFiniteSample,
                     ParseError, checked_choice, checked_int, checked_series)
from .measures import _SAME_BIN_CODE, SAME_BIN, IrreversibilityReport, PairTable
from .ordinal import EmbeddingConfig, _code_digits, _code_weights
from .surrogates import SurrogateVerdict

SCHEMA_VERSION = "2"


@dataclass(frozen=True)
class SeriesFile:
    path: str
    format: str = "plain"  # "plain" | "csv"
    delimiter: str = ","
    column: int = 0
    header: bool = False

    def __post_init__(self):
        checked_choice("format", self.format, ("plain", "csv"))
        if len(self.delimiter) != 1:
            raise InvalidParams(f"delimiter must be 1 character, got {self.delimiter!r}")
        object.__setattr__(self, "column", checked_int("column", self.column, 0))


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
    """Write one sample per line, 17 significant digits, newline-terminated.

    The samples are checked once by ``checked_series`` and rendered with
    one format operation, whose text equals :func:`_fmt` of each sample.
    """
    samples = checked_series(series)
    if not len(samples):
        raise EmptyFile("refusing to write an empty series")
    _durable_write(path, (("%.17g\n" * len(samples)) % tuple(samples.tolist()),))


def _durable_write(path: str, chunks) -> None:
    """Replace ``path`` atomically by the text pieces of the iterable
    ``chunks``: write them to a sibling temp file, sync it, rename it over.
    If anything fails, the making of a piece included, the temp file is
    removed and the target is left as it was."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- JSON document codec -------------------------------------------------------

# The lists of a report's ``pairs``, in the sorted order json writes them.
_PAIR_KEYS = ("counterpart", "p_counterpart", "p_forward", "pattern", "ys")
_READABLE_VERSIONS = ("1", SCHEMA_VERSION)


def _pair_lists(pairs, version: str) -> dict:
    """The five pair lists of a report of schema ``version``, of one length.

    A "1" report holds one object per pair, whose fields are first turned
    into the lists that a "2" report holds.
    """
    if version == "1":
        pairs = {key: list(map(itemgetter(key), pairs)) for key in _PAIR_KEYS}
    if not (isinstance(pairs, dict)
            and all(isinstance(pairs.get(key), list) for key in _PAIR_KEYS)
            and len({len(pairs[key]) for key in _PAIR_KEYS}) == 1):
        raise InvalidParams(
            f"pairs must hold the lists {', '.join(_PAIR_KEYS)}, of one length")
    return pairs


def _texts_in_order(lists: dict, version: str):
    """The pattern strings of a report in document order: a "2" report
    lists its counterparts before its patterns, while a "1" report writes
    each pair's pattern before its counterpart."""
    if version == "1":
        return chain.from_iterable(zip(lists["pattern"], lists["counterpart"]))
    return chain(lists["counterpart"], lists["pattern"])


def _parse_codes(texts: list, m: int) -> np.ndarray | None:
    """Codes of pattern strings of ``m`` integer labels in ``1..m``, all
    parsed in one step; None if any text is not such a string.

    numpy parses each label as ``int`` does, except that a label beyond
    int64, which is out of range anyway, fails to parse.
    """
    if not texts:
        return np.empty(0, dtype=np.int64)
    try:  # TypeError: a text is not a string
        if list(map(str.count, texts, repeat(","))).count(m - 1) != len(texts):
            return None
        labels = np.array(",".join(texts).split(","), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if labels.min() < 1 or labels.max() > m:
        return None
    return labels.reshape(-1, m) @ _code_weights(m)


def _document_codes(reports: list, version: str) -> dict:
    """``m -> {pattern string: code}`` (``SAME_BIN`` included) over the
    ``(m, pair lists)`` of a document's reports.

    The distinct strings of each ``m`` are parsed in one step. If that
    fails, the strings are parsed one by one in document order, and the
    first that is not ``m`` integer labels in ``1..m`` raises
    :class:`InvalidPattern`.
    """
    texts_by_m = {}
    for m, lists in reports:
        texts_by_m.setdefault(m, []).append(_texts_in_order(lists, version))
    codes_by_m = {}
    for m, texts in texts_by_m.items():
        try:
            distinct = dict.fromkeys(chain.from_iterable(texts))
        except TypeError:  # an unhashable pattern
            break
        distinct.pop(SAME_BIN, None)
        fresh = list(distinct)
        codes = _parse_codes(fresh, m)
        if codes is None:
            break
        codes_by_m[m] = dict(zip(fresh, codes.tolist()))
        codes_by_m[m][SAME_BIN] = _SAME_BIN_CODE
    else:
        return codes_by_m
    for m, lists in reports:
        for text in _texts_in_order(lists, version):
            if text != SAME_BIN and _parse_codes([text], m) is None:
                raise InvalidPattern(
                    f"pattern {text!r} does not have {m} labels in 1..{m}")
    raise AssertionError("the one-step parse rejected valid pattern strings")


def report_from_dict(d: dict, config: EmbeddingConfig, lists: dict,
                     codes: dict) -> IrreversibilityReport:
    """Rebuild a report from its document fields, its parsed ``config``,
    its five pair lists and the ``{pattern string: code}`` map of its m."""
    return IrreversibilityReport(
        kind=d["kind"],
        config=config,
        value=d["value"],
        pairs=PairTable(
            config.m, config.scheme,
            list(map(codes.__getitem__, lists["pattern"])),
            list(map(codes.__getitem__, lists["counterpart"])),
            lists["p_forward"], lists["p_counterpart"], lists["ys"]),
        n_observed_patterns=d["n_observed_patterns"],
        n_forbidden_counterparts=d["n_forbidden_counterparts"],
        n_windows=d["n_windows"],
    )


# ``json.dumps(..., sort_keys=True, indent=2)`` of a document, streamed in
# pieces: the envelope of the document and of each report is rendered with an
# empty ``reports`` list or ``pairs`` object and split at that value's line,
# and the items are written between the two halves, one pair list at a time.
# Only keys of the document sit at an indent of 2 spaces, and only keys of a
# report at 6, so each of those lines occurs once in its envelope.
_REPORT_KEY_INDENT = "      "
_SAME_BIN_TEXT = json.dumps(SAME_BIN)


def _split_at(envelope: str, indent: str, key: str, empty: str) -> tuple[str, str]:
    """``envelope`` before and after the ``empty`` value of ``key``."""
    head, slot, tail = envelope.partition(f'\n{indent}"{key}": {empty},\n')
    assert slot, key
    return f'{head}\n{indent}"{key}": ', f",\n{tail}"


def _json_list(items: list[str], indent: str) -> str:
    """The JSON texts ``items`` as the list ``json.dumps`` writes at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _memoised(memo: dict, keys: np.ndarray, render) -> list[str]:
    """The text of each int64 key; ``render`` makes the texts of the
    distinct keys not yet in ``memo``, all in one call."""
    distinct, index = np.unique(keys, return_inverse=True)
    distinct = distinct.tolist()
    fresh = [key for key in distinct if key not in memo]
    memo.update(zip(fresh, render(np.array(fresh, dtype=np.int64))))
    texts = np.array(list(map(memo.__getitem__, distinct)), dtype=object)
    return texts[index].tolist()


class _PairTexts:
    """The ``pairs`` object of a :class:`PairTable` as ``json.dumps`` writes it.

    Each list is rendered from the table's columns: the label text of each
    distinct code once per document and ``m``, and the text of each
    distinct float once per document, keyed by its bits (so ``0.0`` and
    ``-0.0`` keep their own texts).
    """

    def __init__(self):
        self._codes, self._numbers = {}, {}

    def _codes_text(self, m: int, codes: np.ndarray) -> list[str]:
        lines = ('"' + ",".join(["%d"] * m) + '"\n')

        def render(fresh):  # one format operation, split into lines
            digits = tuple(_code_digits(fresh, m).ravel().tolist())
            return (lines * len(fresh) % digits).split("\n")[:-1]

        return _memoised(self._codes.setdefault(
            m, {_SAME_BIN_CODE: _SAME_BIN_TEXT}), codes, render)

    def _numbers_text(self, column: np.ndarray) -> list[str]:
        return _memoised(self._numbers, column.view(np.int64), lambda fresh: map(
            _float_text, fresh.view(np.float64).tolist()))

    def chunks(self, pairs: PairTable, indent: str):
        """The text of ``pairs`` at ``indent``, one list at a time: each
        list is rendered only once the one before it has been taken."""
        inner = indent + "  "
        lists = (lambda: self._codes_text(pairs.m, pairs.counterpart_codes),
                 lambda: self._numbers_text(pairs.p_counterpart),
                 lambda: self._numbers_text(pairs.p_forward),
                 lambda: self._codes_text(pairs.m, pairs.codes),
                 lambda: self._numbers_text(pairs.ys))
        for opening, key, items in zip(chain(["{\n"], repeat(",\n")),
                                       _PAIR_KEYS, lists):
            yield f'{opening}{inner}"{key}": {_json_list(items(), inner)}'
        yield "\n" + indent + "}"


def _report_chunks(report: IrreversibilityReport, texts: _PairTexts):
    envelope = json.dumps({
        "kind": report.kind,
        "config": asdict(report.config),
        "value": report.value,
        "n_windows": report.n_windows,
        "n_observed_patterns": report.n_observed_patterns,
        "n_forbidden_counterparts": report.n_forbidden_counterparts,
        "pairs": {},
    }, sort_keys=True, indent=2).replace("\n", "\n    ")
    head, tail = _split_at(envelope, _REPORT_KEY_INDENT, "pairs", "{}")
    yield head
    yield from texts.chunks(report.pairs, _REPORT_KEY_INDENT)
    yield tail


def _document_chunks(doc: ReportDocument):
    """The text of ``doc`` in pieces, each report's pair lists one by one."""
    texts = _PairTexts()
    head, tail = _split_at(json.dumps({
        "schema_version": doc.schema_version,
        "provenance": doc.provenance,
        "reports": [],
        "verdicts": [asdict(v) for v in doc.verdicts],
    }, sort_keys=True, indent=2) + "\n", "  ", "reports", "[]")
    yield head
    if doc.reports:
        for opening, report in zip(chain(["[\n    "], repeat(",\n    ")),
                                   doc.reports):
            yield opening
            yield from _report_chunks(report, texts)
        yield "\n  ]"
    else:
        yield "[]"
    yield tail


def write_report(doc: ReportDocument, path: str) -> None:
    """Serialize a document as sorted-key UTF-8 JSON; durable on return.

    Only schema :data:`SCHEMA_VERSION` ("2") is written; a document of any
    other version raises :class:`InvalidParams` before any file is opened.
    Each report's ``pairs`` is an object of five lists of one length,
    ``counterpart``, ``p_counterpart``, ``p_forward``, ``pattern`` and
    ``ys``. The bytes are those of ``json.dumps(..., sort_keys=True,
    indent=2)`` plus a newline. Only the envelope goes through ``json``;
    the lists are rendered straight from the columns of each report's
    :class:`PairTable`. The document is written list by list, so a write
    holds about one pair list's text and the memos, not the document.
    """
    if doc.schema_version != SCHEMA_VERSION:
        raise InvalidParams(f"only schema_version {SCHEMA_VERSION!r} is "
                            f"written, got {doc.schema_version!r}")
    _durable_write(path, _document_chunks(doc))


def read_report(path: str) -> ReportDocument:
    """Load a report document of schema "1" or "2".

    The document keeps the version its file holds; any other version raises
    :class:`InvalidParams`. A "1" report's pair objects are first turned
    into the five lists of a "2" report, which must have one length, else
    :class:`InvalidParams`. The distinct pattern strings of the document
    are parsed in one step per ``m``, and each must hold ``m`` integer
    labels in ``1..m``, else the first bad string in document order raises
    :class:`InvalidPattern`; so does ``SAME_BIN`` as a pattern. A pair value
    or report field of the wrong type raises :class:`InvalidParams`, and so,
    naming ``path``, does text that is not JSON or a missing or odd field.
    Reports are otherwise trusted input: neither the realisability of a
    pattern nor the numbers are re-checked. Each table decodes its own
    codes when its pairs are first read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _document(json.load(fh))
        except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
            raise InvalidParams(f"{path} is not a report document: {exc!r}") from exc


def _document(d: dict) -> ReportDocument:
    """The document of the decoded JSON ``d``: see :func:`read_report`."""
    version = checked_choice("schema_version", d["schema_version"], _READABLE_VERSIONS)
    reports = [(r, EmbeddingConfig(**r["config"]),
                _pair_lists(r["pairs"], version)) for r in d["reports"]]
    codes_by_m = _document_codes(
        [(config.m, lists) for _, config, lists in reports], version)
    return ReportDocument(
        provenance=d["provenance"],
        reports=[report_from_dict(r, config, lists, codes_by_m[config.m])
                 for r, config, lists in reports],
        verdicts=[SurrogateVerdict(**v) for v in d["verdicts"]],
        schema_version=version,
    )


def write_sweep_csv(reports, path: str) -> None:
    """One row per (kind, m, tau) sweep cell."""
    lines = ["kind,m,tau,value,n_windows,n_forbidden"]
    for r in reports:
        lines.append(
            f"{r.kind},{r.config.m},{r.config.tau},{_fmt(r.value)},"
            f"{r.n_windows},{r.n_forbidden_counterparts}"
        )
    _durable_write(path, ("\n".join(lines) + "\n",))
