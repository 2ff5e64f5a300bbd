"""Reference implementations of the irreversibility measures, for tests.

:func:`measure_by_definition_oracle` is deliberately independent of
:mod:`irrev.ordinal` and :mod:`irrev.measures`: windows are materialized as
plain lists, the ordinal encoding uses its own insertion sort, counts live
in association lists, and the half-sum formula is evaluated directly in
rational arithmetic. Intended for testing on small inputs only (n up to
~10^4).

:func:`reference_measure` is the earlier dict-based pair decomposition of
:mod:`irrev.measures`, kept as it was: it works on the public
``PatternHistogram.counts`` dicts and the pattern-level symmetry maps, adds
one fraction per pattern, and builds a full report, pairs included, to
compare with :func:`irrev.measures.measure`. :func:`reference_pairs` is its
``PairContribution`` list as built, before the report turns it into a
``PairTable``.

:func:`reference_report_text` and :func:`reference_read_series` are the
earlier report writer (``json.dumps`` of the whole document) and the earlier
line-by-line reader of plain series files, kept as the references of
:func:`irrev.io.write_report` and :func:`irrev.io.read_series`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from fractions import Fraction

from irrev.errors import EmptyFile, NonFiniteSample, ParseError, SeriesTooShort
from irrev.measures import (
    KIND_AIR,
    KIND_TIR,
    SAME_BIN,
    TRANSFORM_NEGATE,
    TRANSFORM_TIME_REVERSE,
    IrreversibilityReport,
    PairContribution,
    PatternHistogram,
    build_histogram,
    ys_divergence,
)
from irrev.ordinal import (
    SCHEME_EQUAL_VALUE,
    Pattern,
    amplitude_reverse,
    pattern_to_string,
    time_reverse_tie_free,
)


def _ordinal_labels(window, scheme, tie_epsilon):
    """1-based ascending-order position labels, via insertion sort."""
    m = len(window)
    idx = []
    for pos in range(m):  # stable insertion by (value, position)
        k = len(idx)
        while k > 0 and window[idx[k - 1]] > window[pos]:
            k -= 1
        idx.insert(k, pos)
    labels = [i + 1 for i in idx]
    if scheme == "equal-value":
        out = list(labels)
        start = 0
        for k in range(1, m + 1):
            boundary = (
                k == m
                or window[idx[k]] - window[idx[k - 1]] > tie_epsilon
            )
            if boundary:
                lowest = min(labels[start:k])
                for t in range(start, k):
                    out[t] = lowest
                start = k
        labels = out
    return tuple(labels)


def _window_tied(window, tie_epsilon):
    """True iff two neighbours in sorted order lie within tie_epsilon."""
    ordered = sorted(window)
    return any(b - a <= tie_epsilon for a, b in zip(ordered, ordered[1:]))


def _assoc_increment(assoc, key):
    for entry in assoc:
        if entry[0] == key:
            entry[1] += 1
            return
    assoc.append([key, 1])


def _assoc_get(assoc, key):
    for k, v in assoc:
        if k == key:
            return v
    return 0


def measure_by_definition_oracle(series, config, kind) -> float:
    """Evaluate TIR or AIR straight from the definition."""
    x = [float(v) for v in series]
    for v in x:
        if v != v or v in (float("inf"), float("-inf")):
            raise NonFiniteSample("non-finite sample in series")
    m, tau = config.m, config.tau
    n_windows = len(x) - (m - 1) * tau
    if n_windows < 1:
        raise SeriesTooShort(f"series of {len(x)} samples too short")

    forward = []
    transformed = []
    for i in range(n_windows):
        w = [x[i + k * tau] for k in range(m)]
        forward.append(w)
        if kind == "TIR":
            transformed.append(list(reversed(w)))
        elif kind == "AIR":
            transformed.append([-v for v in w])
        else:
            raise ValueError(f"unknown kind {kind!r}")

    h = []
    g = []
    for w in forward:
        _assoc_increment(h, _ordinal_labels(w, config.scheme, config.tie_epsilon))
    for w in transformed:
        _assoc_increment(g, _ordinal_labels(w, config.scheme, config.tie_epsilon))

    patterns = [k for k, _ in h]
    for k, _ in g:
        if k not in patterns:
            patterns.append(k)

    total = Fraction(0)
    for p in patterns:
        ci = _assoc_get(h, p)
        cj = _assoc_get(g, p)
        if ci < cj:
            ci, cj = cj, ci
        if ci > 0:
            total += Fraction(ci, n_windows) * Fraction(ci - cj, ci + cj)
    return float(total / 2)


# -- the dict-based pair decomposition ----------------------------------------

def _ys_exact(ci: int, cj: int, n_windows: int) -> Fraction:
    """Ys on exact count ratios ci/n, cj/n."""
    if ci < cj:
        ci, cj = cj, ci
    if ci == 0:
        return Fraction(0)
    return Fraction(ci, n_windows) * Fraction(ci - cj, ci + cj)


def _counterpart_map(kind: str, scheme: str, data_tie_free: bool):
    """Pattern-level symmetry map when it is exact, else None.

    Amplitude reversal matches window negation for every equal-value pattern
    and on tie-free data under any scheme; the time-reversal map is exact on
    tie-free data only.
    """
    if kind == KIND_AIR and (scheme == SCHEME_EQUAL_VALUE or data_tie_free):
        return amplitude_reverse
    if kind == KIND_TIR and data_tie_free:
        return time_reverse_tie_free
    return None


def _decomposition(series, fwd: PatternHistogram, kind: str):
    """H and G counts, the exact sum of Ys and the pair list of ``kind``."""
    config, n, h = fwd.config, fwd.n_windows, fwd.counts
    counterpart_of = _counterpart_map(kind, config.scheme,
                                      fwd.n_tied_windows == 0)
    if counterpart_of is None:
        transform = (TRANSFORM_TIME_REVERSE if kind == KIND_TIR
                     else TRANSFORM_NEGATE)
        g = build_histogram(series, config, transform).counts
    else:
        g = {counterpart_of(p): c for p, c in h.items()}

    support = sorted(h.keys() | g.keys(), key=lambda p: p.labels)
    total = Fraction(0)
    for p in support:
        total += _ys_exact(h.get(p, 0), g.get(p, 0), n)

    pairs: list[PairContribution] = []
    seen: set[Pattern] = set()
    for p in support:
        if p in seen:
            continue
        pf, pc = h.get(p, 0) / n, g.get(p, 0) / n
        ys = ys_divergence(pf, pc)
        if counterpart_of is None:
            # No exact pattern-level map: each bin is paired with the same
            # bin of the transformed histogram and carries half its term.
            pairs.append(PairContribution(p, SAME_BIN, pf, pc, ys / 2))
        else:
            q = counterpart_of(p)
            seen.update((p, q))
            pairs.append(
                PairContribution(p, SAME_BIN if q == p else q, pf, pc, ys))
    return h, g, total, pairs


def _report(series, fwd: PatternHistogram, kind: str) -> IrreversibilityReport:
    """TIR or AIR of the series from its forward histogram ``fwd``."""
    h, g, total, pairs = _decomposition(series, fwd, kind)
    return IrreversibilityReport(
        kind=kind,
        config=fwd.config,
        value=float(total / 2),
        pairs=pairs,
        n_observed_patterns=len(h),
        n_forbidden_counterparts=sum(1 for p in h if g.get(p, 0) == 0),
        n_windows=fwd.n_windows,
    )


def reference_measure(series, config, kind) -> IrreversibilityReport:
    """The full report of the dict-based pair decomposition."""
    return _report(series, build_histogram(series, config), kind)


def reference_pairs(series, config, kind) -> list[PairContribution]:
    """The ``PairContribution`` list of :func:`reference_measure`, as built."""
    return _decomposition(series, build_histogram(series, config), kind)[3]


# -- the json.dumps report writer and the line-by-line series reader ---------

def _pair_to_dict(pair: PairContribution) -> dict:
    counterpart = (
        SAME_BIN if pair.counterpart == SAME_BIN
        else pattern_to_string(pair.counterpart)
    )
    return {
        "pattern": pattern_to_string(pair.pattern),
        "counterpart": counterpart,
        "p_forward": pair.p_forward,
        "p_counterpart": pair.p_counterpart,
        "ys": pair.ys,
    }


def _report_to_dict(report: IrreversibilityReport) -> dict:
    return {
        "kind": report.kind,
        "config": asdict(report.config),
        "value": report.value,
        "n_windows": report.n_windows,
        "n_observed_patterns": report.n_observed_patterns,
        "n_forbidden_counterparts": report.n_forbidden_counterparts,
        "pairs": [_pair_to_dict(p) for p in report.pairs],
    }


def _document_to_dict(doc) -> dict:
    return {
        "schema_version": doc.schema_version,
        "provenance": doc.provenance,
        "reports": [_report_to_dict(r) for r in doc.reports],
        "verdicts": [asdict(v) for v in doc.verdicts],
    }


def reference_report_text(doc) -> str:
    """The text of a ``ReportDocument`` as ``json.dumps`` renders it."""
    return json.dumps(_document_to_dict(doc), sort_keys=True, indent=2) + "\n"


def _parse_sample(text: str, line_no: int) -> float:
    cleaned = text.strip().replace("\u2212", "-")
    try:
        value = float(cleaned)
    except ValueError:
        raise ParseError(line_no, text) from None
    if not math.isfinite(value):
        raise NonFiniteSample(f"line {line_no}: non-finite sample {text!r}")
    return value


def reference_read_series(path: str) -> list[float]:
    """Samples of a plain series file, parsed one line at a time."""
    samples: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            samples.append(_parse_sample(line, line_no))
    if len(samples) < 2:
        raise EmptyFile(f"{path}: found {len(samples)} samples, need >= 2")
    return samples
