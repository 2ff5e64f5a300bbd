"""Pattern histograms and the TIR / AIR irreversibility measures.

Both measures compare the ordinal pattern distribution of a series against
the distribution obtained after a window transform:

* TIR (time irreversibility): windows are order-reversed.
* AIR (amplitude irreversibility): windows are negated. Mean subtraction is
  unnecessary because ordinal patterns are shift-invariant.

The probabilistic difference per pattern is the subtraction-based Ys
divergence, which stays well behaved when the counterpart pattern is
forbidden (zero probability). The measure value is

    value = 1/2 * sum over patterns of Ys(H(pi), G(pi))

where H and G are the forward and transformed histograms. Windows are
encoded by :mod:`irrev.ordinal` straight from the series (the reversed
series for TIR, ``-x`` for AIR); H is built once per (m, tau) and kept as
sorted int64 pattern codes with their counts (big-endian label digits, so
code order is the lexicographic label order). On tie-free data, and for AIR
under the equal-value scheme, the symmetric counterpart pi* of each pattern
is exact, so G is H under the code-level map pi -> pi* (digit reversal for
AIR, digit complement for TIR) and the value is presented as a sum over
unordered pairs {pi, pi*}. Only tied TIR, and tied AIR under the original
scheme, re-extract G from the transformed windows and pair each bin with
itself. H and G are aligned on the union of their codes, and the pair
columns are computed on arrays.

Histograms and report pairs stay integer-code columns.
:class:`~irrev.ordinal.Pattern` and :class:`PairContribution` objects are
built from the codes only when a caller reads ``PatternHistogram.counts``,
``PatternHistogram.patterns`` or the elements of
``IrreversibilityReport.pairs``; no computation of a value, and no report
written, needs them, and the report bytes are those of the objects.

Counts are exact integers; the value is accumulated in rational arithmetic,
one fraction per distinct denominator ``ci + cj``, and converted to float
once, so invariance identities (affine, reversal, negation) hold exactly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidParams, NonFiniteSample, SeriesTooShort
from .ordinal import (
    SCHEME_EQUAL_VALUE,
    EmbeddingConfig,
    Pattern,
    _complemented_codes,
    _decode,
    _encode,
    _label_code,
    _reversed_codes,
)

TRANSFORM_IDENTITY = "identity"
TRANSFORM_TIME_REVERSE = "time-reverse"
TRANSFORM_NEGATE = "negate"
_TRANSFORMS = (TRANSFORM_IDENTITY, TRANSFORM_TIME_REVERSE, TRANSFORM_NEGATE)

KIND_TIR = "TIR"
KIND_AIR = "AIR"
_KINDS = (KIND_TIR, KIND_AIR)

SAME_BIN = "same-bin"


class _CodeCounts(Mapping):
    """Read-only ``Pattern -> count`` view over a histogram's code arrays.

    ``len()`` is the number of codes and decodes nothing; iterating decodes
    every code once, in code order. A pattern of another ``m`` or scheme,
    or with a label outside ``1..m``, is not a key.
    """

    def __init__(self, codes: np.ndarray, code_counts: np.ndarray,
                 config: EmbeddingConfig):
        self._codes, self._code_counts, self._config = codes, code_counts, config

    @cached_property
    def patterns(self) -> list[Pattern]:
        return _decode(self._codes, self._config.m, self._config.scheme)

    @cached_property
    def _count_of(self) -> dict[int, int]:
        return dict(zip(self._codes.tolist(), self._code_counts.tolist()))

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, pattern: Pattern) -> int:
        m = self._config.m
        if (isinstance(pattern, Pattern) and pattern.scheme == self._config.scheme
                and len(pattern.labels) == m
                and all(1 <= label <= m for label in pattern.labels)):
            count = self._count_of.get(_label_code(pattern.labels, m))
            if count is not None:
                return count
        raise KeyError(pattern)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class PatternHistogram:
    """Exact pattern counts over all windows of a series under a transform.

    ``codes`` (sorted int64 pattern codes) and ``code_counts`` are the
    histogram. ``counts`` is a read-only ``Pattern -> count`` mapping over
    them and ``patterns`` the decoded codes in code order; both build their
    ``Pattern`` objects on first read, and ``len(counts)`` builds none.
    """

    config: EmbeddingConfig
    transform: str
    n_windows: int
    n_tied_windows: int = 0
    codes: np.ndarray = field(kw_only=True, compare=False, repr=False)
    code_counts: np.ndarray = field(kw_only=True, compare=False, repr=False)

    @cached_property
    def counts(self) -> Mapping[Pattern, int]:
        return _CodeCounts(self.codes, self.code_counts, self.config)

    @property
    def patterns(self) -> list[Pattern]:
        return self.counts.patterns

    def __eq__(self, other):
        if not isinstance(other, PatternHistogram):
            return NotImplemented
        return ((self.config, self.transform, self.n_windows,
                 self.n_tied_windows) == (other.config, other.transform,
                                          other.n_windows, other.n_tied_windows)
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.code_counts, other.code_counts))

    def probability(self, pattern: Pattern) -> float:
        return self.counts.get(pattern, 0) / self.n_windows

    def probabilities(self) -> dict[Pattern, float]:
        return dict(zip(self.patterns,
                        (self.code_counts / self.n_windows).tolist()))


@dataclass(frozen=True)
class PairContribution:
    """One unordered pattern pair (or histogram bin) and its Ys term."""

    pattern: Pattern
    counterpart: Pattern | str  # a Pattern, or SAME_BIN
    p_forward: float
    p_counterpart: float
    ys: float


_SAME_BIN_CODE = -1  # the counterpart code of a SAME_BIN pair


def _column(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


class PairTable(Sequence):
    """The pairs of a report as columns, read as ``PairContribution``s.

    ``codes`` and ``counterpart_codes`` are int64 pattern codes (-1 for
    ``SAME_BIN``); ``p_forward``, ``p_counterpart`` and ``ys`` are float
    arrays, or lists of the values as a document holds them. The
    ``PairContribution`` list is built on first element access or
    iteration, its patterns taken from and added to ``decoded`` (code ->
    ``Pattern``), which the tables of one document share. Two tables are
    equal when their columns are; a table and a list when the built pairs
    are.
    """

    def __init__(self, m: int, scheme: str, codes, counterpart_codes,
                 p_forward, p_counterpart, ys, decoded=None):
        self.m, self.scheme = m, scheme
        self.codes = np.asarray(codes, dtype=np.int64)
        self.counterpart_codes = np.asarray(counterpart_codes, dtype=np.int64)
        self.p_forward, self.p_counterpart, self.ys = p_forward, p_counterpart, ys
        self._decoded = {} if decoded is None else decoded
        self._pairs = None

    def _built(self) -> list[PairContribution]:
        if self._pairs is None:
            decoded = self._decoded
            codes = self.codes.tolist()
            counterparts = self.counterpart_codes.tolist()
            fresh = [c for c in dict.fromkeys(codes + counterparts)
                     if c not in decoded and c != _SAME_BIN_CODE]
            decoded.update(zip(fresh, _decode(np.array(fresh, dtype=np.int64),
                                              self.m, self.scheme)))
            self._pairs = list(map(
                PairContribution, map(decoded.__getitem__, codes),
                [decoded.get(c, SAME_BIN) for c in counterparts],
                *map(_column, self._values())))
        return self._pairs

    def _values(self) -> tuple:
        return self.p_forward, self.p_counterpart, self.ys

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if isinstance(other, list):
            return self._built() == other
        if not isinstance(other, PairTable):
            return NotImplemented
        if len(self) != len(other):
            return False
        return not len(self) or (
            (self.m, self.scheme) == (other.m, other.scheme)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.counterpart_codes, other.counterpart_codes)
            and all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                    and isinstance(b, np.ndarray) else _column(a) == _column(b)
                    for a, b in zip(self._values(), other._values())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, {len(self)} pairs)"


@dataclass(frozen=True)
class IrreversibilityReport:
    """TIR or AIR of one series and configuration.

    ``pairs`` is a ``Sequence[PairContribution]``: a :class:`PairTable`
    when computed or read, whose elements are built on first access, or a
    plain list when built by hand.
    """

    kind: str
    config: EmbeddingConfig
    value: float
    pairs: Sequence[PairContribution] = field(repr=False)
    n_observed_patterns: int
    n_forbidden_counterparts: int
    n_windows: int


def _validated_series(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NonFiniteSample(f"non-finite sample at index {bad}")
    return x


def build_histogram(
    series, config: EmbeddingConfig, transform: str = TRANSFORM_IDENTITY
) -> PatternHistogram:
    """Count patterns over every window of the series under a transform."""
    if transform not in _TRANSFORMS:
        raise InvalidParams(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    x = _validated_series(series)
    if transform == TRANSFORM_TIME_REVERSE:
        x = x[::-1].copy()  # contiguous: comparisons are slow on strides < 0
    elif transform == TRANSFORM_NEGATE:
        x = -x
    codes, tied = _encode(x, config)
    codes, code_counts = np.unique(codes, return_counts=True)
    return PatternHistogram(config, transform, len(tied),
                            int(np.count_nonzero(tied)),
                            codes=codes, code_counts=code_counts)


def ys_divergence(a: float, b: float) -> float:
    """Subtraction-based pairwise divergence p_i (p_i - p_j) / (p_i + p_j).

    Inputs are unordered probabilities; internally p_i = max(a, b). Returns
    0 for the 0/0 case, and Ys(p, 0) = p for forbidden counterparts.
    """
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= 1.0):
        raise DomainError(f"probabilities must lie in [0,1], got {a}, {b}")
    p_i, p_j = (a, b) if a >= b else (b, a)
    if p_j == 0.0:
        return p_i  # Ys(p, 0) = p exactly, including the 0/0 case
    return p_i * (p_i - p_j) / (p_i + p_j)


def _counterpart_codes(kind: str, scheme: str, data_tie_free: bool):
    """Code-level symmetry map when it is exact, else None.

    Amplitude reversal matches window negation for every equal-value pattern
    and on tie-free data under any scheme; the time-reversal map is exact on
    tie-free data only.
    """
    if kind == KIND_AIR and (scheme == SCHEME_EQUAL_VALUE or data_tie_free):
        return _reversed_codes
    if kind == KIND_TIR and data_tie_free:
        return _complemented_codes
    return None


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct codes of two code arrays.

    Sort-based: ``np.union1d`` takes numpy's hash-table path, which is many
    times slower on these arrays and grows the resident memory on first use.
    """
    codes = np.sort(np.concatenate((a, b)))
    return codes[np.r_[True, codes[1:] != codes[:-1]]]


def _counts_at(codes: np.ndarray, hist: PatternHistogram) -> np.ndarray:
    """Counts of ``hist`` at each code, 0 where it has none."""
    at = np.minimum(np.searchsorted(hist.codes, codes), len(hist.codes) - 1)
    return np.where(hist.codes[at] == codes, hist.code_counts[at], 0)


def _exact_value(h: np.ndarray, g: np.ndarray, n: int) -> float:
    """1/2 sum of Ys(h/n, g/n) in rational arithmetic, rounded once.

    Each term is ci (ci - cj) / (n (ci + cj)) with ci = max(h, g), so the
    numerators are summed exactly per denominator d = ci + cj (each sum is
    at most (2n)**2, inside int64 for n < 1.5e9) before one fraction per d
    is added.
    """
    ci, cj = np.maximum(h, g), np.minimum(h, g)
    d = ci + cj
    order = np.argsort(d)
    d, num = d[order], (ci * (ci - cj))[order]
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    total = sum(Fraction(s, q) for s, q in
                zip(np.add.reduceat(num, starts).tolist(), d[starts].tolist()))
    return float(total / (2 * n))


def _report(x: np.ndarray, fwd: PatternHistogram,
            kind: str) -> IrreversibilityReport:
    """TIR or AIR of the validated series ``x`` from its forward histogram."""
    config, n, m = fwd.config, fwd.n_windows, fwd.config.m
    counterpart_of = _counterpart_codes(kind, config.scheme,
                                        fwd.n_tied_windows == 0)
    # H and G on the union of their codes, and each code's partner.
    if counterpart_of is None:
        transform = (TRANSFORM_TIME_REVERSE if kind == KIND_TIR
                     else TRANSFORM_NEGATE)
        bwd = build_histogram(x, config, transform)
        support = _union(fwd.codes, bwd.codes)
        h, g = _counts_at(support, fwd), _counts_at(support, bwd)
    else:
        support = _union(fwd.codes, counterpart_of(fwd.codes, m))
        partner = counterpart_of(support, m)
        h, g = _counts_at(support, fwd), _counts_at(partner, fwd)

    # ys_divergence's float operations, on every support code at once.
    pf, pc = h / n, g / n
    pi, pj = np.maximum(pf, pc), np.minimum(pf, pc)
    ys = np.where(pj == 0, pi, pi * (pi - pj) / (pi + pj))
    if counterpart_of is None:
        # No exact pattern-level map: each bin is paired with the same bin
        # of the transformed histogram and carries half its term.
        emit, partner, ys = slice(None), support, ys / 2
    else:
        # Each unordered pair {p, p*} is reported once, at its smaller code.
        emit = np.flatnonzero(support <= partner)
    codes = support[emit]
    counterparts = np.where(partner[emit] == codes, _SAME_BIN_CODE,
                            partner[emit])

    return IrreversibilityReport(
        kind=kind,
        config=config,
        value=_exact_value(h, g, n),
        pairs=PairTable(m, config.scheme, codes, counterparts,
                        pf[emit], pc[emit], ys[emit]),
        n_observed_patterns=len(fwd.codes),
        n_forbidden_counterparts=int(np.count_nonzero((h > 0) & (g == 0))),
        n_windows=n,
    )


def measure(series, config: EmbeddingConfig, kind: str) -> IrreversibilityReport:
    """Compute TIR or AIR with full per-pair decomposition."""
    if kind not in _KINDS:
        raise InvalidParams(f"kind must be one of {_KINDS}, got {kind!r}")
    x = _validated_series(series)
    return _report(x, build_histogram(x, config), kind)


def sweep(
    series,
    m_range,
    tau_range,
    scheme: str = SCHEME_EQUAL_VALUE,
    kinds=(KIND_TIR, KIND_AIR),
    tie_epsilon: float = 0.0,
) -> list[IrreversibilityReport]:
    """One report per (kind, m, tau) cell, in kind-major cell order.

    The forward histogram of each (m, tau) is built once for all kinds.
    """
    m_range = list(m_range)
    tau_range = list(tau_range)
    kinds = list(kinds)
    for k in kinds:
        if k not in _KINDS:
            raise InvalidParams(f"unknown measure kind {k!r}")
    x = _validated_series(series)
    by_kind = {kind: [] for kind in kinds}
    for m in m_range:
        for tau in tau_range:
            config = EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                                     tie_epsilon=tie_epsilon)
            fwd = None
            for kind in kinds:
                try:
                    if fwd is None:
                        fwd = build_histogram(x, config)
                    by_kind[kind].append(_report(x, fwd, kind))
                except SeriesTooShort as exc:
                    raise SeriesTooShort(
                        f"sweep cell kind={kind} m={m} tau={tau}: {exc}"
                    ) from exc
    return [report for kind in kinds for report in by_kind[kind]]
