"""Pattern histograms and the TIR / AIR irreversibility measures.

Both measures compare the ordinal pattern distribution of a series against
the distribution obtained after a window transform:

* TIR (time irreversibility): windows are order-reversed.
* AIR (amplitude irreversibility): windows are negated. Mean subtraction is
  unnecessary because ordinal patterns are shift-invariant.

The probabilistic difference per pattern is the subtraction-based Ys
divergence (:func:`ys_divergence`, on floats or whole columns), which stays
well behaved when the counterpart pattern is forbidden. The measure value is

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

Histograms and the pairs of every report, hand-built ones too, stay
integer-code columns (a :class:`PairTable`, with float64 values).
:class:`~irrev.ordinal.Pattern` and :class:`PairContribution` objects are
built only when a caller reads them, each histogram and table decoding its
own codes once; no value or written report needs them.

Counts are exact integers; the value is accumulated in rational arithmetic,
one integer sum per distinct denominator ``ci + cj`` added into one
unreduced fraction, and converted to float once, so invariance identities
(affine, reversal, negation) hold exactly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DomainError, InvalidParams, InvalidPattern,
                     SeriesTooShort, checked_choice, checked_series)
from .ordinal import (
    SCHEME_EQUAL_VALUE,
    EmbeddingConfig,
    Pattern,
    _complemented_codes,
    _decode,
    _histogram,
    _pattern_code,
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
        config = self._config
        if isinstance(pattern, Pattern) and pattern.scheme == config.scheme:
            with suppress(InvalidPattern, KeyError):
                return self._count_of[_pattern_code(pattern.labels, config.m, pattern)]
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


def _column(name: str, values, kinds: str, wanted: str, dtype,
            n: int | None = None) -> np.ndarray:
    """A 1-D ``dtype`` column of values of the dtype kinds ``kinds`` (and
    of length ``n``, unless None), else :class:`InvalidParams`. An empty
    column passes whatever its dtype: numpy makes ``[]`` float64."""
    try:
        column = np.asarray(values)
    except ValueError:  # a ragged nesting
        column = np.asarray(None)
    if (column.ndim != 1 or n not in (None, len(column))
            or len(column) and column.dtype.kind not in kinds):
        length = "" if n is None else f"{n} "
        raise InvalidParams(f"{name} must be a 1-D column of {length}{wanted}")
    return column.astype(dtype, copy=False)


class PairTable(Sequence):
    """The pairs of a report as columns, read as ``PairContribution``s.

    ``codes`` and ``counterpart_codes`` are int64 pattern codes (-1 for
    ``SAME_BIN``, a counterpart only), given as 1-D integer columns of one
    length; ``p_forward``, ``p_counterpart`` and ``ys`` are float64 arrays
    of that length, converted once by the constructor from bools, ints or
    floats; a column of another shape or type raises
    :class:`InvalidParams`. :meth:`of` builds a checked table from
    ``PairContribution``s. The ``PairContribution`` list is
    built on first element access or iteration, which decodes each distinct
    code of the table once. Two tables are equal when their columns are;
    any two empty tables are equal.
    """

    def __init__(self, m: int, scheme: str, codes, counterpart_codes,
                 p_forward, p_counterpart, ys):
        self.m, self.scheme = m, scheme
        self.codes = _column("codes", codes, "iu", "integer codes", np.int64)
        n = len(self.codes)
        self.counterpart_codes = _column("counterpart_codes", counterpart_codes,
                                         "iu", "integer codes", np.int64, n)
        if (self.codes == _SAME_BIN_CODE).any():
            raise InvalidPattern(f"{SAME_BIN!r} is allowed only as a counterpart")
        self.p_forward, self.p_counterpart, self.ys = (
            _column(name, values, "biuf", "bools, ints or floats", np.float64, n)
            for name, values in (("p_forward", p_forward),
                                 ("p_counterpart", p_counterpart), ("ys", ys)))
        self._pairs = None

    @classmethod
    def of(cls, m: int, scheme: str, pairs) -> PairTable:
        """The table of ``PairContribution``s. A pattern that is not a
        ``Pattern`` of ``scheme`` with ``m`` labels in ``1..m`` raises
        :class:`InvalidPattern`; ``SAME_BIN`` may only be a counterpart."""
        def code(pattern) -> int:
            if isinstance(pattern, Pattern) and pattern.scheme == scheme:
                return _pattern_code(pattern.labels, m, str(pattern))
            raise InvalidPattern(
                f"pair pattern {pattern!r} is not a Pattern of scheme {scheme!r}")

        rows = [(code(p.pattern),
                 _SAME_BIN_CODE if isinstance(p.counterpart, str)
                 and p.counterpart == SAME_BIN else code(p.counterpart),
                 p.p_forward, p.p_counterpart, p.ys) for p in pairs]
        return cls(m, scheme, *(list(zip(*rows)) or [()] * 5))  # 5 columns

    def _built(self) -> list[PairContribution]:
        if self._pairs is None:
            codes = self.codes.tolist()
            counterparts = self.counterpart_codes.tolist()
            distinct = list({*codes, *counterparts} - {_SAME_BIN_CODE})
            decoded = dict(zip(distinct, _decode(
                np.array(distinct, dtype=np.int64), self.m, self.scheme)))
            decoded[_SAME_BIN_CODE] = SAME_BIN
            self._pairs = list(map(
                PairContribution, map(decoded.__getitem__, codes),
                map(decoded.__getitem__, counterparts),
                self.p_forward.tolist(), self.p_counterpart.tolist(),
                self.ys.tolist()))
        return self._pairs

    def _columns(self) -> tuple:
        return (self.codes, self.counterpart_codes, self.p_forward,
                self.p_counterpart, self.ys)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if not isinstance(other, PairTable):
            return NotImplemented
        return len(self) == len(other) == 0 or (
            (self.m, self.scheme) == (other.m, other.scheme)
            and all(map(np.array_equal, self._columns(), other._columns())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, {len(self)} pairs)"


@dataclass(frozen=True)
class IrreversibilityReport:
    """TIR or AIR of one series and configuration.

    ``pairs`` is always a :class:`PairTable`, whose elements are built on
    first access; a list of ``PairContribution``s goes through ``PairTable.of``.
    ``kind`` must be TIR or AIR, ``value`` is stored as a float and each
    count as an int >= 0, else :class:`InvalidParams` is raised.
    """

    kind: str
    config: EmbeddingConfig
    value: float
    pairs: PairTable = field(repr=False)
    n_observed_patterns: int
    n_forbidden_counterparts: int
    n_windows: int

    def __post_init__(self):
        checked_choice("kind", self.kind, _KINDS)
        for name, cast in (("value", float), ("n_observed_patterns", int),
                           ("n_forbidden_counterparts", int), ("n_windows", int)):
            object.__setattr__(self, name, _scalar(name, getattr(self, name), cast))
        if not isinstance(self.pairs, PairTable):
            object.__setattr__(self, "pairs", PairTable.of(
                self.config.m, self.config.scheme, self.pairs))


_NUMBERS = (bool, int, float, np.bool_, np.integer, np.floating)


def _scalar(name: str, value, cast):
    """``cast(value)`` of a bool, int or float, numpy scalars too; for
    ``int``, only of a whole number >= 0."""
    with suppress(ValueError, OverflowError):  # int(nan), float(10**400)
        if isinstance(value, _NUMBERS) and (
                cast is float or (value >= 0 and int(value) == value)):
            return cast(value)
    wanted = "a whole number >= 0" if cast is int else "a bool, int or float"
    raise InvalidParams(f"{name} must be {wanted}, got {value!r}")


def build_histogram(
    series, config: EmbeddingConfig, transform: str = TRANSFORM_IDENTITY
) -> PatternHistogram:
    """Count patterns over every window of the series under a transform."""
    checked_choice("transform", transform, _TRANSFORMS)
    x = checked_series(series)
    if transform == TRANSFORM_TIME_REVERSE:
        x = x[::-1].copy()  # contiguous: comparisons are slow on strides < 0
    elif transform == TRANSFORM_NEGATE:
        x = -x
    codes, code_counts, tied = _histogram(x, config)
    return PatternHistogram(config, transform, len(tied),
                            int(np.count_nonzero(tied)),
                            codes=codes, code_counts=code_counts)


def ys_divergence(a, b):
    """Subtraction-based pairwise divergence p_i (p_i - p_j) / (p_i + p_j).

    Inputs are unordered probabilities, floats or arrays that broadcast
    together; p_i is ``a`` where ``a >= b``, else ``b``. Returns 0 for the
    0/0 case, and Ys(p, 0) = p for forbidden counterparts; a float for
    scalar input, else an array.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not ((0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0)).all():
        raise DomainError(f"probabilities must lie in [0,1], got {a}, {b}")
    forward = a >= b
    p_i, p_j = np.where(forward, a, b), np.where(forward, b, a)
    ys = p_i.copy()  # Ys(p, 0) = p exactly, including the 0/0 case
    np.divide(p_i * (p_i - p_j), p_i + p_j, out=ys, where=p_j != 0.0)
    return float(ys) if ys.ndim == 0 else ys


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
    numerators are summed exactly per denominator d = ci + cj, and those
    sums are added as one unreduced fraction N / D of Python ints. Dividing
    N by D * 2n rounds the same rational as a reduced fraction would. Each
    sum is at most (2n)**2, inside int64 for n < 2**30; from there on the
    counts are Python ints.
    """
    ci, cj = np.maximum(h, g), np.minimum(h, g)
    ci, cj = (ci, cj) if n < 2**30 else (ci.astype(object), cj.astype(object))
    d = ci + cj
    order = np.argsort(d)
    d, num = d[order], (ci * (ci - cj))[order]
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    numerator, denominator = 0, 1
    for s, q in zip(np.add.reduceat(num, starts).tolist(), d[starts].tolist()):
        numerator, denominator = numerator * q + s * denominator, denominator * q
    return numerator / (denominator * 2 * n)


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

    pf, pc = h / n, g / n
    ys = ys_divergence(pf, pc)
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
    checked_choice("kind", kind, _KINDS)
    x = checked_series(series)
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

    The forward histogram of each (m, tau) is built once for all kinds. A
    ``range`` is not listed, so it may be huge.
    """
    m_range, tau_range = (r if isinstance(r, range) else list(r)
                          for r in (m_range, tau_range))
    kinds = [checked_choice("kind", k, _KINDS) for k in kinds]
    x = checked_series(series)
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
