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
columns are computed on arrays; :class:`~irrev.ordinal.Pattern` objects are
decoded once per histogram and reused in the pairs.

Counts are exact integers; the value is accumulated in rational arithmetic,
one fraction per distinct denominator ``ci + cj``, and converted to float
once, so invariance identities (affine, reversal, negation) hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvalidParams, NonFiniteSample, SeriesTooShort
from .ordinal import (
    SCHEME_EQUAL_VALUE,
    EmbeddingConfig,
    Pattern,
    _complemented_codes,
    _decode,
    _encode,
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


@dataclass(frozen=True)
class PatternHistogram:
    """Exact pattern counts over all windows of a series under a transform.

    ``codes`` (sorted int64 pattern codes), ``code_counts`` and ``patterns``
    (the decoded codes) are aligned, in code order; ``counts`` maps those
    same ``Pattern`` objects to their counts.
    """

    config: EmbeddingConfig
    transform: str
    counts: dict[Pattern, int]
    n_windows: int
    n_tied_windows: int = 0
    codes: np.ndarray = field(kw_only=True, compare=False, repr=False)
    code_counts: np.ndarray = field(kw_only=True, compare=False, repr=False)
    patterns: list[Pattern] = field(kw_only=True, compare=False, repr=False)

    def probability(self, pattern: Pattern) -> float:
        return self.counts.get(pattern, 0) / self.n_windows

    def probabilities(self) -> dict[Pattern, float]:
        return {p: c / self.n_windows for p, c in self.counts.items()}


@dataclass(frozen=True)
class PairContribution:
    """One unordered pattern pair (or histogram bin) and its Ys term."""

    pattern: Pattern
    counterpart: Pattern | str  # a Pattern, or SAME_BIN
    p_forward: float
    p_counterpart: float
    ys: float


@dataclass(frozen=True)
class IrreversibilityReport:
    kind: str
    config: EmbeddingConfig
    value: float
    pairs: list[PairContribution] = field(repr=False)
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
    patterns = _decode(codes, config.m, config.scheme)
    return PatternHistogram(config, transform,
                            dict(zip(patterns, code_counts.tolist())),
                            len(tied), int(np.count_nonzero(tied)),
                            codes=codes, code_counts=code_counts,
                            patterns=patterns)


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


def _report(series, fwd: PatternHistogram, kind: str) -> IrreversibilityReport:
    """TIR or AIR of the series from its forward histogram ``fwd``."""
    config, n, m = fwd.config, fwd.n_windows, fwd.config.m
    counterpart_of = _counterpart_codes(kind, config.scheme,
                                        fwd.n_tied_windows == 0)
    # H and G on the union of their codes, and a Pattern per code: the
    # histograms' own, decoded here only for counterparts H does not hold.
    if counterpart_of is None:
        transform = (TRANSFORM_TIME_REVERSE if kind == KIND_TIR
                     else TRANSFORM_NEGATE)
        bwd = build_histogram(series, config, transform)
        support = _union(fwd.codes, bwd.codes)
        h, g = _counts_at(support, fwd), _counts_at(support, bwd)
        patterns = np.empty(len(support), dtype=object)
        patterns[np.searchsorted(support, bwd.codes)] = bwd.patterns
    else:
        support = _union(fwd.codes, counterpart_of(fwd.codes, m))
        partner = counterpart_of(support, m)
        h, g = _counts_at(support, fwd), _counts_at(partner, fwd)
        patterns = np.empty(len(support), dtype=object)
        patterns[h == 0] = _decode(support[h == 0], m, config.scheme)
    patterns[np.searchsorted(support, fwd.codes)] = fwd.patterns

    # ys_divergence's float operations, on every support code at once.
    pf, pc = h / n, g / n
    pi, pj = np.maximum(pf, pc), np.minimum(pf, pc)
    ys = np.where(pj == 0, pi, pi * (pi - pj) / (pi + pj))
    if counterpart_of is None:
        # No exact pattern-level map: each bin is paired with the same bin
        # of the transformed histogram and carries half its term.
        emit = np.arange(len(support))
        counterparts = [SAME_BIN] * len(support)
        ys = ys / 2
    else:
        # Each unordered pair {p, p*} is reported once, at its smaller code.
        emit = np.flatnonzero(support <= partner)
        at = np.searchsorted(support, partner[emit])
        counterparts = np.where(at == emit, SAME_BIN, patterns[at]).tolist()
    pairs = list(map(PairContribution, patterns[emit].tolist(), counterparts,
                     pf[emit].tolist(), pc[emit].tolist(), ys[emit].tolist()))

    return IrreversibilityReport(
        kind=kind,
        config=config,
        value=_exact_value(h, g, n),
        pairs=pairs,
        n_observed_patterns=len(fwd.codes),
        n_forbidden_counterparts=int(np.count_nonzero((h > 0) & (g == 0))),
        n_windows=n,
    )


def measure(series, config: EmbeddingConfig, kind: str) -> IrreversibilityReport:
    """Compute TIR or AIR with full per-pair decomposition."""
    if kind not in _KINDS:
        raise InvalidParams(f"kind must be one of {_KINDS}, got {kind!r}")
    return _report(series, build_histogram(series, config), kind)


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
    by_kind = {kind: [] for kind in kinds}
    for m in m_range:
        for tau in tau_range:
            config = EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                                     tie_epsilon=tie_epsilon)
            fwd = None
            for kind in kinds:
                try:
                    if fwd is None:
                        fwd = build_histogram(series, config)
                    by_kind[kind].append(_report(series, fwd, kind))
                except SeriesTooShort as exc:
                    raise SeriesTooShort(
                        f"sweep cell kind={kind} m={m} tau={tau}: {exc}"
                    ) from exc
    return [report for kind in kinds for report in by_kind[kind]]
