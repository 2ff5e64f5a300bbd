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
encoded by :mod:`irrev.ordinal`; H is built once per (m, tau). On tie-free
data, and for AIR under the equal-value scheme, the symmetric counterpart
pi* of each pattern is exact, so G is H relabelled by pi -> pi* and the
value is presented as a sum over unordered pairs {pi, pi*}. Only tied TIR,
and tied AIR under the original scheme, re-extract G from the transformed
windows and pair each bin with itself.

Counts are exact integers; the value is accumulated in rational arithmetic
and converted to float once, so invariance identities (affine, reversal,
negation) hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonFiniteSample, SeriesTooShort
from .ordinal import (
    SCHEME_EQUAL_VALUE,
    EmbeddingConfig,
    Pattern,
    _count_patterns,
    _encode_windows,
    amplitude_reverse,
    time_reverse_tie_free,
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
    """Exact pattern counts over all windows of a series under a transform."""

    config: EmbeddingConfig
    transform: str
    counts: dict[Pattern, int]
    n_windows: int
    n_tied_windows: int = 0

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

def _window_matrix(x: np.ndarray, m: int, tau: int) -> np.ndarray:
    n_windows = len(x) - (m - 1) * tau
    if n_windows < 1:
        raise SeriesTooShort(
            f"need at least {(m - 1) * tau + 1} samples for m={m}, tau={tau}; "
            f"got {len(x)}"
        )
    idx = np.arange(n_windows)[:, None] + tau * np.arange(m)[None, :]
    return x[idx]


def build_histogram(
    series, config: EmbeddingConfig, transform: str = TRANSFORM_IDENTITY
) -> PatternHistogram:
    """Count patterns over every window of the series under a transform."""
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    x = _validated_series(series)
    windows = _window_matrix(x, config.m, config.tau)
    if transform == TRANSFORM_TIME_REVERSE:
        windows = windows[:, ::-1]
    elif transform == TRANSFORM_NEGATE:
        windows = -windows

    labels, tied = _encode_windows(windows, config)
    return PatternHistogram(config, transform,
                            _count_patterns(labels, config.scheme),
                            len(labels), int(np.count_nonzero(tied)))


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


def _report(series, fwd: PatternHistogram, kind: str) -> IrreversibilityReport:
    """TIR or AIR of the series from its forward histogram ``fwd``."""
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

    return IrreversibilityReport(
        kind=kind,
        config=config,
        value=float(total / 2),
        pairs=pairs,
        n_observed_patterns=len(h),
        n_forbidden_counterparts=sum(1 for p in h if g.get(p, 0) == 0),
        n_windows=n,
    )


def measure(series, config: EmbeddingConfig, kind: str) -> IrreversibilityReport:
    """Compute TIR or AIR with full per-pair decomposition."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
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
            raise ValueError(f"unknown measure kind {k!r}")
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
