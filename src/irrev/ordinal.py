"""Ordinal pattern extraction and pattern symmetry transforms.

A window of ``m`` samples is encoded by listing its positions (1-based) in
ascending value order. Two tie-handling schemes are supported:

* ``"original"`` -- ties are broken by order of occurrence, so every pattern
  is a permutation of ``1..m``.
* ``"equal-value"`` -- every member of a tie group carries the group's lowest
  position index, e.g. ``{3,1,7,1,5}`` encodes to ``(2,2,1,5,3)``.

:func:`_histogram` counts the patterns of every window of a series (and
of the one window of :func:`extract_pattern`). It makes one ``<=``
comparison and one tie test per lag, ``x[:-d tau]`` against ``x[d tau:]``
for d = 1..m-1; column pair (j, k) of every window reads lag k - j at offset
``j tau``. The comparisons give each window's Lehmer digits c_j, the number
of later samples sorted before sample j in the stable sort of the window,
and its ranks, rank_j = c_j plus the earlier samples sorted before j. A
window is tied iff a pair lies within ``tie_epsilon`` (the smallest gap is
always between sorted neighbours, whose chaining makes the tie groups); an
equal-value label is the lowest position of its tie component, found from
the same per-lag tie tests. A code places each label at its rank as
big-endian base-(m + 1) digits, ``sum(label_k * (m + 1) ** (m - 1 - rank_k))``:
ascending codes are the lexicographic label order, and ``(m + 1) ** m``
bounds ``m`` to 2..15.

Windows are counted on one of two paths:

* Lehmer keys, when the stable-sort order fixes every window's pattern
  (the original scheme, or no tied window) and there are at least ``m!``
  windows. Each window's key ``sum(c_j * (m - 1 - j)!)`` lies in
  ``0..m! - 1``; the keys are counted, and each distinct key is translated
  once to its code (digits, then ranks by right-to-left insertion).
  Translating a key costs about what gathering a window's code costs, and
  up to ``m!`` keys are translated, so the path pays only from ``m!``
  windows on (the one window of :func:`extract_pattern` is gathered). A key
  is held in the smallest signed type that holds ``m!``, and never narrower
  than int16: numpy multiplies int8 digits by an unsigned or int8 weight in
  a slow loop.
* Per-column gather otherwise (equal-value data with a tied window, or
  fewer than ``m!`` windows): each window's code is summed from its labels
  and ranks, and the codes are counted.

Two symmetry transforms act on patterns and on codes: amplitude reversal
(the negated window; labels or digits reversed) and time reversal (the
reversed window; complement ``m + 1 - label``, only for tie-free patterns).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import combinations, groupby
from numbers import Real

import numpy as np

from .errors import (
    InvalidParams,
    InvalidPattern,
    LengthMismatch,
    ParseError,
    SeriesTooShort,
    TiedPatternUnsupported,
    checked_choice,
    checked_int,
    checked_series,
)

SCHEME_ORIGINAL = "original"
SCHEME_EQUAL_VALUE = "equal-value"
_SCHEMES = (SCHEME_ORIGINAL, SCHEME_EQUAL_VALUE)

# Largest m whose pattern codes, below (m + 1) ** m, fit in an int64.
_M_MAX = 15


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding dimension, delay and tie handling for pattern extraction.

    Two samples a, b are tied iff ``|a - b| <= tie_epsilon``; the default
    ``tie_epsilon = 0`` means exact equality. With ``tie_epsilon > 0`` the
    relation is applied transitively by chaining adjacent sorted samples.
    """

    m: int
    tau: int = 1
    scheme: str = SCHEME_EQUAL_VALUE
    tie_epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m", checked_int("dimension m", self.m, 2, _M_MAX))
        object.__setattr__(self, "tau", checked_int("delay tau", self.tau, 1))
        checked_choice("scheme", self.scheme, _SCHEMES)
        eps = self.tie_epsilon  # kept as given; NaN fails the comparison
        if isinstance(eps, bool) or not isinstance(eps, Real) or not eps >= 0:
            raise InvalidParams(f"tie_epsilon must be a real number >= 0, got {eps!r}")


@dataclass(frozen=True)
class Pattern:
    """An ordinal pattern: 1-based position labels in ascending value order."""

    labels: tuple[int, ...]
    scheme: str = SCHEME_EQUAL_VALUE

    def __post_init__(self):
        try:  # int, numpy integers and bool, as checked_int takes them
            labels = tuple(map(operator.index, self.labels))
        except TypeError:
            raise InvalidParams(f"pattern labels must be integers, "
                                f"got {self.labels!r}") from None
        object.__setattr__(self, "labels", labels)
        checked_choice("scheme", self.scheme, _SCHEMES)

    @property
    def m(self) -> int:
        return len(self.labels)

    def is_tie_free(self) -> bool:
        return len(set(self.labels)) == len(self.labels)

    def __str__(self) -> str:
        return pattern_to_string(self)


def _ties(a: np.ndarray, b: np.ndarray, tie_epsilon) -> np.ndarray:
    """Tied aligned samples; a gap that overflows is inf, above any finite eps."""
    if tie_epsilon == 0:
        return a == b
    with np.errstate(over="ignore"):
        return np.abs(b - a) <= tie_epsilon


def _key_dtype(m: int) -> np.dtype:
    """Smallest signed type holding ``m!``, never narrower than int16."""
    return np.result_type(np.int16, np.min_scalar_type(-math.factorial(m)))


def _histogram(x: np.ndarray, config: EmbeddingConfig):
    """Sorted distinct pattern codes of the windows of ``x``, their counts,
    and which windows hold a tie."""
    m, tau, eps = config.m, config.tau, config.tie_epsilon
    n = len(x) - (m - 1) * tau
    if n < 1:
        raise SeriesTooShort(f"need at least {(m - 1) * tau + 1} samples for "
                             f"m={m}, tau={tau}; got {len(x)}")
    # Column pair (j, k) of every window reads lag k - j at offset j tau.
    lags = [(x[: len(x) - d * tau], x[d * tau :]) for d in range(1, m)]
    before = [None] + [(a <= b).view(np.int8) for a, b in lags]
    ties = [None] + [_ties(a, b, eps) for a, b in lags]
    pairs = [(j, k, j * tau, k - j) for j, k in combinations(range(m), 2)]
    # Lehmer digits: digits_j = #{k > j sorted before j} starts at m - 1 - j.
    digits = np.empty((m, n), dtype=np.int8)
    digits[:] = np.arange(m - 1, -1, -1, dtype=np.int8)[:, None]
    for j, _, at, d in pairs:
        digits[j] -= before[d][at : at + n]
    tied = np.zeros(n, dtype=bool)
    if any(tie.any() for tie in ties[1:]):
        for _, _, at, d in pairs:
            tied |= ties[d][at : at + n]

    if ((config.scheme == SCHEME_ORIGINAL or not tied.any())
            and math.factorial(m) <= n):
        # The stable-sort order fixes each pattern: count the windows by
        # their Lehmer key and translate each distinct key once.
        dtype = _key_dtype(m)
        keys = np.zeros(n, dtype=dtype)
        for j in range(m - 1):
            keys += digits[j] * dtype.type(math.factorial(m - 1 - j))
        keys, counts = np.unique(keys, return_counts=True)
        codes = _key_codes(keys, m)
        order = np.argsort(codes)
        return codes[order], counts[order], tied

    ranks = digits  # rank_k = digits_k + #{j < k sorted before k}
    for j, k, at, d in pairs:
        ranks[k] += before[d][at : at + n]
    labels = range(1, m + 1)
    if config.scheme == SCHEME_EQUAL_VALUE and tied.any():
        # Minima flow along tied pairs until none changes (for eps = 0 the
        # components are equality classes, and one pass reaches every minimum).
        # a -= tie * max(a - b, 0) sets a = min(a, b) where tied; on 100800
        # samples it takes 0.13 ms, np.minimum(..., where=tie) 0.18 ms at 3%
        # ties and 0.95 ms at 30%.
        labels = np.empty((m, n), dtype=np.int8)
        labels[:] = np.arange(1, m + 1, dtype=np.int8)[:, None]
        step = np.empty(n, dtype=np.int8)
        while True:
            previous = labels.copy()
            for j, k, at, d in pairs:
                tie = ties[d][at : at + n]
                for a, b in ((labels[k], labels[j]), (labels[j], labels[k])):
                    np.subtract(a, b, out=step)
                    np.maximum(step, 0, out=step)
                    step *= tie
                    a -= step
            if eps == 0 or np.array_equal(labels, previous):
                break
    codes, counts = np.unique(_placed_codes(labels, ranks, m),
                              return_counts=True)
    return codes, counts, tied


def _key_codes(keys: np.ndarray, m: int) -> np.ndarray:
    """Codes of the tie-free patterns with the given Lehmer keys."""
    digits = np.empty((m, len(keys)), dtype=np.int8)
    rest = keys.astype(np.int64)
    for j in range(m):
        digits[j], rest = np.divmod(rest, math.factorial(m - 1 - j))
    # Right-to-left insertion: sample j lands at rank digits_j among the
    # later samples, and each of them at or above that rank moves up one.
    ranks = digits
    for j in range(m - 2, -1, -1):
        ranks[j + 1 :] += ranks[j + 1 :] >= ranks[j]
    return _placed_codes(range(1, m + 1), ranks, m)


def _placed_codes(labels, ranks: np.ndarray, m: int) -> np.ndarray:
    """Codes placing each row of ``labels`` at the digit of its ``ranks`` row."""
    # "clip" only skips the bounds check, as ranks lie in 0..m-1; reusing
    # ``term`` saves a fresh array per column, which costs more than a gather.
    n = ranks.shape[1]
    codes, term = np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for label, rank in zip(labels, ranks):
        np.take(_code_weights(m), rank, out=term, mode="clip")
        term *= label
        codes += term
    return codes


def _code_weights(m: int) -> np.ndarray:
    """Big-endian digit weights ``(m + 1) ** (m - 1 ... 0)`` of a pattern code."""
    return (m + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)


def _code_digits(codes: np.ndarray, m: int) -> np.ndarray:
    """Label matrix of the codes, one row per code: ``m`` divisions by
    ``m + 1`` from the last label back, since ``c // a // b == c // (a*b)``."""
    digits = np.empty((len(codes), m), dtype=np.int64)
    rest = codes
    for k in range(m - 1, -1, -1):
        rest, digits[:, k] = np.divmod(rest, m + 1)
    return digits


def _pattern_code(labels: tuple[int, ...], m: int, name) -> int:
    """Code of ``m`` labels in ``1..m``, else :class:`InvalidPattern` naming
    the pattern by ``repr(name)``. Realisability is not checked."""
    if len(labels) != m or min(labels, default=0) < 1 or max(labels) > m:
        raise InvalidPattern(f"pattern {name!r} does not have {m} labels in 1..{m}")
    code = 0
    for label in labels:
        code = code * (m + 1) + label
    return code


def _decode(codes: np.ndarray, m: int, scheme: str) -> list[Pattern]:
    """The ``Pattern`` of each code: the one place patterns are made from codes."""
    return [Pattern(row, scheme) for row in _code_digits(codes, m).tolist()]


def _reversed_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Codes of the amplitude-reversed patterns: digits in reverse order."""
    return _code_digits(codes, m) @ _code_weights(m)[::-1]


def _complemented_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Codes of the time-reversed tie-free patterns: digits ``m + 1 - d``."""
    return (m + 1) * _code_weights(m).sum() - codes


def extract_pattern(window, config: EmbeddingConfig) -> Pattern:
    """Encode one window of ``config.m`` samples as an ordinal pattern."""
    x = checked_series(window)
    if len(x) != config.m:
        raise LengthMismatch(f"window has {len(x)} samples, config.m = {config.m}")
    codes, _, _ = _histogram(x, replace(config, tau=1))
    return _decode(codes, config.m, config.scheme)[0]


def amplitude_reverse(pattern: Pattern) -> Pattern:
    """Pattern of the negated window: the label sequence reversed.

    An involution. Under the equal-value scheme this equals
    ``extract_pattern(-w)`` for every window ``w``; under the original scheme
    only for tie-free windows.
    """
    return Pattern(pattern.labels[::-1], pattern.scheme)


def time_reverse_tie_free(pattern: Pattern) -> Pattern:
    """Pattern of the reversed window: elementwise complement ``m + 1 - label``.

    Only defined for tie-free patterns; for tied patterns the map is
    ambiguous (different preimages reverse to different patterns) and the
    dual-histogram route in :mod:`irrev.measures` must be used instead.
    """
    if not pattern.is_tie_free():
        raise TiedPatternUnsupported(
            f"time reversal is undefined for tied pattern {pattern}"
        )
    m = pattern.m
    return Pattern(tuple(m + 1 - v for v in pattern.labels), pattern.scheme)


def is_self_symmetric(pattern: Pattern, symmetry: str) -> bool:
    """True iff the given transform maps the pattern to itself."""
    if checked_choice("symmetry", symmetry, ("amplitude", "time")) == "amplitude":
        return amplitude_reverse(pattern) == pattern
    return time_reverse_tie_free(pattern) == pattern


def canonical_representative(pattern: Pattern) -> list[int]:
    """Build a small integer window whose pattern equals the input.

    Doubles as the validity check: raises :class:`InvalidPattern` when no
    window can realize the label sequence. Validity requires each label to
    occur in a single consecutive run, and the positions absent from the
    label multiset to be assignable to tie runs such that every assigned
    position exceeds its run's label (the run label is the group minimum).
    """
    labels = pattern.labels
    m = len(labels)
    _pattern_code(labels, m, str(pattern))  # labels in 1..m

    runs = [(v, len(list(run))) for v, run in groupby(labels)]
    run_labels = [v for v, _ in runs]
    if len(set(run_labels)) != len(run_labels):
        raise InvalidPattern(f"label repeated in non-adjacent runs in {labels}")

    if pattern.scheme == SCHEME_ORIGINAL and len(runs) != m:
        raise InvalidPattern(
            f"{labels} has tied labels, not allowed under the original scheme"
        )

    missing = sorted(set(range(1, m + 1)) - set(run_labels))

    # Greedy matching: missing positions ascending, runs by label ascending;
    # a position may only join a run whose label is smaller.
    need = {v: length - 1 for v, length in runs}
    members = {v: [v] for v, _ in runs}
    needy = sorted(v for v in need if need[v] > 0)
    for pos in missing:
        chosen = None
        for v in needy:
            if need[v] > 0 and v < pos:
                chosen = v
                break
        if chosen is None:
            raise InvalidPattern(
                f"no tie run can absorb position {pos} in {labels}"
            )
        members[chosen].append(pos)
        need[chosen] -= 1

    window = [0] * m
    for rank, (v, _) in enumerate(runs, start=1):
        for pos in members[v]:
            window[pos - 1] = rank
    return window


def pattern_to_string(pattern: Pattern) -> str:
    """Codec used in all reports: comma-separated labels, no spaces."""
    return ",".join(map(str, pattern.labels))


def pattern_from_string(text: str, scheme: str = SCHEME_EQUAL_VALUE) -> Pattern:
    """Parse the ``"l1,l2,...,lm"`` codec; validates realizability."""
    parts = text.split(",")
    try:
        labels = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(1, text, "pattern labels must be integers") from None
    if len(labels) < 2:
        raise ParseError(1, text, "pattern needs at least 2 labels")
    pattern = Pattern(labels, scheme)
    canonical_representative(pattern)  # raises InvalidPattern when unrealizable
    return pattern
