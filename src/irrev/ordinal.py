"""Ordinal pattern extraction and pattern symmetry transforms.

A window of ``m`` samples is encoded by listing its positions (1-based) in
ascending value order. Two tie-handling schemes are supported:

* ``"original"`` -- ties are broken by order of occurrence, so every pattern
  is a permutation of ``1..m``.
* ``"equal-value"`` -- every member of a tie group carries the group's lowest
  position index, e.g. ``{3,1,7,1,5}`` encodes to ``(2,2,1,5,3)``.

:func:`_histogram` counts the patterns of every window of a series (and
of the one window of :func:`extract_pattern`) from one ``<=`` comparison and
one tie test per lag r = 1..m-1 (``x[:-r tau]`` against ``x[r tau:]``;
column pair (j, k) of a window reads lag k - j at offset ``j tau``). Each
window quantity is a running sum or OR over the lags, read at column m-1-r:

* ``S_r = S_{r-1}[:len(le_r)] + le_r`` counts the next r lags a sample sorts
  at or before, so the Lehmer key ``(m! - 1) - sum(r! * S_r)``, in
  ``0..m! - 1``, fixes the window's stable-sort order.
* ``T_r = T_{r-1}[:len(tie_r)] | tie_r``, a tie within r lags, is tie bit
  m-1-r: a column sorted after that one lies within ``tie_epsilon`` (for
  eps > 0, earlier columns add an OR over the earlier lags). As the smallest
  gap lies between sorted neighbours, the bit of the column at stable
  position p says that p and p + 1 share a tie group.

A code places each label at its rank as big-endian base-(m + 1) digits,
``sum(label_k * (m + 1) ** (m - 1 - rank_k))``: ascending codes are the
lexicographic label order, and ``(m + 1) ** m`` bounds ``m`` to 2..15.

The window keys are sorted in place and counted at their run boundaries,
and only the distinct keys are decoded. Tie-free windows, at least ``m!`` of
them, have the Lehmer key, in the smallest signed type holding ``m!`` but
never int8 (numpy multiplies int8 sums by an unsigned or int8 weight in a
slow loop), decoded by :func:`_lehmer_table`. Other windows have
``lehmer << m | bits``, below ``m! * 2**m`` and so inside int64. It fixes
the pattern under both schemes and, for eps = 0, those of the reversed and
negated window: a group at stable positions s..e holds its columns in index
order, reversal maps column c to m - 1 - c and position p to s + e - p, and
negation reverses the group order, p to (m - 1 - e) + (p - s).
:func:`_key_histogram` decodes them one stable position at a time, by
:func:`_order_table` or, with fewer than ``m!`` windows, by the Lehmer
digits; an equal-value label is 1 + the lowest column of its group.

Every other sum over equal values goes through :func:`_summed`: one argsort,
the run starts of the sorted values, and one ``np.add.reduceat`` per weight
column. It counts the decoded codes, merges the original scheme's keys that
differ only in tie bits, and in :mod:`irrev.measures` aligns H and G and
sums the value's numerators per denominator.

Two symmetry transforms act on patterns and on codes: amplitude reversal
(the negated window; labels or digits reversed) and time reversal (the
reversed window; complement ``m + 1 - label``, only for tie-free patterns).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from itertools import groupby
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

TRANSFORM_IDENTITY = "identity"
TRANSFORM_TIME_REVERSE = "time-reverse"
TRANSFORM_NEGATE = "negate"

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


def _histogram(x: np.ndarray, config: EmbeddingConfig):
    """Sorted distinct pattern codes of the windows of ``x``, their counts,
    which windows hold a tie, and the distinct keys with their counts (keyed
    path and eps = 0 only, else None)."""
    m, tau, eps = config.m, config.tau, config.tie_epsilon
    n = len(x) - (m - 1) * tau
    if n < 1:
        raise SeriesTooShort(f"need at least {(m - 1) * tau + 1} samples for "
                             f"m={m}, tau={tau}; got {len(x)}")
    # Lag r compares each sample with the one r tau later; column pair
    # (j, k) of window i reads lag k - j at i + j tau.
    lags = [(x[: len(x) - r * tau], x[r * tau :]) for r in range(1, m)]
    le = [None] + [(a <= b).view(np.int8) for a, b in lags]
    ties = [None] + [_ties(a, b, eps) for a, b in lags]

    def windows(run, r):
        """Window view of a run over lags 1..r: it starts at column m-1-r,
        the column whose later samples are those r lags away."""
        return run[(m - 1 - r) * tau :][:n]

    any_tie = any(tie.any() for tie in ties[1:])
    shift = m if any_tie or n < math.factorial(m) else 0  # keyed
    top = (math.factorial(m) - 1) << shift  # every key is below top + 2**shift
    dtype = np.result_type(np.int16, np.min_scalar_type(-top - (1 << shift)))
    keys = np.full(n, top, dtype=dtype)
    tied = np.zeros(n, dtype=bool)
    if any_tie:
        # Tie bit k: a column that sorts after column k lies within eps. A
        # later column does where le holds (always, for eps = 0), an
        # earlier one where le fails.
        for r in range(1, m):
            tie = ties[r] if eps == 0 else ties[r] & le[r].view(bool)
            run = tie if r == 1 else run[: len(tie)] | tie
            keys |= windows(run, r) * dtype.type(1 << (m - 1 - r))
        for k in range(1, m if eps else 1):
            tie = ties[k] & ~le[k].view(bool)
            run = tie if k == 1 else run[tau:] | tie
            keys |= run[:n] * dtype.type(1 << k)
        tied = keys != top
    for r, run in _lag_sums(le):
        keys -= windows(run, r) * dtype.type(math.factorial(r) << shift)
    keys.sort()
    starts = _run_starts(keys)
    keys, counts = keys[starts], np.diff(starts, append=n)
    if shift:
        return (*_key_histogram(keys, counts, config, n), tied,
                (keys, counts) if eps == 0 else None)
    codes = _lehmer_table(m)[keys]
    first, counts = _summed(codes, counts)
    return codes[first], counts, tied, None


def _key_histogram(keys: np.ndarray, key_counts: np.ndarray,
                   config: EmbeddingConfig, n_windows: int,
                   transform: str = TRANSFORM_IDENTITY):
    """Sorted codes and counts of the windows with the distinct keys ``lehmer
    << m | bits``, or for tie_epsilon = 0 of their reversed or negated twins."""
    m, reverse = config.m, transform == TRANSFORM_TIME_REVERSE
    original = config.scheme == SCHEME_ORIGINAL
    if original and transform == TRANSFORM_IDENTITY:  # tie bits play no part
        keys = keys >> m << m
        at, key_counts = _summed(keys, key_counts)
        keys = keys[at]
    lehmer = (keys >> m).astype(np.intp)
    bits = (keys & ((1 << m) - 1)).astype(np.int16)
    orders = (_order_table(m).take(lehmer, axis=1)
              if math.factorial(m) <= n_windows else _stable_orders(lehmer, m))
    # Positions p and p + 1 share a tie group iff the column at p has its bit.
    joined = [((bits >> order) & 1).astype(np.int8) for order in orders[:-1]]

    def spread_back(values) -> list:
        """Each group's value at its last position, at all its positions."""
        values = list(values)
        for p in range(m - 2, -1, -1):
            values[p] = values[p] + joined[p] * (values[p + 1] - values[p])
        return values

    # The transformed window's column at each position, and the label 1 +
    # that column, or 1 + its group's lowest column (a running min).
    columns = [m - 1 - order if reverse else order for order in orders]
    if not original:
        for p, join in zip(range(1, m), joined):
            columns[p] = np.minimum(columns[p], columns[p - 1] + m * (1 - join))
        columns = spread_back(columns)
    places = range(m)
    if transform == TRANSFORM_NEGATE or reverse and original:
        first = [0]  # of the group at positions s..e
        for p, join in zip(places[1:], joined):
            first.append(p - join * (p - first[-1]))
        places = [s + e - p if reverse else m - 1 - e + p - s
                  for p, s, e in zip(places, first, spread_back(places))]
    codes = sum(_code_weights(m).take(place) * (column + 1)
                for column, place in zip(columns, places))
    at, counts = _summed(codes, key_counts)
    return codes[at], counts


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where the runs of equal neighbours of ``values`` start."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _summed(values: np.ndarray, *weights: np.ndarray) -> tuple:
    """``(first, *sums)``: an index of each distinct value, in ascending
    value order, and each weight column summed over that value's entries."""
    order = np.argsort(values)
    starts = _run_starts(values[order])
    return (order[starts], *(np.add.reduceat(w[order], starts) for w in weights))


def _lag_sums(le: list):
    """``(r, S_r)`` for r = 1..m-1, ``S_r = S_{r-1}[:len(le_r)] + le_r``: how
    many of the next r lags each sample sorts at or before. ``S_r`` is summed
    into ``le_r``'s buffer, so ``le`` is spent."""
    run = le[1]
    for r in range(1, len(le)):
        if r > 1:
            run = np.add(run[: len(le[r])], le[r], out=le[r])
        yield r, run


@functools.cache
def _lehmer_table(m: int) -> np.ndarray:
    """Read-only codes of the Lehmer keys ``0..m! - 1``, built on first use.
    The tie-free path asks for it only with at least ``m!`` windows, so it
    is never larger than the float64 series."""
    table = _key_codes(np.arange(math.factorial(m)), m)
    table.flags.writeable = False
    return table


@functools.cache
def _order_table(m: int) -> np.ndarray:
    """Read-only :func:`_stable_orders` of the Lehmer keys ``0..m! - 1``,
    asked for only with at least ``m!`` windows (at most m/8 of the series)."""
    table = _stable_orders(np.arange(math.factorial(m)), m)
    table.flags.writeable = False
    return table


def _key_codes(keys: np.ndarray, m: int) -> np.ndarray:
    """Codes of the tie-free patterns with the given Lehmer keys."""
    return _code_weights(m) @ (_stable_orders(keys, m) + 1)


def _stable_orders(keys: np.ndarray, m: int) -> np.ndarray:
    """``m x len(keys)`` int8: row p holds the column at position p of the
    stable sort of each Lehmer key's window."""
    digits = np.empty((m, len(keys)), dtype=np.int8)
    rest = keys.astype(np.int64)
    for j in range(m):
        digits[j], rest = np.divmod(rest, math.factorial(m - 1 - j))
    # Right-to-left insertion: sample j lands at rank digits_j among the
    # later samples, and each of them at or above that rank moves up one.
    for j in range(m - 2, -1, -1):
        digits[j + 1 :] += digits[j + 1 :] >= digits[j]
    return digits.argsort(axis=0).astype(np.int8)  # the ranks, inverted


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
    codes = _histogram(x, replace(config, tau=1))[0]
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
    ambiguous (different preimages reverse to different patterns), and
    :mod:`irrev.measures` takes the histogram of the reversed windows
    instead: decoded from the forward window keys, or for ``tie_epsilon >
    0`` encoded from the reversed series.
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
