"""Naive reference implementation of the irreversibility measures.

Deliberately independent of :mod:`irrev.ordinal` and :mod:`irrev.measures`:
windows are materialized as plain lists, the ordinal encoding uses its own
insertion sort, counts live in association lists, and the half-sum formula
is evaluated directly in rational arithmetic. Intended for testing on small
inputs only (n up to ~10^4).
"""

from __future__ import annotations

from fractions import Fraction

from irrev.errors import NonFiniteSample, SeriesTooShort


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
