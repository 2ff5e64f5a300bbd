"""IAAFT surrogate generation and percentile-based significance testing.

Surrogates preserve the original amplitude distribution exactly (the output
is the rank-ordered variant) and approximate its power spectrum through
iterative refinement. Each ensemble member is seeded from a splitmix64-style
mix of (seed, index), so ensembles are reproducible and independent of
generation order or concurrency.

``ensemble_values`` is the single ensemble loop: it draws members 0..n-1 one
at a time, scores each through :func:`irrev.measures.sweep` (one forward
histogram per configuration, shared by every kind) and drops it before
drawing the next, so memory does not grow with the ensemble size.
``significance_test`` and the ``repro-models`` command both run on it and
both take their band from :func:`percentile_band`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (DegenerateSeries, DomainError, EmptyInput, InvalidParams,
                     SeriesTooShort)
from .measures import _validated_series, measure, sweep
from .ordinal import EmbeddingConfig

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 stream increment


def mix_seed(seed: int, index: int) -> int:
    """64-bit mix of (seed, index): one splitmix64 output of the shifted state.

    fmix64 finalizer from splitmix64 applied to ``seed + (index+1) * golden``;
    fixed here so ensembles are reproducible across machines and runs.
    """
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class IaaftParams:
    max_iterations: int = 1000
    seed: int = 0
    n_surrogates: int = 500

    def __post_init__(self):
        for name in ("max_iterations", "n_surrogates", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.max_iterations < 1:
            raise InvalidParams("max_iterations must be >= 1")
        if self.n_surrogates < 1:
            raise InvalidParams("n_surrogates must be >= 1")
        if not 0 <= self.seed <= _MASK64:  # mix_seed would alias the rest
            raise InvalidParams(f"seed must lie in 0..2**64 - 1, got {self.seed}")


@dataclass(frozen=True)
class IaaftDiagnostics:
    iterations_used: int
    spectrum_rms_error: float
    initial_spectrum_rms_error: float
    converged: bool


@dataclass(frozen=True)
class SurrogateVerdict:
    original_value: float
    surrogate_values: list[float]
    p2_5: float
    p97_5: float
    significant_above: bool
    significant_below: bool


def _rel_spectrum_error(mag: np.ndarray, target_mag: np.ndarray) -> float:
    return float(
        np.sqrt(np.mean((mag - target_mag) ** 2))
        / np.sqrt(np.mean(target_mag**2))
    )


def _ranks(y: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(y, kind="stable")``, mostly at default-sort cost.

    With distinct keys the sorting permutation is unique, so the default
    sort gives the stable one; one gather-and-compare detects ties (signed
    zeros included, as ``-0.0 == 0.0``) and only then is the stable sort run.
    """
    order = np.argsort(y)
    ys = y[order]
    if np.any(ys[1:] == ys[:-1]):
        return np.argsort(y, kind="stable")
    return order


def iaaft(series, params: IaaftParams, index: int = 0):
    """One IAAFT surrogate plus convergence diagnostics.

    Alternates spectrum adjustment (impose the original magnitude spectrum,
    keep current phases; the DC bin keeps the original value and zero-
    magnitude bins get zero phase) with rank ordering (replace values by the
    original's sorted values at the current ranks, ties broken by index).
    Ranks come from the default sort and fall back to the stable sort only
    when the values have ties, so they, and the output bytes, are those of
    a stable sort.
    Stops when the rank permutation repeats between consecutive iterations
    or ``max_iterations`` is reached; returns the rank-ordered series.
    """
    x = _validated_series(series)
    n = len(x)
    if n < 8:
        raise SeriesTooShort(f"IAAFT needs at least 8 samples, got {n}")
    if np.all(x == x[0]):
        raise DegenerateSeries("constant series has no non-DC spectral content")

    target = np.fft.rfft(x)
    target_mag = np.abs(target)
    sorted_x = np.sort(x)

    rng = np.random.default_rng(mix_seed(params.seed, index))
    cur = x[rng.permutation(n)]

    prev_order = None
    initial_err = math.nan
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        f = np.fft.rfft(cur)
        mag = np.abs(f)
        if iterations == 1:
            initial_err = _rel_spectrum_error(mag, target_mag)
        phase = np.where(mag > 0, f / np.where(mag > 0, mag, 1.0), 1.0)
        f_new = target_mag * phase
        f_new[0] = target[0]
        y = np.fft.irfft(f_new, n)

        order = _ranks(y)
        cur = np.empty_like(cur)
        cur[order] = sorted_x
        if prev_order is not None and np.array_equal(order, prev_order):
            converged = True
            break
        prev_order = order

    final_err = _rel_spectrum_error(np.abs(np.fft.rfft(cur)), target_mag)
    diagnostics = IaaftDiagnostics(
        iterations_used=iterations,
        spectrum_rms_error=final_err,
        initial_spectrum_rms_error=initial_err,
        converged=converged,
    )
    return cur, diagnostics


def percentile_nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: element at 1-based rank ceil(q/100 * N)."""
    values = sorted(float(v) for v in values)
    if not values:
        raise EmptyInput("percentile of an empty list")
    if not 0.0 < q < 100.0:
        raise DomainError(f"q must lie in (0, 100), got {q}")
    rank = math.ceil(q / 100.0 * len(values))
    return values[rank - 1]


def percentile_band(values) -> tuple[float, float]:
    """The 2.5th and 97.5th nearest-rank percentiles: a two-sided 95% band."""
    return (percentile_nearest_rank(values, 2.5),
            percentile_nearest_rank(values, 97.5))


def ensemble_values(series, params: IaaftParams, configs, kinds):
    """``{(kind, config): [value of member i for i in 0..n_surrogates-1]}``."""
    values = {(kind, c): [] for c in configs for kind in kinds}
    for i in range(params.n_surrogates):
        surrogate, _ = iaaft(series, params, i)
        for c in configs:
            reports = sweep(surrogate, [c.m], [c.tau], c.scheme, kinds,
                            c.tie_epsilon)
            for kind, rep in zip(kinds, reports):
                values[(kind, c)].append(rep.value)
    return values


def significance_test(
    series, config: EmbeddingConfig, kind: str, params: IaaftParams
) -> SurrogateVerdict:
    """Compare a measure value against an IAAFT surrogate ensemble."""
    original = measure(series, config, kind).value
    surrogate_values = ensemble_values(series, params, [config],
                                       [kind])[(kind, config)]
    p2_5, p97_5 = percentile_band(surrogate_values)
    return SurrogateVerdict(
        original_value=original,
        surrogate_values=surrogate_values,
        p2_5=p2_5,
        p97_5=p97_5,
        significant_above=original > p97_5,
        significant_below=original < p2_5,
    )
