"""IAAFT surrogate generation and percentile-based significance testing.

Surrogates preserve the original amplitude distribution exactly (the output
is the rank-ordered variant) and approximate its power spectrum through
iterative refinement. Each ensemble member is seeded from a splitmix64-style
mix of (seed, index), so ensembles are reproducible and independent of
generation order or concurrency.

``iaaft`` is :func:`prepare_iaaft` (validation, target spectrum and sorted
values, once per series) followed by :func:`draw_iaaft` (one member, with
its buffers reused in every iteration).

``ensemble_values`` is the single ensemble loop. It prepares the series once
and draws members 0..n-1 in rounds of one per usable CPU: the calling thread
draws the first member of each round and a pool of threads the rest. It then
scores the round in member order on the calling thread through
:func:`irrev.measures.sweep` (one forward histogram per configuration,
shared by every kind) and drops it before drawing the next round. So memory
is bounded by the CPU count, not by the ensemble size.
``significance_test`` and the ``repro-models`` command both run on it and
both take their band from :func:`percentile_band`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSeries, DomainError, EmptyInput, SeriesTooShort,
                     checked_choice, checked_int, checked_series)
from .measures import _KINDS, measure, sweep
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
        for name, low, high in (("max_iterations", 1, None), ("n_surrogates", 1, None),
                                ("seed", 0, _MASK64)):  # wider seeds alias in mix_seed
            value = checked_int(name, getattr(self, name), low, high)
            object.__setattr__(self, name, value)


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


def _ranks(y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Exactly ``np.argsort(y, kind="stable")``, mostly at default-sort cost.

    With distinct keys the sorting permutation is unique, so the default
    sort gives the stable one; one gather-and-compare detects ties (signed
    zeros included, as ``-0.0 == 0.0``) and only then is the stable sort run.
    The gather goes into ``scratch`` when given.
    """
    order = np.argsort(y)
    ys = np.take(y, order, out=scratch)
    if np.any(ys[1:] == ys[:-1]):
        return np.argsort(y, kind="stable")
    return order


# Largest sample magnitudes whose spectrum, and its squares in the spectrum
# error, stay far inside the float64 range at any practical length.
_SAFE_MAGNITUDES = (2.0**-200, 2.0**200)


@dataclass(frozen=True)
class IaaftSeries:
    """What every IAAFT member of one series shares: computed once.

    The iterations run on ``x``, the series at its working scale, whose
    spectrum is ``target_dc`` and ``target_mag`` and whose sorted values
    are ``sorted_scaled``. ``sorted_x`` holds the sorted original values,
    which every surrogate takes; it is ``sorted_scaled`` itself when the
    series is not rescaled.
    """
    x: np.ndarray
    target_dc: complex
    target_mag: np.ndarray
    sorted_x: np.ndarray
    sorted_scaled: np.ndarray


def prepare_iaaft(series) -> IaaftSeries:
    """Validate ``series`` and compute its spectrum and sorted values.

    A series whose largest magnitude lies outside ``2**-200..2**200`` is
    worked on at the power-of-two scale that brings that magnitude into
    ``[0.5, 1)``, where its spectrum cannot overflow. The scale is exact
    through every step of an iteration, so the ranks, the surrogate and
    the relative spectrum errors are those the series would give if no
    step overflowed or underflowed; a series inside the range is not
    rescaled.
    """
    x = checked_series(series)
    n = len(x)
    if n < 8:
        raise SeriesTooShort(f"IAAFT needs at least 8 samples, got {n}")
    if np.all(x == x[0]):
        raise DegenerateSeries("constant series has no non-DC spectral content")
    sorted_x = np.sort(x)
    top = max(-sorted_x[0], sorted_x[-1])
    scaled, sorted_scaled = x, sorted_x
    if not _SAFE_MAGNITUDES[0] <= top <= _SAFE_MAGNITUDES[1]:
        exponent = -int(np.frexp(top)[1])
        scaled, sorted_scaled = np.ldexp(x, exponent), np.ldexp(sorted_x, exponent)
    target = np.fft.rfft(scaled)
    return IaaftSeries(x=scaled, target_dc=target[0], target_mag=np.abs(target),
                       sorted_x=sorted_x, sorted_scaled=sorted_scaled)


def draw_iaaft(prepared: IaaftSeries, params: IaaftParams, index: int):
    """Member ``index`` of the ensemble of ``prepared``: see :func:`iaaft`.

    Each call allocates its own buffers and reuses them in every iteration,
    so concurrent calls are safe and give the bytes of sequential ones.
    """
    index = checked_int("index", index, 0, _MASK64 - 1)  # no alias of index + 1
    x, target_mag = prepared.x, prepared.target_mag
    sorted_scaled = prepared.sorted_scaled
    n = len(x)
    rng = np.random.default_rng(mix_seed(params.seed, index))
    cur = x[rng.permutation(n)]
    f = np.empty(len(target_mag), dtype=complex)
    mag = np.empty(len(target_mag))
    nonzero = np.empty(len(target_mag), dtype=bool)
    y = np.empty(n)

    prev_order = None
    initial_err = math.nan
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        np.fft.rfft(cur, out=f)
        np.abs(f, out=mag)
        if iterations == 1:
            initial_err = _rel_spectrum_error(mag, target_mag)
        # f becomes the phase: f / |f|, and 1 where |f| is zero.
        np.greater(mag, 0, out=nonzero)
        np.divide(f, mag, out=f, where=nonzero)
        if not nonzero.all():
            f[~nonzero] = 1.0
        np.multiply(f, target_mag, out=f)
        f[0] = prepared.target_dc
        np.fft.irfft(f, n, out=y)

        # The tie check gathers into cur, which the scatter then overwrites.
        order = _ranks(y, cur)
        cur[order] = sorted_scaled
        if prev_order is not None and np.array_equal(order, prev_order):
            converged = True
            break
        prev_order = order

    np.fft.rfft(cur, out=f)
    final_err = _rel_spectrum_error(np.abs(f, out=mag), target_mag)
    if sorted_scaled is not prepared.sorted_x:  # back to the original scale
        cur[order] = prepared.sorted_x
    diagnostics = IaaftDiagnostics(
        iterations_used=iterations,
        spectrum_rms_error=final_err,
        initial_spectrum_rms_error=initial_err,
        converged=converged,
    )
    return cur, diagnostics


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
    ``index`` must be an integer in 0..2**64 - 2.
    """
    return draw_iaaft(prepare_iaaft(series), params, index)


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ensemble_values(series, params: IaaftParams, configs, kinds):
    """``{(kind, config): [value of member i for i in 0..n_surrogates-1]}``."""
    kinds = [checked_choice("kind", k, _KINDS) for k in kinds]  # before any draw
    prepared = prepare_iaaft(series)
    values = {(kind, c): [] for c in configs for kind in kinds}
    if not values:  # no cell to score
        return values
    n = params.n_surrogates
    width = min(_usable_cpus(), n)
    with (ThreadPoolExecutor(width - 1, thread_name_prefix="irrev-iaaft")
          if width > 1 else nullcontext()) as pool:
        for start in range(0, n, width):
            rest = [pool.submit(draw_iaaft, prepared, params, i)
                    for i in range(start + 1, min(start + width, n))]
            members = [draw_iaaft(prepared, params, start)[0]]
            members += [future.result()[0] for future in rest]
            for surrogate in members:
                for c in configs:
                    reports = sweep(surrogate, [c.m], [c.tau], c.scheme, kinds,
                                    c.tie_epsilon)
                    for kind, rep in zip(kinds, reports):
                        values[(kind, c)].append(rep.value)
            del rest, members  # drop the round before drawing the next
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
