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
scores the round in member order on the calling thread and drops it before
drawing the next round. So memory is bounded by the CPU count, not by the
ensemble size.

``significance_tests`` is the single verdict path. It scores the original
series, then makes one ``ensemble_values`` call that serves all its
(kind, config) cells, and takes each cell's band from
:func:`percentile_band`. The originals and every member are scored by one
helper, one :func:`irrev.measures.sweep` call per configuration, so the
kinds share each forward histogram. ``significance_test`` is its one-cell
case, and the ``repro-models`` command makes one call per series.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSeries, DomainError, EmptyInput, InvalidParams,
                     SeriesTooShort, checked_choice, checked_int, checked_series)
from .measures import _KINDS, _scalar, sweep
# perfbench hooks irrev.surrogates.measure and significance_test: keep both.
from .measures import measure  # noqa: F401
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
    """A measure value against its surrogate band. The values are cast to
    ``float`` and the flags to ``bool``; a field of another type raises
    :class:`InvalidParams` naming it."""

    original_value: float
    surrogate_values: list[float]
    p2_5: float
    p97_5: float
    significant_above: bool
    significant_below: bool

    def __post_init__(self):
        for name in ("original_value", "p2_5", "p97_5"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name), float))
        if not isinstance(self.surrogate_values, list):
            raise InvalidParams("surrogate_values must be a list, "
                                f"got {self.surrogate_values!r}")
        object.__setattr__(self, "surrogate_values", [
            _scalar("surrogate_values", v, float) for v in self.surrogate_values])
        for name in ("significant_above", "significant_below"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise InvalidParams(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))


def _rel_spectrum_error(mag: np.ndarray, target_mag: np.ndarray) -> float:
    return float(
        np.sqrt(np.mean((mag - target_mag) ** 2))
        / np.sqrt(np.mean(target_mag**2))
    )


_SIGN = np.uint64(1 << 63)


def _ranks(y: np.ndarray, scratch: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(y, kind="stable")``, from one sort of uint64 words.

    Each word holds the top bits of the sample's order-preserving key (the
    float64 bits with the sign bit flipped, or every bit flipped for a
    negative sample, after ``-0.0`` became ``0.0``) and, in its low ``b``
    bits, the sample's index from ``positions`` (``arange(len(y))`` as
    uint64). Value order implies word order, so one in-place sort ranks
    every sample whose key prefix no other sample shares. Samples that share
    a prefix (ties, and values within about ``2**(b - 52)`` relative) sit
    in runs already in index order; one stable sort of their values puts
    them in place. ``scratch`` is a float64 buffer of ``len(y)``, and
    ``y`` is left unchanged.
    """
    n = len(y)
    b = (n - 1).bit_length()
    low = np.uint64((1 << b) - 1)
    np.add(y, 0.0, out=scratch)  # -0.0 + 0.0 is 0.0
    bits = scratch.view(np.uint64)
    words = np.empty(n, dtype=np.uint64)
    np.right_shift(bits.view(np.int64), 63, out=words.view(np.int64))
    np.bitwise_or(words, _SIGN, out=words)
    np.bitwise_xor(words, bits, out=words)
    np.bitwise_and(words, ~low, out=words)
    np.bitwise_or(words, positions, out=words)
    words.sort()
    prefix = np.right_shift(words, b, out=bits)
    shared = prefix[1:] == prefix[:-1]
    if shared.any():
        # Runs of one prefix, in ascending prefix order: a run's values all
        # lie below the next run's, so one stable sort orders every run.
        in_run = np.zeros(n, dtype=bool)
        in_run[1:] = shared
        in_run[:-1] |= shared
        run = words[in_run]
        run = run[np.argsort(y[run & low], kind="stable")]
        words[in_run] = run
    np.bitwise_and(words, low, out=words)
    return words.view(np.intp)


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
    series is not rescaled. ``positions`` is a read-only uint64
    ``arange(len(x))``: the sample indices that every member's ranks pack
    below the key bits.
    """
    x: np.ndarray
    target_dc: complex
    target_mag: np.ndarray
    sorted_x: np.ndarray
    sorted_scaled: np.ndarray
    positions: np.ndarray


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
    sorted_x = np.sort(x)
    if sorted_x[0] == sorted_x[-1]:
        raise DegenerateSeries("constant series has no non-DC spectral content")
    top = max(-sorted_x[0], sorted_x[-1])
    scaled, sorted_scaled = x, sorted_x
    if not _SAFE_MAGNITUDES[0] <= top <= _SAFE_MAGNITUDES[1]:
        exponent = -int(np.frexp(top)[1])
        scaled, sorted_scaled = np.ldexp(x, exponent), np.ldexp(sorted_x, exponent)
    target = np.fft.rfft(scaled)
    positions = np.arange(n, dtype=np.uint64)
    positions.flags.writeable = False
    return IaaftSeries(x=scaled, target_dc=target[0], target_mag=np.abs(target),
                       sorted_x=sorted_x, sorted_scaled=sorted_scaled,
                       positions=positions)


def draw_iaaft(prepared: IaaftSeries, params: IaaftParams, index: int):
    """Member ``index`` of the ensemble of ``prepared``: see :func:`iaaft`.

    Each call allocates its own buffers and reuses them in every iteration,
    so concurrent calls are safe and give the bytes of sequential ones.
    Each iteration's ranks are a fresh array, packed with the shared
    ``prepared.positions`` and using ``cur`` as scratch before the scatter
    overwrites it; two word arrays reused in turn made more page faults and
    a higher peak RSS.
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

        order = _ranks(y, cur, prepared.positions)
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
    The ranks, and so the output bytes, are those of a stable sort; see
    :func:`_ranks` for how one sort of packed words gives them.
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


def _cells(configs, kinds):
    """``configs`` and ``kinds`` as lists without repeats, in first-seen
    order; the kinds are checked."""
    kinds = dict.fromkeys(checked_choice("kind", k, _KINDS) for k in kinds)
    return list(dict.fromkeys(configs)), list(kinds)


def _scored(x, configs, kinds):
    """``((kind, config), report)`` for every cell of the series ``x``,
    config-major: one :func:`sweep` call per config, whose forward
    histogram every kind shares."""
    for c in configs:
        reports = sweep(x, [c.m], [c.tau], c.scheme, kinds, c.tie_epsilon)
        yield from zip(((kind, c) for kind in kinds), reports)


def ensemble_values(series, params: IaaftParams, configs, kinds):
    """``{(kind, config): [value of member i for i in 0..n_surrogates-1]}``.

    A config or kind given twice is one cell; cells come config-major, in
    first-seen order.
    """
    configs, kinds = _cells(configs, kinds)  # kinds checked before any draw
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
                for cell, rep in _scored(surrogate, configs, kinds):
                    values[cell].append(rep.value)
            del rest, members  # drop the round before drawing the next
    return values


def significance_tests(series, configs, kinds, params: IaaftParams):
    """Every (kind, config) cell against one IAAFT surrogate ensemble.

    Returns ``({cell: original report}, {cell: SurrogateVerdict})``, both
    config-major in first-seen order, a repeated config or kind counting
    once. The original series is scored first, so a series too short for
    any config raises before a member is drawn.
    """
    configs, kinds = _cells(configs, kinds)
    x = checked_series(series)
    reports = dict(_scored(x, configs, kinds))
    ensemble = ensemble_values(x, params, configs, kinds)
    verdicts = {}
    for cell, rep in reports.items():
        p2_5, p97_5 = percentile_band(ensemble[cell])
        verdicts[cell] = SurrogateVerdict(
            original_value=rep.value,
            surrogate_values=ensemble[cell],
            p2_5=p2_5,
            p97_5=p97_5,
            significant_above=rep.value > p97_5,
            significant_below=rep.value < p2_5,
        )
    return reports, verdicts


def significance_test(
    series, config: EmbeddingConfig, kind: str, params: IaaftParams
) -> SurrogateVerdict:
    """Compare a measure value against an IAAFT surrogate ensemble."""
    return significance_tests(series, [config], [kind], params)[1][(kind, config)]
