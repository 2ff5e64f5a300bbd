"""Deterministic benchmark series: logistic map, Henon map, Gaussian noise.

The Gaussian generator is pinned to numpy's ``default_rng`` (PCG64 bit
generator, ziggurat standard-normal algorithm) so that a given seed yields
the same stream on every machine; percentile-based surrogate verdicts depend
on the exact samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DivergedOrbit, InvalidParams

# Orbit magnitude beyond which a map iteration is declared divergent; the
# bounded attractors of both maps stay far below this.
_ESCAPE = 1e6


@dataclass(frozen=True)
class ModelSpec:
    """Which benchmark series to generate, with all parameters explicit."""

    kind: str  # "logistic" | "henon" | "gaussian"
    n: int
    burn_in: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("logistic", "henon", "gaussian"):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.burn_in < 0:
            raise InvalidParams("burn_in must be >= 0")
        if self.kind == "gaussian":
            seed = self.params.get("seed")
            if seed is None:
                raise InvalidParams("gaussian series requires an explicit seed")
            if not isinstance(seed, Integral) or not 0 <= seed < 2**64:
                raise InvalidParams(
                    f"seed must be an integer in 0..2**64 - 1, got {seed!r}")


def paper_length() -> int:
    """Benchmark series length used throughout: 20 * 7! = 100800 samples."""
    return 20 * 5040


def _logistic(n, r=4.0, x1=0.01):
    out = np.empty(n)
    x = float(x1)
    for t in range(n):
        out[t] = x
        x = r * x * (1.0 - x)
        if not np.isfinite(x) or abs(x) > _ESCAPE:
            raise DivergedOrbit(
                f"logistic orbit diverged at step {t + 1} (x = {x})"
            )
    return out


def _henon(n, alpha=1.4, beta=0.3, x1=0.01, y1=0.01):
    out = np.empty(n)
    x, y = float(x1), float(y1)
    for t in range(n):
        out[t] = x
        x, y = 1.0 - alpha * x * x + y, beta * x
        if not np.isfinite(x) or abs(x) > _ESCAPE:
            raise DivergedOrbit(f"Henon orbit diverged at step {t + 1} (x = {x})")
    return out


def _gaussian(n, seed, mean=0.0, sd=1.0):
    if sd <= 0:
        raise InvalidParams("sd must be positive")
    rng = np.random.default_rng(int(seed))
    return mean + sd * rng.standard_normal(n)


def generate(spec: ModelSpec) -> np.ndarray:
    """Generate ``spec.n`` samples after discarding ``spec.burn_in`` iterates."""
    total = spec.n + spec.burn_in
    if spec.kind == "logistic":
        series = _logistic(total, **spec.params)
    elif spec.kind == "henon":
        series = _henon(total, **spec.params)
    else:
        series = _gaussian(total, **spec.params)
    return series[spec.burn_in:]
