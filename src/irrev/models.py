"""Deterministic benchmark series: logistic map, Henon map, Gaussian noise.

The Gaussian generator is pinned to numpy's ``default_rng`` (PCG64 bit
generator, ziggurat standard-normal algorithm) so that a given seed yields
the same stream on every machine; percentile-based surrogate verdicts depend
on the exact samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (DivergedOrbit, InvalidParams, checked_choice, checked_int,
                     checked_real)

# Orbit magnitude beyond which a map iteration is declared divergent; the
# bounded attractors of both maps stay far below this.
_ESCAPE = 1e6
# Largest float64 array numpy can describe: n + burn_in stays within it.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8
_PARAMETERS = {"logistic": ("r", "x1"), "henon": ("alpha", "beta", "x1", "y1"),
               "gaussian": ("mean", "sd", "seed")}


@dataclass(frozen=True)
class ModelSpec:
    """Which benchmark series to generate, with all parameters explicit."""

    kind: str  # "logistic" | "henon" | "gaussian"
    n: int
    burn_in: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        names = _PARAMETERS[checked_choice("kind", self.kind, tuple(_PARAMETERS))]
        for name in self.params:
            checked_choice(f"{self.kind} parameter", name, names)
        object.__setattr__(self, "n", checked_int("n", self.n, 1, _MAX_SAMPLES))
        object.__setattr__(self, "burn_in", checked_int(
            "burn_in", self.burn_in, 0, _MAX_SAMPLES - self.n))
        if self.kind == "gaussian":  # a missing seed is None, and rejected
            checked_real("mean", self.params.get("mean", 0.0))
            checked_real("sd", self.params.get("sd", 1.0), above=0)
            object.__setattr__(self, "params", {**self.params, "seed": checked_int(
                "seed", self.params.get("seed"), 0, 2**64 - 1)})
        else:  # a non-finite map parameter is left to diverge in generate
            for name, value in self.params.items():
                if not isinstance(value, Real):
                    raise InvalidParams(f"{name} must be a real number, got {value!r}")


def paper_length() -> int:
    """Benchmark series length used throughout: 20 * 7! = 100800 samples."""
    return 20 * 5040


def _logistic(n, r=4.0, x1=0.01):
    out = np.empty(n)
    x = float(x1)
    for t in range(n):
        out[t] = x
        x = r * x * (1.0 - x)
        if not abs(x) <= _ESCAPE:  # NaN and inf fail this too
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
        if not abs(x) <= _ESCAPE:  # NaN and inf fail this too
            raise DivergedOrbit(f"Henon orbit diverged at step {t + 1} (x = {x})")
    return out


def _gaussian(n, seed, mean=0.0, sd=1.0):
    rng = np.random.default_rng(seed)
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
