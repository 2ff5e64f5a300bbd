"""Locating ``irrev``, seed-derived inputs and the reference digests.

The reference digests pin outputs that refactors must keep bit for bit:
the IAAFT surrogate for (seed=1, index=0) at 100 iterations on the default
logistic series, and the m=2..7 TIR/AIR values (tau=1, equal-value scheme)
on the logistic, Henon and Gaussian benchmark series. ``run.py`` checks them
on the default seed. To record them again after a deliberate change of
output, run from the repository root::

    python3 perfbench/reference.py > perfbench/reference.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

DEFAULT_SEED = 1
IAAFT_ITERATIONS = 100  # acceptance criterion 6's cap
SURROGATE_M = 4
REFERENCE_MS = tuple(range(2, 8))
GAUSSIAN_REFERENCE_SEED = 2030  # the test suite's Gaussian benchmark series


def load_irrev() -> None:
    """Put the checkout's ``src`` first on the path; exit if irrev is absent."""
    src = ROOT / "src"
    if not (src / "irrev" / "__init__.py").is_file():
        sys.exit(f"perfbench: no irrev package under {src}")
    sys.path.insert(0, str(src))


load_irrev()
from irrev import measures, models, surrogates  # noqa: E402
from irrev.ordinal import EmbeddingConfig  # noqa: E402

SERIES_LENGTH = models.paper_length()  # 20 * 7! = 100800 samples


def logistic_x1(seed: int) -> float:
    """Initial condition of the logistic orbit; seed 1 gives the paper's 0.01."""
    return 0.01 + 0.9 * (((seed - 1) * 0.6180339887498949) % 1.0)


def surrogate_digest(surrogate) -> str:
    data = np.ascontiguousarray(surrogate, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def value_lines(table) -> list[str]:
    """(series, kind, m, value) rows as text, values in exact hex."""
    return [f"{s} {k} {m} {float(v).hex()}" for s, k, m, v in table]


def values_digest(table) -> str:
    return hashlib.sha256("\n".join(value_lines(table)).encode()).hexdigest()


def reference_series(name: str) -> np.ndarray:
    if name == "logistic":
        spec = models.ModelSpec("logistic", SERIES_LENGTH,
                                params={"x1": logistic_x1(DEFAULT_SEED)})
    elif name == "henon":
        spec = models.ModelSpec("henon", SERIES_LENGTH)
    else:
        spec = models.ModelSpec("gaussian", SERIES_LENGTH,
                                params={"seed": GAUSSIAN_REFERENCE_SEED})
    return models.generate(spec)


def value_rows(name: str, series) -> list[tuple]:
    return [
        (name, kind, m, measures.measure(series, EmbeddingConfig(m=m), kind).value)
        for kind in (measures.KIND_TIR, measures.KIND_AIR)
        for m in REFERENCE_MS
    ]


def reference_surrogate() -> np.ndarray:
    params = surrogates.IaaftParams(max_iterations=IAAFT_ITERATIONS,
                                    seed=DEFAULT_SEED)
    return surrogates.iaaft(reference_series("logistic"), params, 0)[0]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def compute_reference() -> dict:
    table = []
    for name in ("logistic", "henon", "gaussian"):
        table += value_rows(name, reference_series(name))
    return {
        "surrogate": {
            "series": "logistic", "n": SERIES_LENGTH, "seed": DEFAULT_SEED,
            "index": 0, "max_iterations": IAAFT_ITERATIONS,
            "sha256": surrogate_digest(reference_surrogate()),
        },
        "values": {
            "ms": list(REFERENCE_MS), "tau": 1, "scheme": "equal-value",
            "gaussian_seed": GAUSSIAN_REFERENCE_SEED,
            "sha256": values_digest(table),
            "table": value_lines(table),
        },
        "numpy": np.__version__,
    }


if __name__ == "__main__":
    print(json.dumps(compute_reference(), indent=2))
