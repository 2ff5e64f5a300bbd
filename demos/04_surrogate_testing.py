"""Nonlinearity detection with IAAFT surrogates.

IAAFT surrogates keep a series' amplitude distribution exactly and its
power spectrum approximately while destroying nonlinear structure. If the
original TIR/AIR exceeds the 97.5th percentile of the surrogate ensemble,
the irreversibility cannot be explained by linear correlations alone.

Small series and ensembles keep this demo quick; scale n and n_surrogates
up for real analyses (the published protocol uses 500 surrogates).
"""

import numpy as np

from irrev import (
    EmbeddingConfig,
    IaaftParams,
    ModelSpec,
    generate,
    iaaft,
    significance_tests,
)

x = generate(ModelSpec("logistic", 4096))
params = IaaftParams(seed=7, n_surrogates=50)

surrogate, diag = iaaft(x, params, index=0)
print(f"one surrogate: {diag.iterations_used} iterations, "
      f"spectrum error {diag.spectrum_rms_error:.2e}, "
      f"converged={diag.converged}")
print(f"amplitudes preserved exactly: "
      f"{np.array_equal(np.sort(surrogate), np.sort(x))}")
print()

cfg = EmbeddingConfig(m=4)
for name, series in [
    ("logistic", x),
    ("gaussian", np.random.default_rng(1).standard_normal(4096)),
]:
    # One ensemble per series serves both kinds.
    _, verdicts = significance_tests(series, [cfg], ("TIR", "AIR"), params)
    for (kind, _), v in verdicts.items():
        print(f"{name:9} {kind}: original {v.original_value:.5f}  "
              f"band [{v.p2_5:.5f}, {v.p97_5:.5f}]  "
              f"above={v.significant_above} below={v.significant_below}")
