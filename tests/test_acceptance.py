"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``).

Criterion 6 runs three 100-member IAAFT ensembles on 100800-sample series
through the library's own ensemble loop (``ensemble_values``, one member per
usable CPU at a time) and band (``percentile_band``). It dominates the
runtime (about three minutes on two cores); iterations are capped at 100,
where the relative spectrum error is already ~1e-4.
The paper-scale 500-surrogate run stays behind the CLI flag
``irrev repro-models --n-surrogates 500``.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from irrev import (
    DegenerateSeries,
    EmbeddingConfig,
    IaaftParams,
    Pattern,
    amplitude_reverse,
    extract_pattern,
    iaaft,
    measure,
    percentile_band,
    time_reverse_tie_free,
)
from irrev.cli import main as cli_main
from irrev.surrogates import ensemble_values

from conftest import random_series_with_ties
from oracle import measure_by_definition_oracle

SEED = 20260824


def _verdict(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_pattern_fixtures():
    ev = EmbeddingConfig(m=5)
    orig = EmbeddingConfig(m=5, scheme="original")
    checks = [
        extract_pattern([3, 1, 9, 5, 7], ev).labels == (2, 1, 4, 5, 3),
        extract_pattern([3, 1, 7, 1, 5], orig).labels == (2, 4, 1, 5, 3),
        extract_pattern([3, 1, 7, 1, 5], ev).labels == (2, 2, 1, 5, 3),
        extract_pattern([5, 5, 5], EmbeddingConfig(m=3)).labels == (1, 1, 1),
        extract_pattern([-3, -1, -7, -1, -5], ev).labels == (3, 5, 1, 2, 2),
        amplitude_reverse(Pattern((2, 1, 4, 5, 3))).labels == (3, 5, 4, 1, 2),
        amplitude_reverse(Pattern((2, 2, 1, 5, 3))).labels == (3, 5, 1, 2, 2),
        time_reverse_tie_free(Pattern((2, 1, 4, 5, 3))).labels == (4, 5, 2, 1, 3),
    ]
    # Negative control: the tied original-scheme patterns are not
    # label-sequence reversals of each other.
    fwd = extract_pattern([3, 1, 7, 1, 5], orig)
    neg = extract_pattern([-3, -1, -7, -1, -5], orig)
    checks.append(neg.labels == (3, 5, 1, 2, 4))
    checks.append(neg.labels != fwd.labels[::-1])
    _verdict(1, "pattern fixtures and tie negative control", all(checks))


def test_criterion_2_m2_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        x = random_series_with_ties(rng, n=1000, tie_fraction=0.1)
        for scheme in ("original", "equal-value"):
            cfg = EmbeddingConfig(m=2, scheme=scheme)
            gap = abs(measure(x, cfg, "TIR").value - measure(x, cfg, "AIR").value)
            worst = max(worst, gap)
    _verdict(2, f"m=2 TIR == AIR on 200 fuzzed series (worst gap {worst:.2e})",
             worst <= 1e-12)


def test_criterion_3_oracle_equivalence():
    cfg = EmbeddingConfig(m=3)
    worst = 0.0
    for seq in itertools.product((1, 2, 3), repeat=7):
        for kind in ("TIR", "AIR"):
            gap = abs(
                measure(seq, cfg, kind).value
                - measure_by_definition_oracle(seq, cfg, kind)
            )
            worst = max(worst, gap)
    _verdict(3, f"oracle equivalence on all 2187 sequences (worst {worst:.2e})",
             worst <= 1e-12)


def test_criterion_4_logistic_m7_headline(logistic_series):
    cfg = EmbeddingConfig(m=7)
    tir = measure(logistic_series, cfg, "TIR").value
    air = measure(logistic_series, cfg, "AIR").value
    _verdict(4, f"logistic m=7: TIR = {tir}, AIR = {air:.6f}",
             tir == 1.0 and 0.0 < air < 1.0)


def test_criterion_5_tir_exceeds_air(logistic_series, henon_series):
    ok = True
    for name, series in (("logistic", logistic_series),
                         ("henon", henon_series)):
        for m in (3, 4, 5):
            cfg = EmbeddingConfig(m=m)
            ok &= (measure(series, cfg, "TIR").value
                   > measure(series, cfg, "AIR").value)
    gaps = {}
    for m in (4, 6):
        cfg = EmbeddingConfig(m=m)
        gaps[m] = abs(measure(logistic_series, cfg, "TIR").value
                      - measure(logistic_series, cfg, "AIR").value)
    ok &= gaps[6] <= gaps[4]
    _verdict(5, f"TIR > AIR at m=3..5 and gap m=6 <= gap m=4 "
                f"({gaps[6]:.4f} <= {gaps[4]:.4f})", ok)


@pytest.mark.slow
def test_criterion_6_surrogate_discrimination(logistic_series, henon_series,
                                              gaussian_series):
    cfg = EmbeddingConfig(m=4)
    params = IaaftParams(seed=SEED, n_surrogates=100, max_iterations=100)
    ok = True
    details = []
    for name, series, chaotic in (
        ("logistic", logistic_series, True),
        ("henon", henon_series, True),
        ("gaussian", gaussian_series, False),
    ):
        ensemble = ensemble_values(series, params, [cfg], ("TIR", "AIR"))
        for kind in ("TIR", "AIR"):
            original = measure(series, cfg, kind).value
            lo, hi = percentile_band(ensemble[(kind, cfg)])
            if chaotic:
                good = original > hi
            else:
                good = lo <= original <= hi
            ok &= good
            details.append(f"{name}/{kind}:{'ok' if good else 'BAD'}")
    _verdict(6, "surrogate discrimination at m=4 (" + " ".join(details) + ")",
             ok)


def test_criterion_7_invariance_suite():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for _ in range(30):
        x = random_series_with_ties(rng, n=600, tie_fraction=0.15)
        cfg = EmbeddingConfig(m=3)
        for kind in ("TIR", "AIR"):
            ok &= abs(measure(x, cfg, kind).value
                      - measure(2.5 * x + 1.0, cfg, kind).value) <= 1e-12
        ok &= abs(measure(x, cfg, "TIR").value
                  - measure(x[::-1], cfg, "TIR").value) <= 1e-12
        ok &= abs(measure(x, cfg, "AIR").value
                  - measure(-x, cfg, "AIR").value) <= 1e-12
        ok &= abs(measure(x, cfg, "TIR").value
                  - measure(-x, cfg, "TIR").value) <= 1e-12
    _verdict(7, "affine / reversal / negation invariances on tied fuzz", ok)


def test_criterion_8_iaaft_properties():
    x = np.random.default_rng(SEED + 2).standard_normal(4096)
    params = IaaftParams(seed=SEED)
    surrogate, diag = iaaft(x, params, 0)
    ok = np.array_equal(np.sort(surrogate), np.sort(x))
    ok &= diag.spectrum_rms_error <= 1e-2

    sequential = [iaaft(x, params, i)[0] for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda i: iaaft(x, params, i)[0], range(8)))
    ok &= all(np.array_equal(a, b) for a, b in zip(sequential, threaded))
    _verdict(8, f"IAAFT amplitude/spectrum/threading (rms "
                f"{diag.spectrum_rms_error:.2e})", ok)


def test_criterion_9_degenerate_handling(tmp_path, capsys):
    const = [4.0] * 300
    cfg = EmbeddingConfig(m=3)
    ok = measure(const, cfg, "TIR").value == 0.0
    ok &= measure(const, cfg, "AIR").value == 0.0
    try:
        iaaft(const, IaaftParams(seed=1), 0)
        ok = False
    except DegenerateSeries:
        pass

    short = tmp_path / "short.txt"
    short.write_text("1\n2\n3\n4\n")
    code = cli_main(["analyze", "--input", str(short), "--m", "5",
                     "--tau", "2"])
    capsys.readouterr()
    ok &= code == 2
    const_file = tmp_path / "const.txt"
    const_file.write_text("4\n" * 300)
    code = cli_main(["surrogate-test", "--input", str(const_file), "--m", "3",
                     "--seed", "1", "--n-surrogates", "5"])
    capsys.readouterr()
    ok &= code == 3
    _verdict(9, "constant and too-short inputs handled with documented codes",
             ok)
