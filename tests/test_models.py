import itertools

import numpy as np
import pytest

from irrev import (
    DivergedOrbit,
    EmbeddingConfig,
    InvalidParams,
    ModelSpec,
    build_histogram,
    generate,
    paper_length,
)


class TestLogistic:
    def test_first_iterate(self):
        x = generate(ModelSpec("logistic", 3))
        assert x[0] == 0.01
        assert x[1] == pytest.approx(0.0396, abs=1e-15)

    def test_stays_in_unit_interval(self):
        x = generate(ModelSpec("logistic", 10**6))
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_divergence_detected(self):
        with pytest.raises(DivergedOrbit):
            generate(ModelSpec("logistic", 50, params={"x1": 2.0}))

    def test_burn_in(self):
        full = generate(ModelSpec("logistic", 110))
        trimmed = generate(ModelSpec("logistic", 100, burn_in=10))
        assert np.array_equal(full[10:], trimmed)


class TestHenon:
    def test_first_iterate(self):
        x = generate(ModelSpec("henon", 3))
        assert x[0] == 0.01
        assert x[1] == pytest.approx(1.00986, abs=1e-15)

    def test_orbit_stays_bounded(self):
        x = generate(ModelSpec("henon", 10**6))
        assert np.all(np.abs(x) < 2.0)


class TestGaussian:
    def test_requires_seed(self):
        with pytest.raises(InvalidParams):
            generate(ModelSpec("gaussian", 100))

    def test_determinism(self):
        a = generate(ModelSpec("gaussian", 1000, params={"seed": 5}))
        b = generate(ModelSpec("gaussian", 1000, params={"seed": 5}))
        assert np.array_equal(a, b)
        c = generate(ModelSpec("gaussian", 1000, params={"seed": 6}))
        assert not np.array_equal(a, c)

    def test_sample_mean_sanity(self):
        n = paper_length()
        x = generate(ModelSpec("gaussian", n, params={"seed": 123}))
        assert abs(x.mean()) < 4.0 / np.sqrt(n)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "5"])
    def test_seed_domain(self, seed):
        with pytest.raises(InvalidParams, match="seed"):
            ModelSpec("gaussian", 10, params={"seed": seed})

    def test_largest_seed(self):
        spec = ModelSpec("gaussian", 10, params={"seed": 2**64 - 1})
        assert len(generate(spec)) == 10

    def test_invalid_sd(self):
        with pytest.raises(InvalidParams):
            generate(ModelSpec("gaussian", 10, params={"sd": 0.0, "seed": 1}))


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidParams):
            ModelSpec("lorenz", 10)

    def test_bad_sizes(self):
        with pytest.raises(InvalidParams):
            ModelSpec("logistic", 0)
        with pytest.raises(InvalidParams):
            ModelSpec("logistic", 10, burn_in=-1)


def test_paper_length():
    import math

    assert paper_length() == 100800
    assert paper_length() == 20 * math.factorial(7)
    # window count at m=7, tau=1
    assert paper_length() - 6 == 100794


def test_logistic_has_forbidden_pattern_at_m3(logistic_series):
    h = build_histogram(logistic_series, EmbeddingConfig(m=3, scheme="original"))
    observed = {p.labels for p in h.counts}
    all_patterns = {p for p in itertools.permutations((1, 2, 3))}
    forbidden = all_patterns - observed
    assert forbidden, "expected at least one forbidden tie-free pattern"
