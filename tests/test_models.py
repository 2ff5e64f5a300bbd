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
from irrev.models import _MAX_SAMPLES


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


@pytest.mark.parametrize("kind", ["logistic", "henon"])
@pytest.mark.parametrize("x1", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_start_diverges_at_step_1(kind, x1):
    with pytest.raises(DivergedOrbit, match="diverged at step 1 "):
        generate(ModelSpec(kind, 10, params={"x1": x1}))


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

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "5", 2.5, None])
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

    @pytest.mark.parametrize("field, bad", [
        (field, bad) for field, pasts in (
            ("n", (0, _MAX_SAMPLES + 1, 2**62, 10**30)),
            ("burn_in", (-1, _MAX_SAMPLES - 9, 2**62)))
        for bad in (2.5, "5", None, 0.5, *pasts)])
    def test_integer_fields_name_themselves(self, field, bad):
        with pytest.raises(InvalidParams, match=f"^{field} must be an integer"):
            ModelSpec("logistic", **{"n": 10, field: bad})

    @pytest.mark.parametrize("cast", [np.int64, np.uint32])
    def test_numpy_integer_types_stored_as_int(self, cast):
        spec = ModelSpec("gaussian", cast(10), burn_in=cast(2),
                         params={"seed": cast(5)})
        assert (spec.n, spec.burn_in, spec.params["seed"]) == (10, 2, 5)
        assert all(type(v) is int
                   for v in (spec.n, spec.burn_in, spec.params["seed"]))
        expected = generate(ModelSpec("gaussian", 10, 2, {"seed": 5}))
        assert np.array_equal(generate(spec), expected)

    @pytest.mark.parametrize("kind, name", [
        ("logistic", "foo"), ("logistic", "alpha"), ("henon", "r"),
        ("gaussian", "x1")])
    def test_unknown_parameter_named(self, kind, name):
        with pytest.raises(InvalidParams,
                           match=f"^{kind} parameter must be one of .*'{name}'$"):
            ModelSpec(kind, 10, params={name: 1.0})

    @pytest.mark.parametrize("name, value", [
        ("sd", float("nan")), ("sd", float("inf")), ("sd", 0.0), ("sd", -1.0),
        ("mean", float("nan")), ("mean", float("-inf")), ("mean", "0")])
    def test_gaussian_mean_and_sd_checked_up_front(self, name, value):
        with pytest.raises(InvalidParams,
                           match=f"^{name} must be a finite real number"):
            ModelSpec("gaussian", 10, params={"seed": 1, name: value})

    @pytest.mark.parametrize("kind, name, value", [
        ("logistic", "r", "4"), ("logistic", "x1", None), ("henon", "beta", [0.3]),
        ("henon", "y1", 1j)])
    def test_map_parameter_must_be_a_real_number(self, kind, name, value):
        with pytest.raises(InvalidParams,
                           match=f"^{name} must be a real number, got "):
            ModelSpec(kind, 10, params={name: value})

    def test_map_parameter_of_numpy_type_accepted(self):
        spec = ModelSpec("logistic", 3, params={"r": np.float64(4), "x1": 0.25})
        assert generate(spec).tolist() == [0.25, 0.75, 0.75]

    def test_largest_describable_array_is_the_bound(self):
        # Checked only, never allocated.
        assert _MAX_SAMPLES == np.iinfo(np.intp).max // 8
        assert ModelSpec("logistic", _MAX_SAMPLES).n == _MAX_SAMPLES
        with pytest.raises(InvalidParams, match="^burn_in must be"):
            ModelSpec("logistic", _MAX_SAMPLES, burn_in=1)


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
