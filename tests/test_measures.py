import dataclasses
import functools
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irrev import (
    DomainError,
    EmbeddingConfig,
    InvalidParams,
    InvalidPattern,
    ModelSpec,
    NonFiniteSample,
    Pattern,
    SeriesTooShort,
    amplitude_reverse,
    build_histogram,
    extract_pattern,
    generate,
    measure,
    sweep,
    time_reverse_tie_free,
    ys_divergence,
)
from irrev import measures, ordinal
from irrev.io import ReportDocument, read_report, write_report
from irrev.measures import SAME_BIN, PairContribution, PairTable

from conftest import random_series_with_ties
from oracle import (_ordinal_labels, _window_tied,
                    measure_by_definition_oracle, reference_measure,
                    reference_pairs, reference_report_text)


class TestBuildHistogram:
    def test_monotone_series(self):
        cfg = EmbeddingConfig(m=2)
        h = build_histogram([1, 2, 3, 4], cfg)
        assert h.counts == {Pattern((1, 2)): 3}
        assert h.n_windows == 3

        g = build_histogram([1, 2, 3, 4], cfg, "time-reverse")
        assert g.counts == {Pattern((2, 1)): 3}

    def test_negate_transform_with_ties(self):
        cfg = EmbeddingConfig(m=5)
        h = build_histogram([3, 1, 7, 1, 5], cfg, "negate")
        assert h.counts == {Pattern((3, 5, 1, 2, 2)): 1}

    def test_window_count_and_normalization(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        cfg = EmbeddingConfig(m=4, tau=3)
        h = build_histogram(x, cfg)
        assert h.n_windows == 500 - 3 * 3
        assert sum(h.counts.values()) == h.n_windows
        assert abs(sum(h.probabilities().values()) - 1.0) <= 1e-12

    def test_matches_scalar_extractor(self):
        # The vectorized path must agree with extract_pattern per window.
        rng = np.random.default_rng(1)
        x = np.round(rng.standard_normal(200), 1)  # plenty of ties
        for scheme in ("original", "equal-value"):
            cfg = EmbeddingConfig(m=4, tau=2, scheme=scheme)
            h = build_histogram(x, cfg)
            expected = {}
            for i in range(len(x) - 3 * 2):
                p = extract_pattern(x[i : i + 7 : 2], cfg)
                expected[p] = expected.get(p, 0) + 1
            assert h.counts == expected

    def test_errors(self):
        cfg = EmbeddingConfig(m=5, tau=2)
        with pytest.raises(SeriesTooShort):
            build_histogram([1, 2, 3, 4], cfg)
        with pytest.raises(NonFiniteSample):
            build_histogram([1, np.nan, 3, 4, 5, 6, 7, 8, 9], cfg)

    def test_unknown_transform_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="transform"):
            build_histogram([1.0, 2.0, 3.0], EmbeddingConfig(m=2), "mirror")

    def test_chunked_accumulation_merges_exactly(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 6, size=400).astype(float)
        cfg = EmbeddingConfig(m=3)
        whole = build_histogram(x, cfg)
        merged = {}
        # Disjoint window ranges [0, 200) and [200, 398).
        for lo, hi in ((0, 200), (200, 398)):
            part = build_histogram(x[lo : hi + 2], cfg)
            for p, c in part.counts.items():
                merged[p] = merged.get(p, 0) + c
        assert merged == whole.counts


class TestYsDivergence:
    def test_examples(self):
        assert ys_divergence(0.5, 0.5) == 0.0
        assert ys_divergence(0.3, 0.0) == 0.3
        assert ys_divergence(0.6, 0.2) == pytest.approx(0.3, abs=1e-15)

    def test_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = rng.uniform(0, 1, size=2)
            assert ys_divergence(a, b) == ys_divergence(b, a)
            assert ys_divergence(a, a) == 0.0
            assert ys_divergence(a, 0.0) == a
            assert 0.0 <= ys_divergence(a, b) <= max(a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            ys_divergence(1.2, 0.1)
        with pytest.raises(DomainError):
            ys_divergence(0.1, -0.2)
        with pytest.raises(DomainError):
            ys_divergence(np.array([0.25, 0.5]), np.array([0.5, np.nan]))

    def test_signed_zeros(self):
        # p_i is the first argument on a tie, as it always was.
        assert math.copysign(1.0, ys_divergence(-0.0, 0.0)) == -1.0
        assert math.copysign(1.0, ys_divergence(0.0, -0.0)) == 1.0

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(4)
        a = np.r_[rng.uniform(0, 1, 200), 0.0, 0.0, -0.0, 0.3]
        b = np.r_[rng.uniform(0, 1, 200), 0.0, -0.0, 0.0, 0.0]
        b[:50] = a[:50]
        ys = ys_divergence(a, b)
        assert isinstance(ys, np.ndarray) and ys.dtype == np.float64
        expected = [ys_divergence(u, v) for u, v in zip(a.tolist(), b.tolist())]
        assert all(isinstance(v, float) for v in expected)
        assert ys.tobytes() == np.array(expected).tobytes()
        assert ys_divergence(a, 0.0).tobytes() == a.tobytes()


class TestMeasure:
    @pytest.mark.parametrize("kind", ["TIR", "AIR"])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_increasing_series_is_totally_irreversible(self, kind, m):
        rep = measure(np.arange(1.0, 1001.0), EmbeddingConfig(m=m), kind)
        assert rep.value == 1.0
        assert rep.n_observed_patterns == 1
        assert rep.n_forbidden_counterparts == 1

    @pytest.mark.parametrize("kind", ["TIR", "AIR"])
    def test_constant_series_is_reversible(self, kind):
        rep = measure([7.0] * 200, EmbeddingConfig(m=4), kind)
        assert rep.value == 0.0
        assert rep.n_forbidden_counterparts == 0

    def test_unknown_kind_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="'PE'"):
            measure([1.0, 2.0, 3.0], EmbeddingConfig(m=2), "PE")

    def test_two_dimensional_series_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="one-dimensional"):
            measure(np.ones((10, 2)), EmbeddingConfig(m=2), "TIR")

    def test_alternating_series(self):
        x = [1, 2, 1, 2, 1, 2, 1, 2, 1]
        cfg = EmbeddingConfig(m=2)
        assert measure(x, cfg, "TIR").value == 0.0
        assert measure(x, cfg, "AIR").value == 0.0

    def test_pairs_sum_to_value(self):
        rng = np.random.default_rng(4)
        for kind in ("TIR", "AIR"):
            for scheme in ("original", "equal-value"):
                x = random_series_with_ties(rng, n=600)
                rep = measure(x, EmbeddingConfig(m=4, scheme=scheme), kind)
                assert sum(p.ys for p in rep.pairs) == pytest.approx(
                    rep.value, abs=1e-12
                )
                for pair in rep.pairs:
                    assert 0.0 <= pair.ys <= max(pair.p_forward,
                                                 pair.p_counterpart) + 1e-15

    def test_pair_counterparts_are_symmetric_map_images(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)  # tie-free
        tir = measure(x, EmbeddingConfig(m=3), "TIR")
        for pair in tir.pairs:
            if pair.counterpart != SAME_BIN:
                assert pair.counterpart == time_reverse_tie_free(pair.pattern)
        air = measure(x, EmbeddingConfig(m=3), "AIR")
        for pair in air.pairs:
            if pair.counterpart != SAME_BIN:
                assert pair.counterpart == amplitude_reverse(pair.pattern)

    def test_tied_tir_uses_dual_histogram_bins(self):
        x = [1, 1, 2, 1, 1, 3, 2, 2, 1, 3, 3, 1, 2]
        rep = measure(x, EmbeddingConfig(m=3), "TIR")
        assert all(p.counterpart == SAME_BIN for p in rep.pairs)
        assert sum(p.ys for p in rep.pairs) == pytest.approx(rep.value, abs=1e-12)

    def test_m2_coincidence(self):
        rng = np.random.default_rng(6)
        for scheme in ("original", "equal-value"):
            for _ in range(20):
                x = random_series_with_ties(rng, n=400)
                cfg = EmbeddingConfig(m=2, scheme=scheme)
                tir = measure(x, cfg, "TIR").value
                air = measure(x, cfg, "AIR").value
                assert abs(tir - air) <= 1e-12

    def test_series_reversal_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for tau in (1, 2):
            x = random_series_with_ties(rng, n=500)
            cfg = EmbeddingConfig(m=3, tau=tau)
            assert measure(x, cfg, "TIR").value == measure(x[::-1], cfg, "TIR").value

    def test_negation_symmetry_exact(self):
        rng = np.random.default_rng(8)
        x = random_series_with_ties(rng, n=500)
        cfg = EmbeddingConfig(m=3)
        assert measure(x, cfg, "AIR").value == measure(-x, cfg, "AIR").value
        assert measure(x, cfg, "TIR").value == measure(-x, cfg, "TIR").value

    def test_affine_invariance_exact(self):
        rng = np.random.default_rng(9)
        x = random_series_with_ties(rng, n=500)
        cfg = EmbeddingConfig(m=4)
        for kind in ("TIR", "AIR"):
            assert (
                measure(x, cfg, kind).value
                == measure(3.0 * x + 2.0, cfg, kind).value
            )

    def test_dual_histogram_consistency_tie_free(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(800)
        for scheme in ("original", "equal-value"):
            cfg = EmbeddingConfig(m=4, scheme=scheme)
            h = build_histogram(x, cfg)
            g_time = build_histogram(x, cfg, "time-reverse")
            g_neg = build_histogram(x, cfg, "negate")
            for p, c in g_time.counts.items():
                assert h.counts.get(time_reverse_tie_free(p), 0) == c
            for p, c in g_neg.counts.items():
                assert h.counts.get(amplitude_reverse(p), 0) == c

    def test_matches_oracle_on_random_tied_series(self):
        rng = np.random.default_rng(11)
        for scheme in ("original", "equal-value"):
            for kind in ("TIR", "AIR"):
                x = rng.integers(0, 4, size=120).astype(float)
                cfg = EmbeddingConfig(m=3, tau=2, scheme=scheme)
                assert measure(x, cfg, kind).value == pytest.approx(
                    measure_by_definition_oracle(x, cfg, kind), abs=1e-12
                )

    @pytest.mark.parametrize("kind", ["TIR", "AIR"])
    def test_matches_oracle_at_largest_m(self, kind):
        rng = np.random.default_rng(13)
        tie_free = rng.standard_normal(60)
        tied = rng.integers(0, 3, size=60).astype(float)
        for x in (tie_free, tied):
            for scheme in ("original", "equal-value"):
                cfg = EmbeddingConfig(m=15, scheme=scheme)
                assert measure(x, cfg, kind).value == \
                    measure_by_definition_oracle(x, cfg, kind)


@st.composite
def _series_and_config(draw):
    m = draw(st.integers(2, 15))
    tau = draw(st.integers(1, 3))
    n = (m - 1) * tau + draw(st.integers(1, 30))
    if draw(st.booleans()):
        samples = st.integers(-3, 3).map(float)  # tied
    else:
        samples = st.floats(-1e3, 1e3, allow_nan=False)
    x = np.array(draw(st.lists(samples, min_size=n, max_size=n)))
    cfg = EmbeddingConfig(
        m=m, tau=tau,
        scheme=draw(st.sampled_from(["original", "equal-value"])),
        tie_epsilon=draw(st.sampled_from([0.0, 0.5])),
    )
    return x, cfg


def _check_against_oracle(x, cfg):
    m, tau = cfg.m, cfg.tau
    windows = [list(x[i : i + (m - 1) * tau + 1 : tau])
               for i in range(len(x) - (m - 1) * tau)]
    transforms = {"identity": lambda w: w,
                  "time-reverse": lambda w: w[::-1],
                  "negate": lambda w: [-v for v in w]}
    for transform, apply in transforms.items():
        expected = Counter(
            _ordinal_labels(apply(w), cfg.scheme, cfg.tie_epsilon)
            for w in windows
        )
        h = build_histogram(x, cfg, transform)
        assert {p.labels: c for p, c in h.counts.items()} == expected
        assert h.n_tied_windows == sum(
            _window_tied(apply(w), cfg.tie_epsilon) for w in windows)
    for kind in ("TIR", "AIR"):
        assert measure(x, cfg, kind).value == \
            measure_by_definition_oracle(x, cfg, kind)


class TestEncoderAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_series_and_config())
    def test_histograms_and_values(self, case):
        _check_against_oracle(*case)

    @pytest.mark.parametrize("x, m, tie_epsilon", [
        # signed zeros compare equal
        ([0.0, -0.0, 0.0, 1.0, -0.0, -1.0, 0.0, -0.0], 3, 0.0),
        # ties chain: the ends of (0, 0.4, 0.8) lie more than 0.5 apart
        ([0.0, 0.4, 0.8, 0.1, 0.5, 2.0, 0.9, 0.45], 3, 0.5),
        # gaps between +-1e308 overflow to inf
        ([1e308, -1e308, 0.0, 1e308, -1e308, 1.0, -1e308], 3, 0.0),
        ([1e308, -1e308, 0.0, 1e308, -1e308, 1.0, -1e308], 3, 0.5),
        ([1e308, -1e308, 0.0, 1e308, -1e308, 1.0, -1e308], 3, math.inf),
        ([0.3, -2.0, 5.0, 0.3, 1.0, 7.0, -4.0, 2.5], 4, math.inf),
        (list(np.random.default_rng(17).standard_normal(40)), 15, 0.0),
        (list(np.round(np.random.default_rng(18).standard_normal(40))), 15, 0.0),
        (list(np.round(np.random.default_rng(19).standard_normal(40), 1)),
         15, 0.25),
    ])
    @pytest.mark.parametrize("scheme", ["original", "equal-value"])
    def test_fixed_cases(self, x, m, tie_epsilon, scheme):
        for tau in (1, 2):
            _check_against_oracle(np.array(x), EmbeddingConfig(
                m=m, tau=tau, scheme=scheme, tie_epsilon=tie_epsilon))


def _tie_free(n, seed):
    return np.random.default_rng(seed).permutation(n) / n


def _one_tied_window(n):
    # A tie at lag 2 and tau 1 lies in exactly one m=3 window.
    x = _tie_free(n, 5)
    x[7] = x[5]
    return x


def _logistic(n):
    return generate(ModelSpec("logistic", n))


_RNG = np.random.default_rng(23)
# name: (series, m, scheme, tie_epsilon, delays).
_PATH_CASES = {
    **{f"tie-free m={m}": (
        _tie_free(math.factorial(m) + 3 * (m - 1) if m <= 6 else 80, m), m,
        "equal-value", 0.0, (1, 2, 3)) for m in range(2, 16)},
    "tie-free m=7, m! windows": (_logistic(5060), 7, "equal-value", 0.0, (1,)),
    "one tied window": (_one_tied_window(40), 3, "equal-value", 0.0, (1,)),
    "one tied window, original": (_one_tied_window(40), 3, "original", 0.0,
                                  (1,)),
    "ties, original": (_RNG.integers(0, 4, 300).astype(float), 4, "original",
                       0.0, (1, 2, 3)),
    "signed zeros, original": (_RNG.choice([0.0, -0.0, 1.0, -1.0], 300), 3,
                               "original", 0.0, (1, 2, 3)),
    "signed zeros, equal-value": (_RNG.choice([0.0, -0.0, 1.0, -1.0], 300), 3,
                                  "equal-value", 0.0, (1, 2, 3)),
    "epsilon, no tie within it": (_tie_free(400, 7), 4, "equal-value", 1e-3,
                                  (1, 2, 3)),
    "epsilon, ties within it": (_tie_free(400, 7), 4, "equal-value", 0.01,
                                (1, 2, 3)),
    "epsilon, original": (_tie_free(400, 7), 4, "original", 0.01, (1, 2, 3)),
}


def _derived(fwd, transform):
    """Codes and counts of ``fwd``'s series under ``transform`` as a report
    pairs them without encoding that series: decoded from the forward keys,
    or the tie-free codes under the code-level map."""
    if fwd._keys is not None:
        return ordinal._key_histogram(*fwd._keys, fwd.config, fwd.n_windows,
                                      transform)
    assert fwd.n_tied_windows == 0
    mapped = {"identity": lambda codes, m: codes,
              "time-reverse": ordinal._complemented_codes,
              "negate": ordinal._reversed_codes}[transform](fwd.codes,
                                                            fwd.config.m)
    order = np.argsort(mapped)
    return mapped[order], fwd.code_counts[order]


def _assert_derived_histograms(x, cfg):
    fwd = build_histogram(x, cfg)
    for transform in ("identity", "time-reverse", "negate"):
        codes, counts = _derived(fwd, transform)
        expected = (fwd if transform == "identity"
                    else build_histogram(x, cfg, transform))
        assert codes.tolist() == expected.codes.tolist(), transform
        assert counts.tolist() == expected.code_counts.tolist(), transform


class TestEncoderPaths:
    @pytest.fixture()
    def tables(self, monkeypatch):
        """Names of the key tables asked for, in call order."""
        calls = []
        for name in ("_lehmer_table", "_order_table"):
            def counting(m, real=getattr(ordinal, name), name=name):
                calls.append(name)
                return real(m)

            monkeypatch.setattr(ordinal, name, counting)
        return calls

    @pytest.mark.parametrize("case", _PATH_CASES)
    def test_histograms_values_and_windows_agree_with_oracle(self, case, tables):
        x, m, scheme, eps, delays = _PATH_CASES[case]
        for tau in delays:
            cfg = EmbeddingConfig(m=m, tau=tau, scheme=scheme, tie_epsilon=eps)
            tables.clear()
            h = build_histogram(x, cfg)
            # A table of all m! keys is used iff there are at least m!
            # windows: pattern codes for tie-free data, stable orders else.
            assert tables == ([] if h.n_windows < math.factorial(m) else
                              ["_order_table" if h.n_tied_windows
                               else "_lehmer_table"])
            _check_against_oracle(x, cfg)
            for i in range(min(40, len(x) - (m - 1) * tau)):
                w = x[i : i + (m - 1) * tau + 1 : tau]
                assert extract_pattern(w, dataclasses.replace(cfg, tau=1)).labels == \
                    _ordinal_labels(list(w), scheme, eps)

    @pytest.mark.parametrize("m, tau", [(8, 2), (8, 3), (9, 2), (9, 3)])
    @pytest.mark.parametrize("scheme", ["original", "equal-value"])
    @pytest.mark.parametrize("tie_epsilon", [0.0, 0.5, 1.0])
    def test_digit_decode_at_large_m(self, m, tau, scheme, tie_epsilon, tables):
        # Fewer than m! windows: the distinct keys are decoded from their
        # Lehmer digits, also under the original scheme, with no table.
        x = np.random.default_rng(10 * m + tau).integers(0, 3, 90).astype(float)
        cfg = EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                              tie_epsilon=tie_epsilon)
        build_histogram(x, cfg)
        assert not tables
        _check_against_oracle(x, cfg)

    @pytest.mark.parametrize("tie_epsilon", [1e-3, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("scheme", ["original", "equal-value"])
    def test_tie_epsilon_on_the_table_path(self, tie_epsilon, m, scheme):
        # Chained tie groups whose columns do not ascend: an equal-value
        # label is the group's lowest column, found by a running min.
        x = np.round(np.random.default_rng(27).standard_normal(200), 1)
        _check_against_oracle(x, EmbeddingConfig(
            m=m, scheme=scheme, tie_epsilon=tie_epsilon))

    @pytest.mark.parametrize("kind, scheme", [
        ("TIR", "equal-value"), ("TIR", "original"), ("AIR", "original")])
    @pytest.mark.parametrize("tie_epsilon", [0.0, 0.5])
    def test_window_passes_of_a_tied_report(self, monkeypatch, kind, scheme,
                                            tie_epsilon):
        # For eps = 0 the forward keys fix the transformed windows too; for
        # eps > 0 the transformed series is encoded as well.
        encoded = []
        real = measures._histogram

        def recording(x, config):
            encoded.append(x.copy())
            return real(x, config)

        monkeypatch.setattr(measures, "_histogram", recording)
        x = np.round(np.random.default_rng(25).standard_normal(400), 1)
        cfg = EmbeddingConfig(m=4, scheme=scheme, tie_epsilon=tie_epsilon)
        value = measure(x, cfg, kind).value
        transformed = x[::-1] if kind == "TIR" else -x
        assert [e.tolist() for e in encoded] == (
            [x.tolist()] if tie_epsilon == 0 else
            [x.tolist(), transformed.tolist()])
        assert value == measure_by_definition_oracle(x, cfg, kind)

    @pytest.mark.parametrize("scheme", ["original", "equal-value"])
    def test_keys_stay_inside_int64_at_m_15(self, scheme):
        assert math.factorial(15) << 15 < 2**63
        rng = np.random.default_rng(26)
        falling = np.repeat(np.arange(12.0, 0.0, -1.0), 2)  # top Lehmer keys
        for x in (falling, -falling, np.round(rng.standard_normal(60))):
            cfg = EmbeddingConfig(m=15, scheme=scheme)
            keys = build_histogram(x, cfg)._keys[0]
            assert keys.dtype == np.int64 and keys.min() >= 0
            assert (keys >> 15).max() < math.factorial(15)
            _check_against_oracle(x, cfg)
            _assert_derived_histograms(x, cfg)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_lehmer_table_translates_every_key(self, m):
        table = ordinal._lehmer_table(m)
        assert table.tolist() == ordinal._key_codes(
            np.arange(math.factorial(m)), m).tolist()
        assert not table.flags.writeable
        assert ordinal._lehmer_table(m) is table

    def test_no_table_for_fewer_windows_than_patterns(self, monkeypatch):
        built = []
        real = ordinal._key_codes

        def recording(keys, m):
            built.append((m, len(keys)))
            return real(keys, m)

        monkeypatch.setattr(ordinal, "_key_codes", recording)
        monkeypatch.setattr(ordinal, "_lehmer_table", functools.cache(
            ordinal._lehmer_table.__wrapped__))
        x = _tie_free(5046, 3)  # 5040 = 7! windows at m = 7
        for m, series in ((7, x[:-1]), (8, x), (9, x)):
            build_histogram(series, EmbeddingConfig(m=m))
        assert built == []
        for _ in range(2):
            build_histogram(x, EmbeddingConfig(m=7))
        assert built == [(7, 5040)]
        assert ordinal._lehmer_table(7).nbytes <= x.nbytes

    @pytest.mark.parametrize("m", range(2, 16))
    def test_key_translation_matches_the_label_order(self, m):
        # Keys in the factorial number system, decoded by hand: digit c_j,
        # of weight (m - 1 - j)!, is the number of later samples that sort
        # before sample j, so sample j goes in at c_j among the later ones.
        keys = (np.arange(math.factorial(m)) if m <= 6 else np.unique(
            np.random.default_rng(m).integers(0, math.factorial(m), 300)))
        expected = []
        for key in keys.tolist():
            digits = []
            for j in range(m):
                digit, key = divmod(key, math.factorial(m - 1 - j))
                digits.append(digit)
            order = []  # positions in ascending value order
            for j in reversed(range(m)):
                order.insert(digits[j], j)
            window = [order.index(pos) for pos in range(m)]
            labels = _ordinal_labels(window, "original", 0.0)
            expected.append(ordinal._pattern_code(labels, m, labels))
        assert ordinal._key_codes(keys, m).tolist() == expected


_TRANSFORM_DATA = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "0..2": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "0..1": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "rounded": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "signed zeros": lambda rng, n: (rng.integers(-2, 3, n)
                                    * rng.choice([1.0, -1.0], n)),
}


class TestTransformsFromForwardKeys:
    @pytest.mark.parametrize("data", _TRANSFORM_DATA)
    @pytest.mark.parametrize("scheme", ["original", "equal-value"])
    def test_equal_the_histograms_of_the_transformed_series(self, data, scheme):
        rng = np.random.default_rng(len(data))
        for n in (1, 5, 20, 100, 1000, 6000):
            x = _TRANSFORM_DATA[data](rng, n + 20)
            for m, tau in itertools.product(range(2, 10), (1, 2, 3)):
                if len(x) <= (m - 1) * tau:
                    continue
                cfg = EmbeddingConfig(m=m, tau=tau, scheme=scheme)
                _assert_derived_histograms(x, cfg)
                if n <= 20:
                    assert {p.labels: c for p, c in
                            build_histogram(x, cfg).counts.items()} == Counter(
                        _ordinal_labels(list(x[i : i + (m - 1) * tau + 1 : tau]),
                                        scheme, 0.0)
                        for i in range(len(x) - (m - 1) * tau))


@st.composite
def _report_case(draw):
    m = draw(st.integers(2, 7))
    tau = draw(st.integers(1, 3))
    n = (m - 1) * tau + draw(st.integers(1, 300))
    if draw(st.booleans()):
        samples = st.lists(st.integers(-3, 3).map(float), min_size=n,
                           max_size=n)  # tied
    else:
        samples = st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                           min_size=n, max_size=n, unique=True)
    cfg = EmbeddingConfig(
        m=m, tau=tau,
        scheme=draw(st.sampled_from(["original", "equal-value"])),
        tie_epsilon=draw(st.sampled_from([0.0, 0.5])),
    )
    return np.array(draw(samples)), cfg


class TestReportAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_report_case(), st.sampled_from(["TIR", "AIR"]))
    def test_whole_report(self, case, kind):
        # Value, counts and every pair (patterns, order, floats) agree with
        # the dict-based decomposition.
        x, cfg = case
        assert measure(x, cfg, kind) == reference_measure(x, cfg, kind)

    def test_histogram_arrays_in_label_order(self):
        x = np.round(np.random.default_rng(16).standard_normal(400), 1)
        h = build_histogram(x, EmbeddingConfig(m=4, tau=2))
        assert np.all(np.diff(h.codes) > 0)
        assert h.patterns == sorted(h.counts, key=lambda p: p.labels)
        assert h.code_counts.tolist() == [h.counts[p] for p in h.patterns]


def _tied_series(n=20000, seed=21):
    return np.round(np.random.default_rng(seed).standard_normal(n), 1)


class TestObjectsBuiltOnRead:
    @pytest.fixture()
    def built(self, monkeypatch):
        """Counts of ``_decode`` calls and of ``PairContribution``s made."""
        calls = Counter()
        decode, init = ordinal._decode, PairContribution.__init__

        def counting_decode(*args):
            calls["decode"] += 1
            return decode(*args)

        def counting_init(self, *args, **kwargs):
            calls["pairs"] += 1
            init(self, *args, **kwargs)

        for module in (ordinal, measures):
            monkeypatch.setattr(module, "_decode", counting_decode)
        monkeypatch.setattr(PairContribution, "__init__", counting_init)
        return calls

    def test_measure_and_sweep_build_no_objects(self, built):
        x = _tied_series()
        cfg = EmbeddingConfig(m=7)
        reports = [measure(x, cfg, k) for k in ("TIR", "AIR")]
        reports += sweep(x, [7], [1])
        h = build_histogram(x, cfg)
        assert len(h.counts) == len(h.codes) > 1000
        assert all(len(r.pairs) > 1000 for r in reports)
        assert built == {}
        # Reading them builds them, once.
        assert reports[0].pairs[0].pattern.m == 7
        assert list(reports[0].pairs) == reports[0].pairs[:]
        assert built == {"decode": 1, "pairs": len(reports[0].pairs)}
        assert h.patterns[0] in h.counts
        assert built["decode"] == 2


class TestPairTableAndCounts:
    def _report_and_reference(self):
        x = np.round(np.random.default_rng(22).standard_normal(3000))
        cfg = EmbeddingConfig(m=4)
        return measure(x, cfg, "AIR"), reference_pairs(x, cfg, "AIR")

    def test_sequence_protocol(self):
        report, ref = self._report_and_reference()
        pairs = report.pairs
        assert isinstance(pairs, PairTable) and isinstance(ref, list)
        assert len(pairs) == len(ref) > 10
        assert pairs[0] == ref[0] and pairs[-1] == ref[-1]
        assert pairs[3:7] == ref[3:7] and pairs[::-2] == ref[::-2]
        assert list(pairs) == ref and [p for p in pairs] == ref
        assert pairs.index(ref[5]) == 5 and ref[2] in pairs
        assert any(p.counterpart == SAME_BIN for p in pairs)
        assert any(p.counterpart != SAME_BIN for p in pairs)
        with pytest.raises(IndexError):
            pairs[len(ref)]

    def test_equality_with_lists_and_tables(self):
        report, ref = self._report_and_reference()
        pairs = report.pairs
        assert list(pairs) == ref and ref == list(pairs)
        assert not list(pairs) != ref and not ref != list(pairs)
        assert list(pairs) != ref[:-1] and ref[:-1] != list(pairs)
        assert pairs != ref and pairs != tuple(ref)

        def table(**columns):
            base = dict(codes=pairs.codes,
                        counterpart_codes=pairs.counterpart_codes,
                        p_forward=pairs.p_forward,
                        p_counterpart=pairs.p_counterpart, ys=pairs.ys)
            base.update(columns)
            return PairTable(pairs.m, pairs.scheme, **base)

        assert table() == pairs and pairs == table()
        assert table(p_forward=pairs.p_forward.tolist()) == pairs
        ys = pairs.ys.copy()
        ys[3] = np.nextafter(ys[3], 1.0)
        assert table(ys=ys) != pairs and pairs != table(ys=ys)
        assert table(ys=ys.tolist()) != pairs
        paired = np.flatnonzero(pairs.counterpart_codes >= 0)[0]
        counterparts = pairs.counterpart_codes.copy()
        counterparts[paired] = -1
        assert table(counterpart_codes=counterparts) != pairs
        assert list(table(counterpart_codes=counterparts)) != ref
        other = PairTable(pairs.m, "original", pairs.codes,
                          pairs.counterpart_codes, pairs.p_forward,
                          pairs.p_counterpart, pairs.ys)
        assert other != pairs and list(other) != ref
        empty = PairTable(5, "original", [], [], [], [], [])
        assert empty == PairTable(3, "equal-value", [], [], [], [], [])
        assert list(empty) == []

    def test_counts_mapping(self):
        x = _tied_series(3000, 23)
        h = build_histogram(x, EmbeddingConfig(m=3))
        expected = dict(zip(h.patterns, h.code_counts.tolist()))
        assert h.counts == expected and expected == h.counts
        assert len(h.counts) == len(expected)
        p = h.patterns[-1]
        assert h.counts[p] == expected[p] and p in h.counts
        assert h.probability(p) == expected[p] / h.n_windows
        tied = Pattern((1, 1, 1))
        assert tied in h.counts and h.probability(tied) > 0
        foreign = [Pattern((1, 1, 1), "original"), Pattern((1, 1, 1, 1)),
                   Pattern((1, 1)),
                   Pattern((0, 5, 1)),  # same code as (1, 1, 1)
                   (1, 1, 1), "1,1,1"]
        for q in foreign:
            assert q not in h.counts and h.counts.get(q, 0) == 0
            with pytest.raises(KeyError):
                h.counts[q]
        for q in foreign[:4]:
            assert h.probability(q) == 0
        assert h.probabilities() == {q: c / h.n_windows
                                     for q, c in expected.items()}
        assert h == build_histogram(list(x), EmbeddingConfig(m=3))
        assert h != build_histogram(x[1:], EmbeddingConfig(m=3))
        assert h != build_histogram(x, EmbeddingConfig(m=3), "negate")


class TestHandBuiltPairs:
    """Pairs given as a list become a checked table of float64 columns."""

    P, Q = Pattern((1, 2, 3)), Pattern((3, 2, 1))

    def _report(self, *pairs):
        report = measure(np.arange(6.0), EmbeddingConfig(m=3), "TIR")
        return dataclasses.replace(report, pairs=list(pairs))

    def test_list_becomes_float64_table(self):
        p, q = self.P, self.Q
        report = self._report(
            PairContribution(p, q, 1, True, np.float64(0.25)),
            PairContribution(q, SAME_BIN, np.int64(0), False, np.float32(0.5)))
        pairs = report.pairs
        assert isinstance(pairs, PairTable)
        for column in (pairs.p_forward, pairs.p_counterpart, pairs.ys):
            assert column.dtype == np.float64 and column.shape == (2,)
        assert pairs.counterpart_codes[1] == -1
        assert list(pairs) == [PairContribution(p, q, 1.0, 1.0, 0.25),
                               PairContribution(q, SAME_BIN, 0.0, 0.0, 0.5)]
        assert all(type(v) is float for pair in pairs
                   for v in (pair.p_forward, pair.p_counterpart, pair.ys))
        assert self._report(*pairs) == report
        assert self._report().pairs == PairTable(3, "equal-value",
                                                 [], [], [], [], [])

    @pytest.mark.parametrize("labels", [(9, 9, 9), (1, 2), (0, 1, 2),
                                        (1, 2, 3, 1)])
    @pytest.mark.parametrize("field", ["pattern", "counterpart"])
    def test_labels_not_in_1_to_m_are_invalid_pattern(self, labels, field):
        pair = dataclasses.replace(PairContribution(self.P, self.Q, 0.5, 0.5, 0.0),
                                   **{field: Pattern(labels)})
        with pytest.raises(InvalidPattern, match="labels in 1..3"):
            self._report(pair)

    @pytest.mark.parametrize("pattern, counterpart", [
        (SAME_BIN, SAME_BIN),
        (SAME_BIN, Q),
        (Pattern((1, 2, 3), "original"), SAME_BIN),
        (P, Pattern((3, 2, 1), "original")),
        ((1, 2, 3), SAME_BIN),
        ("1,2,3", Q),
        (P, "1,2,3"),
        (P, None),
    ])
    def test_other_patterns_are_invalid_pattern(self, pattern, counterpart):
        with pytest.raises(InvalidPattern, match="of scheme 'equal-value'"):
            self._report(PairContribution(pattern, counterpart, 0.5, 0.5, 0.0))

    @pytest.mark.parametrize("value", [None, "0.5", [1], 1j, 2**70])
    @pytest.mark.parametrize("alone", [True, False])
    def test_values_not_bools_ints_or_floats_are_invalid_params(self, value,
                                                                 alone):
        pairs = [PairContribution(self.P, SAME_BIN, 0.5, value, 0.0)]
        if not alone:
            pairs.append(PairContribution(self.Q, SAME_BIN, 0.5, 0.5, 0.0))
        with pytest.raises(InvalidParams, match="p_counterpart must be"):
            self._report(*pairs)

    def test_columns_of_other_lengths_are_invalid_params(self):
        with pytest.raises(InvalidParams, match="ys must be"):
            PairTable(3, "equal-value", [5], [-1], [0.5], [0.5], [0.0, 1.0])
        with pytest.raises(InvalidParams, match="p_forward must be"):
            PairTable(3, "equal-value", [5], [-1], 0.5, [0.5], [0.0])

    @pytest.mark.parametrize("codes, counterpart_codes, name", [
        ([5, 6], [7], "counterpart_codes"),        # shorter
        ([5], [7, 8], "counterpart_codes"),        # longer
        ([5], [], "counterpart_codes"),            # empty beside one code
        ([], [7], "counterpart_codes"),
        ([5], [[7]], "counterpart_codes"),         # 2-D
        ([[5]], [7], "codes"),
        (np.array([[5, 6]]), [7, 8], "codes"),
        (5, 7, "codes"),                           # 0-D
        ([5], 7, "counterpart_codes"),
        ([5.0], [7], "codes"),                     # not integers
        ([5], [7.0], "counterpart_codes"),
        ([True], [7], "codes"),
        (["5"], [7], "codes"),
        ([5], [None], "counterpart_codes"),
        ([[5], [6, 7]], [7, 8], "codes"),          # ragged
    ])
    def test_code_columns_of_other_shapes_are_invalid_params(
            self, codes, counterpart_codes, name):
        n = 2 if isinstance(codes, np.ndarray) else 1
        with pytest.raises(InvalidParams, match=f"^{name} must be a 1-D"):
            PairTable(3, "original", codes, counterpart_codes, [0.1] * n,
                      [0.1] * n, [0.0] * n)

    def test_integer_code_columns_are_int64(self):
        pairs = PairTable(3, "original", np.array([5, 6], dtype=np.uint8),
                          np.array([7, -1], dtype=np.int32), [0.1, 0.2],
                          [0.1, 0.2], [0, 0])
        assert pairs.codes.dtype == pairs.counterpart_codes.dtype == np.int64
        assert len(pairs) == len(list(pairs)) == 2


class TestReportFields:
    """A report stores a float value and int counts, or raises InvalidParams."""

    def _report(self, **fields):
        report = measure(np.arange(6.0), EmbeddingConfig(m=3), "TIR")
        return dataclasses.replace(report, **fields)

    @pytest.mark.parametrize("value, stored", [
        (1, 1.0), (True, 1.0), (np.float32(0.5), 0.5), (np.int64(-3), -3.0),
        (np.bool_(False), 0.0), (float("nan"), None), (2**70, 2.0**70)])
    def test_value_is_stored_as_float(self, value, stored):
        report = self._report(value=value)
        assert type(report.value) is float
        assert report.value == stored or stored is None

    @pytest.mark.parametrize("count, stored", [
        (8, 8), (np.int64(8), 8), (np.uint8(8), 8), (8.0, 8),
        (np.float32(8), 8), (True, 1), (np.bool_(True), 1), (0, 0),
        (2**70, 2**70)])
    @pytest.mark.parametrize("name", ["n_observed_patterns",
                                      "n_forbidden_counterparts", "n_windows"])
    def test_counts_are_stored_as_ints(self, name, count, stored):
        report = self._report(**{name: count})
        assert type(getattr(report, name)) is int
        assert getattr(report, name) == stored

    @pytest.mark.parametrize("value", [None, "0.5", [0.5], 1j, 10**400,
                                       np.complex128(1),
                                       np.array([0.5])])
    def test_bad_value_is_invalid_params(self, value):
        with pytest.raises(InvalidParams, match="value must be"):
            self._report(value=value)

    @pytest.mark.parametrize("count", [None, "8", -1, np.int64(-1), 8.5,
                                       float("nan"), float("inf"), [8]])
    @pytest.mark.parametrize("name", ["n_observed_patterns",
                                      "n_forbidden_counterparts", "n_windows"])
    def test_bad_count_is_invalid_params(self, name, count):
        with pytest.raises(InvalidParams, match=f"{name} must be"):
            self._report(**{name: count})

    @pytest.mark.parametrize("kind", ["tir", "XYZ", None])
    def test_bad_kind_is_invalid_params(self, kind):
        with pytest.raises(InvalidParams, match="kind must be"):
            self._report(kind=kind)


class TestReportBytes:
    # sha256 of the report document of one TIR and one AIR report at m=5,
    # tau=2. The schema "1" digests were frozen from the dict-based
    # decomposition; the "1" texts, rendered by the oracle, are the reader
    # fixtures of the "2" digests.
    V1_DIGESTS = {
        ("tied", "equal-value"):
            "61e6eeca0cc45513f2d51f7718d74147a67a06f9a0afe50bce05ce824ad0d52c",
        ("tied", "original"):
            "12e405688933bcd64210e64a5cdf64ef6a80f30b5394d170e7e4ac4aaa1af900",
        ("logistic", "equal-value"):
            "ab91e5fde04ed5236aab6c16abca5d200b4018a57690bca841e61ff65e37274c",
        ("logistic", "original"):
            "e582cc23e0c96d25a6a8db8c46d9275f2bb824269431f24bebd0108f410afe47",
    }
    DIGESTS = {
        ("tied", "equal-value"):
            "7086ece884a0f2a49f2061bf540d95f358b32de6f2325651e152e8d74fc6cb48",
        ("tied", "original"):
            "a9f5bf4204ad4bac9fa7c3b52e8b8f7df0bd5de66014d069d5c9ec1bb080ba97",
        ("logistic", "equal-value"):
            "1dae2aa3a3bbcb5c599a4179f362bee56f5d0dd40387de890a5157af3dddcbc3",
        ("logistic", "original"):
            "05d714dd0ebc4f8a2bc6622de56ec9f6b8f6082a573601a1983fcc385f559de9",
    }

    @pytest.mark.parametrize("name, scheme", sorted(DIGESTS))
    def test_report_bytes_are_frozen(self, tmp_path, name, scheme):
        if name == "tied":
            x = np.round(np.random.default_rng(7).standard_normal(5000), 1)
        else:
            x = generate(ModelSpec("logistic", 5000))
        cfg = EmbeddingConfig(m=5, tau=2, scheme=scheme)
        doc = ReportDocument(provenance={"case": name},
                             reports=[measure(x, cfg, k) for k in ("TIR", "AIR")])
        path = tmp_path / "report.json"
        write_report(doc, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[(name, scheme)]

        v1 = tmp_path / "report-v1.json"
        v1.write_text(reference_report_text(
            dataclasses.replace(doc, schema_version="1")), encoding="utf-8")
        digest = hashlib.sha256(v1.read_bytes()).hexdigest()
        assert digest == self.V1_DIGESTS[(name, scheme)]
        back = read_report(str(v1))
        assert back.schema_version == "1"
        assert back.reports == doc.reports and back.provenance == doc.provenance
        rewritten = tmp_path / "rewritten.json"
        write_report(dataclasses.replace(back, schema_version="2"),
                     str(rewritten))
        assert rewritten.read_bytes() == path.read_bytes()


class TestHistogramDigest:
    # sha256 over (codes, code_counts, n_windows, n_tied_windows) of every
    # paper-scale histogram below; frozen from the argsort encoder.
    DIGEST = "d0c5ea40bb6b139b00c063938c1c734b8b5b90134d7495402bb0349bf807524b"

    def test_paper_scale_histograms_are_frozen(self, logistic_series):
        gaussian = generate(ModelSpec("gaussian", len(logistic_series),
                                      params={"seed": 1}))
        digest = hashlib.sha256()
        for x, m, tau, scheme, eps, transform in itertools.product(
                (logistic_series, np.round(gaussian, 1)), range(2, 8), (1, 2),
                ("original", "equal-value"), (0.0, 0.05),
                ("identity", "time-reverse", "negate")):
            cfg = EmbeddingConfig(m=m, tau=tau, scheme=scheme, tie_epsilon=eps)
            h = build_histogram(x, cfg, transform)
            digest.update(h.codes.astype("<i8").tobytes())
            digest.update(h.code_counts.astype("<i8").tobytes())
            digest.update(f"{h.n_windows} {h.n_tied_windows};".encode())
        assert digest.hexdigest() == self.DIGEST


class TestForwardHistogramOnce:
    @pytest.fixture()
    def transforms(self, monkeypatch):
        seen = []
        real = measures.build_histogram

        def counting(series, config, transform="identity"):
            seen.append(transform)
            return real(series, config, transform)

        monkeypatch.setattr(measures, "build_histogram", counting)
        return seen

    def test_measure_converts_a_list_once(self, monkeypatch):
        given = []
        real = measures.build_histogram

        def recording(series, config, transform="identity"):
            given.append(series)
            return real(series, config, transform)

        monkeypatch.setattr(measures, "build_histogram", recording)
        x = [float(v) for v in np.round(np.random.default_rng(24)
                                        .standard_normal(300))]
        # tie_epsilon > 0, so that the time-reversed series is encoded too.
        measure(x, EmbeddingConfig(m=4, tie_epsilon=0.5), "TIR")
        sweep(x, [3], [1], kinds=["TIR"], tie_epsilon=0.5)
        assert len(given) == 4
        assert all(isinstance(s, np.ndarray) for s in given)
        assert given[0] is given[1] and given[2] is given[3]

    @pytest.mark.parametrize("kind, scheme, tied, expected", [
        ("TIR", "equal-value", False, ["identity"]),
        ("TIR", "original", False, ["identity"]),
        ("AIR", "equal-value", False, ["identity"]),
        ("AIR", "original", False, ["identity"]),
        ("AIR", "equal-value", True, ["identity"]),
        ("TIR", "equal-value", True, ["identity"]),
        ("TIR", "original", True, ["identity"]),
        ("AIR", "original", True, ["identity"]),
    ])
    def test_measure(self, transforms, kind, scheme, tied, expected):
        x = np.random.default_rng(14).standard_normal(300)
        if tied:
            x = np.round(x)
        measure(x, EmbeddingConfig(m=4, scheme=scheme), kind)
        assert transforms == expected

    def test_sweep_tie_free(self, transforms):
        x = np.random.default_rng(15).standard_normal(300)
        reports = sweep(x, range(2, 5), range(1, 3))
        assert len(reports) == 2 * 3 * 2
        assert transforms == ["identity"] * (3 * 2)


class TestSweep:
    def test_cardinality_and_order(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(300)
        reports = sweep(x, range(2, 4), range(1, 3))
        assert len(reports) == 8
        cells = [(r.kind, r.config.m, r.config.tau) for r in reports]
        assert cells == [
            ("TIR", 2, 1), ("TIR", 2, 2), ("TIR", 3, 1), ("TIR", 3, 2),
            ("AIR", 2, 1), ("AIR", 2, 2), ("AIR", 3, 1), ("AIR", 3, 2),
        ]

    def test_constant_series_all_zero(self):
        reports = sweep([1.0] * 100, range(2, 5), range(1, 3))
        assert all(r.value == 0.0 for r in reports)

    def test_unknown_kind_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="'tir'"):
            sweep([1.0, 2.0, 3.0], [2], [1], kinds=["TIR", "tir"])

    def test_cell_error_is_identified(self):
        with pytest.raises(SeriesTooShort, match="kind=TIR m=5 tau=2"):
            sweep([1, 2, 3, 4], [5], [2], kinds=["TIR"])

    def test_logistic_trend(self, logistic_series):
        reports = sweep(logistic_series[:20000], range(3, 6), [1])
        tir = {r.config.m: r.value for r in reports if r.kind == "TIR"}
        air = {r.config.m: r.value for r in reports if r.kind == "AIR"}
        for m in (3, 4, 5):
            assert tir[m] > air[m]


@pytest.mark.parametrize("h, g, value", [
    ([4 * 10**9, 0], [0, 4 * 10**9], 1.0),
    ([3 * 10**9, 10**9, 0], [10**9, 0, 3 * 10**9], 0.6875)])
def test_exact_value_beyond_int64_numerators(h, g, value):
    # Counts past 2**30 windows: the numerator sums no longer fit in int64.
    n = sum(h)
    assert measures._exact_value(np.array(h), np.array(g), n) == value


@pytest.mark.parametrize("seed", range(4))
def test_exact_value_is_the_fraction_sum_rounded_once(seed):
    # One Fraction per term, reduced at every step, rounded once at the end.
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 60, size=400) * rng.integers(0, 2, size=400)
    g = rng.permutation(h)
    h, g = h[h + g > 0], g[h + g > 0]  # every code of a support has a count
    n = int(h.sum())
    expected = sum(Fraction(int(max(a, b)) * int(abs(a - b)), int(a + b))
                   for a, b in zip(h, g)) / (2 * n)
    assert measures._exact_value(h, g, n) == float(expected)
