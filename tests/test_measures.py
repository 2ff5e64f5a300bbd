import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irrev import (
    DomainError,
    EmbeddingConfig,
    ModelSpec,
    NonFiniteSample,
    Pattern,
    SeriesTooShort,
    amplitude_reverse,
    build_histogram,
    generate,
    measure,
    sweep,
    time_reverse_tie_free,
    ys_divergence,
)
from irrev import measures
from irrev.io import ReportDocument, write_report
from irrev.measures import SAME_BIN

from conftest import random_series_with_ties
from oracle import (_ordinal_labels, measure_by_definition_oracle,
                    reference_measure)


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
        from irrev import extract_pattern

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


class TestEncoderAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_series_and_config())
    def test_histograms_and_values(self, case):
        x, cfg = case
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
            counts = build_histogram(x, cfg, transform).counts
            assert {p.labels: c for p, c in counts.items()} == expected
        for kind in ("TIR", "AIR"):
            assert measure(x, cfg, kind).value == \
                measure_by_definition_oracle(x, cfg, kind)


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


class TestReportBytes:
    # sha256 of the report document of one TIR and one AIR report at m=5,
    # tau=2; frozen from the dict-based decomposition.
    DIGESTS = {
        ("tied", "equal-value"):
            "61e6eeca0cc45513f2d51f7718d74147a67a06f9a0afe50bce05ce824ad0d52c",
        ("tied", "original"):
            "12e405688933bcd64210e64a5cdf64ef6a80f30b5394d170e7e4ac4aaa1af900",
        ("logistic", "equal-value"):
            "ab91e5fde04ed5236aab6c16abca5d200b4018a57690bca841e61ff65e37274c",
        ("logistic", "original"):
            "e582cc23e0c96d25a6a8db8c46d9275f2bb824269431f24bebd0108f410afe47",
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

    @pytest.mark.parametrize("kind, scheme, tied, expected", [
        ("TIR", "equal-value", False, ["identity"]),
        ("TIR", "original", False, ["identity"]),
        ("AIR", "equal-value", False, ["identity"]),
        ("AIR", "original", False, ["identity"]),
        ("AIR", "equal-value", True, ["identity"]),
        ("TIR", "equal-value", True, ["identity", "time-reverse"]),
        ("TIR", "original", True, ["identity", "time-reverse"]),
        ("AIR", "original", True, ["identity", "negate"]),
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

    def test_cell_error_is_identified(self):
        with pytest.raises(SeriesTooShort, match="kind=TIR m=5 tau=2"):
            sweep([1, 2, 3, 4], [5], [2], kinds=["TIR"])

    def test_logistic_trend(self, logistic_series):
        reports = sweep(logistic_series[:20000], range(3, 6), [1])
        tir = {r.config.m: r.value for r in reports if r.kind == "TIR"}
        air = {r.config.m: r.value for r in reports if r.kind == "AIR"}
        for m in (3, 4, 5):
            assert tir[m] > air[m]
