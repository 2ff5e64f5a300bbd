import hashlib
import os
from pathlib import Path
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import irrev

from irrev import (
    DegenerateSeries,
    DomainError,
    EmbeddingConfig,
    EmptyInput,
    IaaftParams,
    InvalidParams,
    NonFiniteSample,
    SeriesTooShort,
    iaaft,
    measure,
    percentile_band,
    percentile_nearest_rank,
    significance_test,
    significance_tests,
)
from irrev import surrogates
from irrev.surrogates import _ranks, ensemble_values, mix_seed


@pytest.fixture(scope="module")
def gaussian_4096():
    return np.random.default_rng(99).standard_normal(4096)


class TestIaaft:
    def test_amplitude_conservation_bitwise(self, gaussian_4096):
        surrogate, _ = iaaft(gaussian_4096, IaaftParams(seed=1), 0)
        assert np.array_equal(np.sort(surrogate), np.sort(gaussian_4096))

    def test_amplitude_conservation_on_discrete_data(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 5, size=256).astype(float)
        surrogate, _ = iaaft(x, IaaftParams(seed=3), 4)
        assert np.array_equal(np.sort(surrogate), np.sort(x))

    def test_spectrum_error_small_on_gaussian(self, gaussian_4096):
        _, diag = iaaft(gaussian_4096, IaaftParams(seed=1), 0)
        assert diag.spectrum_rms_error <= 1e-2
        assert diag.converged

    def test_error_does_not_grow(self, gaussian_4096):
        _, diag = iaaft(gaussian_4096, IaaftParams(seed=5), 7)
        assert diag.spectrum_rms_error <= diag.initial_spectrum_rms_error

    def test_determinism_per_seed_and_index(self, gaussian_4096):
        params = IaaftParams(seed=11)
        a, _ = iaaft(gaussian_4096, params, 3)
        b, _ = iaaft(gaussian_4096, params, 3)
        assert np.array_equal(a, b)
        c, _ = iaaft(gaussian_4096, params, 4)
        assert not np.array_equal(a, c)

    def test_determinism_under_threading(self, gaussian_4096):
        params = IaaftParams(seed=21)
        sequential = [iaaft(gaussian_4096, params, i)[0] for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(
                pool.map(lambda i: iaaft(gaussian_4096, params, i)[0], range(8))
            )
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)

    def test_ensemble_members_distinct(self):
        x = np.random.default_rng(31).standard_normal(512)
        params = IaaftParams(seed=41)
        ensemble = [tuple(iaaft(x, params, i)[0]) for i in range(20)]
        distinct = len(set(ensemble))
        assert distinct >= 20 * 99 // 100

    def test_odd_length_supported(self):
        x = np.random.default_rng(32).standard_normal(257)
        surrogate, _ = iaaft(x, IaaftParams(seed=1), 0)
        assert len(surrogate) == 257
        assert np.array_equal(np.sort(surrogate), np.sort(x))

    def test_degenerate_and_short_inputs(self):
        with pytest.raises(DegenerateSeries):
            iaaft([3.0] * 100, IaaftParams(seed=1), 0)
        with pytest.raises(SeriesTooShort):
            iaaft([1.0, 2.0, 3.0], IaaftParams(seed=1), 0)
        x = np.random.default_rng(33).standard_normal(64)
        for bad in (np.nan, np.inf):
            x[10] = bad
            with pytest.raises(NonFiniteSample):
                iaaft(x, IaaftParams(seed=1), 0)

    # Frozen digests of the little-endian float64 bytes: the surrogate for a
    # fixed (series, params, index) must never silently change.
    @pytest.mark.parametrize("series, params, index, digest", [
        pytest.param(
            np.random.default_rng(99).standard_normal(4096),
            IaaftParams(seed=1, max_iterations=100), 0,
            "dbf91d6df77a03e4774908fb88b4e6404780bb96c39f7296e22bd0d332feb93e",
            id="gaussian",
        ),
        pytest.param(
            np.random.default_rng(2).integers(0, 5, 256).astype(float),
            IaaftParams(seed=3), 4,
            "1cb52d872ae0b7d0c6532b4ffb2e6f508ec59741868a77faef8c1333b177e31d",
            id="discrete",
        ),
        pytest.param(  # every iteration has tied values: the stable path
            np.tile([0.0, 1.0], 32), IaaftParams(seed=1), 3,
            "96a034b8134b402ab1d7bd56b2ed8a389137223c39982c321d8205dd512a70fc",
            id="alternating",
        ),
    ])
    def test_surrogate_bytes_are_frozen(self, series, params, index, digest):
        surrogate, _ = iaaft(series, params, index)
        data = np.ascontiguousarray(surrogate, dtype="<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("index", [1.7, 1.0, -1, 2**64 - 1, 2**64 + 1,
                                       2.5, "2", None])
    def test_index_outside_the_member_range_rejected(self, index):
        # mix_seed uses index + 1: 1.7 and 2**64 + 1 would both alias member 1.
        x = np.random.default_rng(36).standard_normal(64)
        with pytest.raises(InvalidParams, match="index"):
            iaaft(x, IaaftParams(seed=1), index)

    def test_largest_index_and_numpy_integers_accepted(self):
        x = np.random.default_rng(36).standard_normal(64)
        params = IaaftParams(seed=1, max_iterations=3)
        assert len(iaaft(x, params, 2**64 - 2)[0]) == 64
        a, _ = iaaft(x, params, np.int64(2))
        assert np.array_equal(a, iaaft(x, params, 2)[0])

    def test_mix_seed_is_stable(self):
        # Frozen values: the ensemble stream must never silently change.
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(1, 0) == 10451216379200822465


# A random walk whose magnitudes span about 2**-8..2**5; ``x * 2**k`` is
# exact for k in -1019..1019.
_WALK = np.cumsum(np.random.default_rng(0).standard_normal(512))


class TestIaaftAtAnyScale:
    """A power-of-two scale is exact through every IAAFT step, so it carries
    through to the surrogate, bit for bit, at any finite scale."""

    PARAMS = IaaftParams(seed=1, max_iterations=30)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-1100, 1100))
    @example(k=200)  # just outside and inside each end of the safe range
    @example(k=194)
    @example(k=-200)
    @example(k=-208)
    @example(k=515)  # the spectrum error was NaN here
    @example(k=1017)  # the surrogates were all one here
    @example(k=-1019)
    def test_scale_commutes_with_iaaft(self, k):
        with np.errstate(over="ignore"):
            scaled = np.ldexp(_WALK, k)
        assume(np.array_equal(np.ldexp(scaled, -k), _WALK))  # x * 2**k is exact
        surrogate, diagnostics = iaaft(scaled, self.PARAMS, 2)
        expected, expected_diagnostics = iaaft(_WALK, self.PARAMS, 2)
        assert np.array_equal(surrogate, np.ldexp(expected, k))
        assert diagnostics == expected_diagnostics

    @pytest.mark.parametrize("scale", [1e306, 2.0**-1030])
    def test_inexact_extremes_keep_the_ranks(self, scale):
        # Subnormal samples lose bits, and 1e306 is no power of two, but
        # the ranks, so every ordinal value of a surrogate, stay the same.
        surrogate, diagnostics = iaaft(_WALK * scale, self.PARAMS, 2)
        expected, expected_diagnostics = iaaft(_WALK, self.PARAMS, 2)
        assert np.array_equal(np.argsort(surrogate, kind="stable"),
                              np.argsort(expected, kind="stable"))
        assert np.array_equal(np.sort(surrogate), np.sort(_WALK * scale))
        assert diagnostics.iterations_used == expected_diagnostics.iterations_used
        assert diagnostics.spectrum_rms_error == pytest.approx(
            expected_diagnostics.spectrum_rms_error, rel=1e-6)

    def test_samples_at_both_ends_of_the_float_range(self):
        x = _WALK.copy()
        x[::7] = np.finfo(float).max
        x[3::7] = 5e-324
        surrogate, diagnostics = iaaft(x, self.PARAMS, 0)
        assert np.array_equal(np.sort(surrogate), np.sort(x))
        assert np.isfinite(diagnostics.spectrum_rms_error)
        assert np.isfinite(diagnostics.initial_spectrum_rms_error)


class TestIaaftParams:
    @pytest.mark.parametrize("field", ["max_iterations", "n_surrogates", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
    def test_non_integers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            IaaftParams(**{field: bad})

    def test_numpy_integers_normalised(self):
        params = IaaftParams(max_iterations=np.int64(5), seed=np.uint32(7),
                             n_surrogates=np.int32(3))
        assert params == IaaftParams(max_iterations=5, seed=7, n_surrogates=3)
        assert all(type(v) is int for v in
                   (params.max_iterations, params.seed, params.n_surrogates))

    @pytest.mark.parametrize("field, past", [
        ("max_iterations", 0), ("n_surrogates", 0), ("seed", -1),
        ("seed", 2**64)])
    def test_values_past_a_bound_name_the_field(self, field, past):
        with pytest.raises(InvalidParams, match=f"^{field} must be an integer"):
            IaaftParams(**{field: past})

    def test_bounds(self):
        with pytest.raises(ValueError):
            IaaftParams(max_iterations=0)
        with pytest.raises(ValueError):
            IaaftParams(n_surrogates=0)

    def test_bad_values_are_invalid_params(self):
        for kwargs in ({"max_iterations": 0}, {"n_surrogates": 0},
                       {"seed": -1}, {"seed": 2.5}):
            with pytest.raises(InvalidParams):
                IaaftParams(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_domain(self, seed):
        with pytest.raises(ValueError, match="seed"):
            IaaftParams(seed=seed)
        assert IaaftParams(seed=2**64 - 1).seed == 2**64 - 1


_tied_samples = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


class TestRanks:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(_tied_samples, max_size=200),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=200,
                 unique=True),
    ))
    def test_equals_stable_argsort(self, values):
        y = np.array(values, dtype=np.float64)
        got = _ranks(y)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(y, kind="stable"))


class TestPercentile:
    def test_examples(self):
        assert percentile_nearest_rank(range(1, 501), 97.5) == 488
        assert percentile_nearest_rank([7.0], 50) == 7.0
        assert percentile_nearest_rank([1, 2, 3, 4], 50) == 2

    def test_band(self):
        assert percentile_band(range(500, 0, -1)) == (13, 488)
        assert percentile_band([7.0]) == (7.0, 7.0)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            percentile_nearest_rank([], 50)
        with pytest.raises(DomainError):
            percentile_nearest_rank([1.0], 0.0)
        with pytest.raises(DomainError):
            percentile_nearest_rank([1.0], 100.0)


class TestEnsembleValues:
    def test_matches_member_by_member_measures(self):
        # Rounded Gaussian data: ties, so both schemes and tied TIR matter.
        x = np.round(np.random.default_rng(34).standard_normal(512), 1)
        params = IaaftParams(max_iterations=50, seed=9, n_surrogates=4)
        configs = [
            EmbeddingConfig(m=3),
            EmbeddingConfig(m=4, tau=2),
            EmbeddingConfig(m=3, scheme="original"),
            EmbeddingConfig(m=4, tau=2, scheme="original"),
        ]
        kinds = ("TIR", "AIR")
        values = ensemble_values(x, params, configs, kinds)
        assert set(values) == {(k, c) for k in kinds for c in configs}
        for (kind, config), got in values.items():
            assert got == [
                measure(iaaft(x, params, i)[0], config, kind).value
                for i in range(params.n_surrogates)
            ]

    X = np.round(np.random.default_rng(36).standard_normal(256), 1)
    PARAMS = IaaftParams(max_iterations=20, seed=9, n_surrogates=3)
    CONFIG = EmbeddingConfig(m=3)

    def test_configs_may_be_a_generator(self):
        # A generator was once used up by the first pass over the configs,
        # and every cell came back empty.
        got = ensemble_values(self.X, self.PARAMS,
                              (EmbeddingConfig(m=m) for m in (3,)), ["TIR"])
        assert got == ensemble_values(self.X, self.PARAMS, [self.CONFIG],
                                      ["TIR"])
        assert len(got[("TIR", self.CONFIG)]) == 3

    @pytest.mark.parametrize("configs, kinds", [
        ([CONFIG, CONFIG], ["TIR"]),
        ([CONFIG], ["TIR", "TIR"]),
        ([CONFIG, EmbeddingConfig(m=3, tau=1)], ("TIR", "TIR", "TIR"))])
    def test_a_repeated_cell_counts_once(self, configs, kinds):
        assert ensemble_values(self.X, self.PARAMS, configs, kinds) == \
            ensemble_values(self.X, self.PARAMS, [self.CONFIG], ["TIR"])

    def test_cells_come_config_major_in_first_seen_order(self):
        a, b = EmbeddingConfig(m=4), self.CONFIG
        values = ensemble_values(self.X, self.PARAMS, [a, b, a],
                                 ["AIR", "TIR", "AIR"])
        assert list(values) == [("AIR", a), ("TIR", a), ("AIR", b),
                                ("TIR", b)]

    @pytest.mark.parametrize("cpus", [1, 2, 3, None])
    def test_rounds_of_any_width_match_members(self, cpus, monkeypatch):
        # 4 members in rounds of 3 leave an uneven last round; None removes
        # the affinity call, so the width falls back to os.cpu_count().
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
        x = np.round(np.random.default_rng(34).standard_normal(512), 1)
        params = IaaftParams(max_iterations=50, seed=9, n_surrogates=4)
        config = EmbeddingConfig(m=3)
        values = ensemble_values(x, params, [config], ("TIR", "AIR"))
        for kind in ("TIR", "AIR"):
            assert values[(kind, config)] == [
                measure(iaaft(x, params, i)[0], config, kind).value
                for i in range(params.n_surrogates)
            ]

    def test_prepares_once_and_never_calls_iaaft(self, monkeypatch):
        # perfbench ties hooked iaaft calls to members in call order, so the
        # threaded loop must make none; the series is prepared only once.
        prepares = []
        real_prepare = surrogates.prepare_iaaft

        def counted_prepare(series):
            prepares.append(series)
            return real_prepare(series)

        def no_iaaft(*args, **kwargs):
            raise AssertionError("ensemble_values called iaaft")

        monkeypatch.setattr(surrogates, "prepare_iaaft", counted_prepare)
        monkeypatch.setattr(surrogates, "iaaft", no_iaaft)
        x = np.random.default_rng(37).standard_normal(256)
        params = IaaftParams(max_iterations=5, seed=9, n_surrogates=5)
        values = ensemble_values(x, params, [EmbeddingConfig(m=3)], ("TIR",))
        assert len(prepares) == 1
        assert len(values[("TIR", EmbeddingConfig(m=3))]) == 5

    def test_failed_draw_propagates_and_leaves_no_threads(self, monkeypatch):
        real_draw = surrogates.draw_iaaft

        def failing_draw(prepared, params, index):
            if index == 1:
                raise RuntimeError("draw 1 failed")
            return real_draw(prepared, params, index)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(surrogates, "draw_iaaft", failing_draw)
        threads = threading.active_count()
        x = np.random.default_rng(35).standard_normal(256)
        params = IaaftParams(max_iterations=5, seed=9, n_surrogates=4)
        with pytest.raises(RuntimeError, match="draw 1 failed"):
            ensemble_values(x, params, [EmbeddingConfig(m=3)], ("TIR",))
        assert threading.active_count() == threads


class TestEnsembleChecksBeforeDrawing:
    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a member was drawn")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(surrogates, "draw_iaaft", draw)

    PARAMS = IaaftParams(max_iterations=5, seed=9, n_surrogates=4)
    X = np.random.default_rng(38).standard_normal(64)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams, match="^kind must be one of"):
            ensemble_values(self.X, self.PARAMS, [EmbeddingConfig(m=3)],
                            ["TIR", "XIR"])

    @pytest.mark.parametrize("configs, kinds", [
        ([], ["TIR", "AIR"]), ([EmbeddingConfig(m=3)], [])])
    def test_no_cell_draws_nothing(self, configs, kinds):
        assert ensemble_values(self.X, self.PARAMS, configs, kinds) == {}

    def test_series_checked_without_a_cell(self):
        with pytest.raises(NonFiniteSample):
            ensemble_values([*self.X[:10], np.nan], self.PARAMS, [], ["TIR"])

    def test_too_short_for_the_largest_config(self):
        # 64 samples hold no window of m=7 at tau=11.
        configs = [EmbeddingConfig(m=3), EmbeddingConfig(m=7, tau=11)]
        with pytest.raises(SeriesTooShort,
                           match="^sweep cell kind=TIR m=7 tau=11: "):
            significance_tests(self.X, configs, ["TIR", "AIR"], self.PARAMS)
        with pytest.raises(SeriesTooShort):
            significance_test(self.X, configs[1], "AIR", self.PARAMS)

    def test_unknown_kind_in_significance_tests(self):
        with pytest.raises(InvalidParams, match="^kind must be one of"):
            significance_tests(self.X, [EmbeddingConfig(m=3)], ["TIR", "XIR"],
                               self.PARAMS)


class TestSignificanceTests:
    # Rounded Gaussian data: ties, so both schemes and tied TIR matter.
    X = np.round(np.random.default_rng(41).standard_normal(512), 1)
    PARAMS = IaaftParams(max_iterations=30, seed=11, n_surrogates=5)
    CONFIGS = [EmbeddingConfig(m=m, tau=tau, scheme=scheme)
               for scheme in ("equal-value", "original")
               for m, tau in ((3, 1), (4, 2))]
    KINDS = ("TIR", "AIR")

    @pytest.fixture(scope="class")
    def grid(self):
        return significance_tests(self.X, self.CONFIGS, self.KINDS,
                                  self.PARAMS)

    def test_every_cell_is_its_own_significance_test(self, grid):
        reports, verdicts = grid
        cells = [(kind, c) for c in self.CONFIGS for kind in self.KINDS]
        assert list(reports) == list(verdicts) == cells
        for kind, config in cells:
            alone = significance_test(self.X, config, kind, self.PARAMS)
            assert verdicts[(kind, config)] == alone
            assert len(alone.surrogate_values) == self.PARAMS.n_surrogates

    def test_reports_are_the_measures_of_the_series(self, grid):
        reports, verdicts = grid
        for (kind, config), rep in reports.items():
            want = measure(self.X, config, kind)
            assert (rep.kind, rep.config, rep.value) == (kind, config,
                                                         want.value)
            assert rep.value == verdicts[(kind, config)].original_value

    def test_band_and_flags_follow_the_values(self, grid):
        for v in grid[1].values():
            assert (v.p2_5, v.p97_5) == percentile_band(v.surrogate_values)
            assert v.significant_above == (v.original_value > v.p97_5)
            assert v.significant_below == (v.original_value < v.p2_5)

    def test_a_repeated_cell_counts_once(self, grid):
        config = self.CONFIGS[1]
        reports, verdicts = significance_tests(
            self.X, (c for c in [config, config]), ["AIR", "AIR"],
            self.PARAMS)
        assert list(reports) == list(verdicts) == [("AIR", config)]
        assert verdicts[("AIR", config)] == grid[1][("AIR", config)]


def test_one_verdict_path():
    """Only surrogates.py takes a band or runs an ensemble: every other
    module goes through significance_tests."""
    sources = sorted(Path(irrev.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name != "surrogates.py":
            text = path.read_text(encoding="utf-8")
            assert "percentile_band(" not in text, path.name
            assert "ensemble_values(" not in text, path.name


class TestSignificance:
    def test_chaotic_series_detected_at_small_scale(self):
        from irrev import ModelSpec, generate

        x = generate(ModelSpec("logistic", 4096))
        verdict = significance_test(
            x, EmbeddingConfig(m=4), "TIR",
            IaaftParams(seed=7, n_surrogates=30),
        )
        assert verdict.significant_above
        assert not verdict.significant_below
        assert len(verdict.surrogate_values) == 30
        assert verdict.p2_5 <= verdict.p97_5

    def test_surrogate_of_gaussian_not_significant(self, gaussian_4096):
        # Second-level check: a surrogate of a linear series is itself linear.
        base, _ = iaaft(gaussian_4096[:2048], IaaftParams(seed=13), 0)
        verdict = significance_test(
            base, EmbeddingConfig(m=3), "TIR",
            IaaftParams(seed=17, n_surrogates=30),
        )
        assert not verdict.significant_above

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            significance_test(
                [2.0] * 500, EmbeddingConfig(m=3), "TIR",
                IaaftParams(seed=1, n_surrogates=5),
            )
