import itertools
import math

import numpy as np
import pytest

from irrev import (
    EmbeddingConfig,
    InvalidParams,
    InvalidPattern,
    LengthMismatch,
    NonFiniteSample,
    ParseError,
    Pattern,
    TiedPatternUnsupported,
    amplitude_reverse,
    canonical_representative,
    extract_pattern,
    is_self_symmetric,
    pattern_from_string,
    pattern_to_string,
    time_reverse_tie_free,
)

EV = EmbeddingConfig(m=5, scheme="equal-value")
ORIG = EmbeddingConfig(m=5, scheme="original")


class TestEmbeddingConfig:
    def test_numpy_integers_accepted(self):
        cfg = EmbeddingConfig(m=np.int64(3), tau=np.int32(2))
        assert (cfg.m, cfg.tau) == (3, 2)
        assert type(cfg.m) is int and type(cfg.tau) is int

    @pytest.mark.parametrize("kwargs", [
        {"m": 1}, {"m": 3.0}, {"m": 3, "tau": 0}, {"m": 3, "scheme": "x"},
        {"m": 3, "tie_epsilon": -1.0}, {"m": 3, "tie_epsilon": math.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)

    def test_bad_values_are_invalid_params(self):
        assert issubclass(InvalidParams, ValueError)
        with pytest.raises(InvalidParams):
            EmbeddingConfig(m=1)
        with pytest.raises(InvalidParams):
            Pattern((1, 2), scheme="x")

    @pytest.mark.parametrize("eps", ["0.1", None, True, False, np.bool_(True),
                                     1j, [0.1]])
    def test_tie_epsilon_must_be_a_real_number(self, eps):
        with pytest.raises(InvalidParams, match="tie_epsilon"):
            EmbeddingConfig(m=3, tie_epsilon=eps)

    @pytest.mark.parametrize("eps", [0, 0.0, 0.1, np.float32(0.25), np.int64(1),
                                     math.inf])
    def test_tie_epsilon_kept_as_given(self, eps):
        cfg = EmbeddingConfig(m=3, tie_epsilon=eps)
        assert cfg.tie_epsilon is eps

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name, pasts in (("dimension m", (1, 16)), ("delay tau", (0,)))
        for bad in (2.5, "2", None, *pasts)])
    def test_integer_fields_name_themselves(self, name, bad):
        field = name.split()[1]
        with pytest.raises(InvalidParams, match=f"^{name} must be an integer"):
            EmbeddingConfig(**{"m": 3, field: bad})

    @pytest.mark.parametrize("cast", [np.int64, np.uint32])
    def test_numpy_integer_types_stored_as_int(self, cast):
        cfg = EmbeddingConfig(m=cast(3), tau=cast(2))
        assert (cfg.m, cfg.tau) == (3, 2)
        assert type(cfg.m) is int and type(cfg.tau) is int

    def test_m_bounded_by_code_width(self):
        assert EmbeddingConfig(m=15).m == 15
        with pytest.raises(ValueError, match=r"2\.\.15"):
            EmbeddingConfig(m=16)


class TestExtractPattern:
    def test_tie_free_window(self):
        assert extract_pattern([3, 1, 9, 5, 7], EV).labels == (2, 1, 4, 5, 3)
        assert extract_pattern([3, 1, 9, 5, 7], ORIG).labels == (2, 1, 4, 5, 3)

    def test_tied_window_both_schemes(self):
        assert extract_pattern([3, 1, 7, 1, 5], ORIG).labels == (2, 4, 1, 5, 3)
        assert extract_pattern([3, 1, 7, 1, 5], EV).labels == (2, 2, 1, 5, 3)

    def test_whole_equality(self):
        cfg = EmbeddingConfig(m=3)
        assert extract_pattern([5, 5, 5], cfg).labels == (1, 1, 1)

    def test_negated_tied_window(self):
        assert extract_pattern([-3, -1, -7, -1, -5], EV).labels == (3, 5, 1, 2, 2)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            extract_pattern([1, 2, 3], EV)
        with pytest.raises(NonFiniteSample):
            extract_pattern([1, 2, math.nan, 4, 5], EV)
        with pytest.raises(NonFiniteSample):
            extract_pattern([1, 2, math.inf, 4, 5], EV)

    def test_tie_epsilon_clusters_transitively(self):
        # 1 and 2 tie, 2 and 3 tie -> one chained group of three
        cfg = EmbeddingConfig(m=4, tie_epsilon=1.0)
        assert extract_pattern([3, 1, 9, 2], cfg).labels == (1, 1, 1, 3)

    def test_stability_under_tie_shuffling(self):
        # Swapping equal values among their positions changes nothing.
        a = extract_pattern([2, 7, 2, 7, 1], EV)
        b = extract_pattern([2, 7, 2, 7, 1], EV)
        assert a == b
        assert a.labels == (5, 1, 1, 2, 2)

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(11)
        cfg = EmbeddingConfig(m=6)
        for _ in range(50):
            w = rng.integers(0, 5, size=6).astype(float)
            a = rng.uniform(0.1, 10)
            b = rng.uniform(-5, 5)
            assert extract_pattern(w, cfg) == extract_pattern(a * w + b, cfg)

    def test_scheme_agreement_on_tie_free_windows(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            w = rng.permutation(5).astype(float)
            assert extract_pattern(w, EV).labels == extract_pattern(w, ORIG).labels


class TestTransforms:
    def test_amplitude_reverse_fixtures(self):
        assert amplitude_reverse(Pattern((2, 1, 4, 5, 3))).labels == (3, 5, 4, 1, 2)
        assert amplitude_reverse(Pattern((2, 2, 1, 5, 3))).labels == (3, 5, 1, 2, 2)
        assert amplitude_reverse(Pattern((1, 1, 1))).labels == (1, 1, 1)

    def test_time_reverse_fixtures(self):
        assert time_reverse_tie_free(Pattern((2, 1, 4, 5, 3))).labels == (4, 5, 2, 1, 3)
        assert time_reverse_tie_free(Pattern((3, 5, 4, 1, 2))).labels == (3, 1, 2, 5, 4)
        assert time_reverse_tie_free(Pattern((1, 2, 3))).labels == (3, 2, 1)

    def test_time_reverse_rejects_ties(self):
        with pytest.raises(TiedPatternUnsupported):
            time_reverse_tie_free(Pattern((2, 2, 1, 5, 3)))

    def test_negation_law_equal_value(self):
        rng = np.random.default_rng(13)
        cfg = EmbeddingConfig(m=5)
        for _ in range(200):
            w = rng.integers(0, 4, size=5).astype(float)
            assert extract_pattern(-w, cfg) == amplitude_reverse(
                extract_pattern(w, cfg)
            )

    def test_negation_law_fails_for_original_scheme_with_ties(self):
        # Negative control: the original scheme breaks amplitude symmetry.
        fwd = extract_pattern([3, 1, 7, 1, 5], ORIG)
        neg = extract_pattern([-3, -1, -7, -1, -5], ORIG)
        assert fwd.labels == (2, 4, 1, 5, 3)
        assert neg.labels == (3, 5, 1, 2, 4)
        assert amplitude_reverse(fwd).labels == (3, 5, 1, 4, 2)
        assert neg != amplitude_reverse(fwd)

    def test_reversal_law_tie_free(self):
        rng = np.random.default_rng(14)
        cfg = EmbeddingConfig(m=6)
        for _ in range(200):
            w = rng.standard_normal(6)
            assert extract_pattern(w[::-1], cfg) == time_reverse_tie_free(
                extract_pattern(w, cfg)
            )

    def test_involutions_and_commutation(self):
        for labels in itertools.permutations(range(1, 5)):
            p = Pattern(labels)
            assert amplitude_reverse(amplitude_reverse(p)) == p
            assert time_reverse_tie_free(time_reverse_tie_free(p)) == p
            assert amplitude_reverse(time_reverse_tie_free(p)) == \
                time_reverse_tie_free(amplitude_reverse(p))

    def test_is_self_symmetric(self):
        assert is_self_symmetric(Pattern((1, 1, 1)), "amplitude")
        assert not is_self_symmetric(Pattern((1, 3, 2)), "amplitude")
        assert not is_self_symmetric(Pattern((1, 3, 2)), "time")
        assert not is_self_symmetric(Pattern((2, 1)), "time")
        assert not is_self_symmetric(Pattern((1, 2)), "amplitude")
        # No tie-free pattern is a fixed point of the complement map: that
        # would need every label to equal (m+1)/2.
        for labels in itertools.permutations(range(1, 4)):
            assert not is_self_symmetric(Pattern(labels), "time")
        with pytest.raises(TiedPatternUnsupported):
            is_self_symmetric(Pattern((1, 1, 3)), "time")

    def test_unknown_symmetry_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="'mirror'"):
            is_self_symmetric(Pattern((1, 2)), "mirror")


def _brute_force_patterns(m):
    """Every equal-value pattern realizable by an integer window of length m."""
    cfg = EmbeddingConfig(m=m)
    return {
        extract_pattern(w, cfg).labels
        for w in itertools.product(range(1, m + 1), repeat=m)
    }


class TestCanonicalRepresentative:
    def test_fixtures(self):
        w = canonical_representative(Pattern((2, 2, 1, 5, 3)))
        assert w[1] == w[3] < w[0] < w[4] < w[2]
        assert extract_pattern(w, EV).labels == (2, 2, 1, 5, 3)
        assert canonical_representative(Pattern((1, 2, 3))) == [1, 2, 3]

    def test_rejects_unrealizable_patterns(self):
        # A tie run labelled v needs a member position greater than v.
        with pytest.raises(InvalidPattern):
            canonical_representative(Pattern((3, 3, 1)))
        with pytest.raises(InvalidPattern):
            canonical_representative(Pattern((2, 2, 2)))
        # Equal labels in non-adjacent runs.
        with pytest.raises(InvalidPattern):
            canonical_representative(Pattern((1, 2, 1)))
        # Label out of range.
        with pytest.raises(InvalidPattern):
            canonical_representative(Pattern((1, 4, 2)))

    def test_rejects_the_empty_pattern(self):
        with pytest.raises(InvalidPattern, match="0 labels"):
            canonical_representative(Pattern(()))

    @pytest.mark.parametrize("m", [3, 4])
    def test_validity_matches_exhaustive_search(self, m):
        realizable = _brute_force_patterns(m)
        cfg = EmbeddingConfig(m=m)
        for labels in itertools.product(range(1, m + 1), repeat=m):
            p = Pattern(labels)
            if labels in realizable:
                w = canonical_representative(p)
                assert extract_pattern(w, cfg).labels == labels
            else:
                with pytest.raises(InvalidPattern):
                    canonical_representative(p)

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(15)
        cfg = EmbeddingConfig(m=6)
        for _ in range(300):
            w = rng.integers(0, 4, size=6).astype(float)
            p = extract_pattern(w, cfg)
            assert extract_pattern(canonical_representative(p), cfg) == p


class TestCodec:
    def test_round_trip(self):
        assert pattern_to_string(Pattern((2, 2, 1, 5, 3))) == "2,2,1,5,3"
        assert pattern_from_string("2,2,1,5,3").labels == (2, 2, 1, 5, 3)
        assert pattern_from_string("1,2").labels == (1, 2)

    def test_parse_rejects_invalid(self):
        with pytest.raises(InvalidPattern):
            pattern_from_string("1,4,2")
        with pytest.raises(ParseError):
            pattern_from_string("1,x,2")
        with pytest.raises(ParseError):
            pattern_from_string("3")
