"""Tests for statistics helpers."""

import math

import numpy as np
import pytest

from repro.utils.stats import (
    RunningStat,
    confidence_interval,
    describe,
    geometric_mean,
    relative_error,
)


class TestRunningStat:
    def test_mean_and_variance_match_numpy(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(3.0, 2.0, size=500)
        stat = RunningStat()
        stat.extend(samples)
        assert stat.mean == pytest.approx(float(samples.mean()), rel=1e-9)
        assert stat.variance == pytest.approx(float(samples.var(ddof=1)), rel=1e-9)
        assert stat.std == pytest.approx(float(samples.std(ddof=1)), rel=1e-9)

    def test_empty_stat_defaults(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0

    def test_min_max_tracking(self):
        stat = RunningStat()
        stat.extend([3.0, -1.0, 7.0])
        assert stat.minimum == -1.0
        assert stat.maximum == 7.0

    def test_single_observation_has_zero_variance(self):
        stat = RunningStat()
        stat.push(5.0)
        assert stat.variance == 0.0

    def test_merge_equivalent_to_combined_stream(self):
        rng = np.random.default_rng(2)
        a_samples = rng.random(100)
        b_samples = rng.random(50) + 5.0
        a, b = RunningStat(), RunningStat()
        a.extend(a_samples)
        b.extend(b_samples)
        merged = a.merge(b)
        combined = np.concatenate([a_samples, b_samples])
        assert merged.count == 150
        assert merged.mean == pytest.approx(float(combined.mean()))
        assert merged.variance == pytest.approx(float(combined.var(ddof=1)))

    def test_merge_with_empty(self):
        a = RunningStat()
        a.extend([1.0, 2.0])
        merged = a.merge(RunningStat())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)


class TestConfidenceInterval:
    def test_contains_mean(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = confidence_interval(samples)
        assert low < 3.0 < high

    def test_wider_at_higher_confidence(self):
        samples = list(np.random.default_rng(3).normal(size=50))
        low95, high95 = confidence_interval(samples, 0.95)
        low99, high99 = confidence_interval(samples, 0.99)
        assert (high99 - low99) > (high95 - low95)

    def test_single_sample_degenerate(self):
        assert confidence_interval([4.0]) == (4.0, 4.0)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_t_quantiles_match_student_t_to_1e6(self):
        # Samples scaled so that s / sqrt(n) == 1: the half-width is then
        # the 97.5% Student-t quantile with n - 1 degrees of freedom.
        for samples, reference_t in (
            (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * math.sqrt(5.0 / 2.5), 2.7764451),
            ([-1.0, 1.0], 12.7062047),
        ):
            low, high = confidence_interval(samples, 0.95)
            assert (high - low) / 2.0 == pytest.approx(reference_t, abs=1e-6)

    def test_ci_width_uses_refined_z(self):
        # Two samples: std = sqrt(2), sqrt(n) = sqrt(2), so the 99%
        # half-width collapses to exactly t(1, 0.995).
        samples = [-1.0, 1.0]
        low, high = confidence_interval(samples, 0.99)
        assert (high - low) / 2.0 == pytest.approx(63.656741162871526, abs=1e-6)


class TestDescribe:
    def test_fields_present_and_consistent(self):
        stats = describe([1.0, 2.0, 3.0, 4.0])
        assert stats["count"] == 4
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            describe([])


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestRelativeError:
    def test_basic(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_zero_reference_returns_absolute(self):
        assert relative_error(0.3, 0.0) == pytest.approx(0.3)

    def test_exact_match_is_zero(self):
        assert relative_error(5.0, 5.0) == 0.0
