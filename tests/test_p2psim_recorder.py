"""Tests for the wealth recorder."""

import numpy as np
import pytest

from repro.p2psim import WealthRecorder


class TestRecording:
    def test_records_series(self):
        recorder = WealthRecorder()
        recorder.record(0.0, [1.0, 1.0, 1.0])
        recorder.record(10.0, [0.0, 1.0, 2.0])
        assert recorder.gini_series.x == [0.0, 10.0]
        assert recorder.gini_series.y[0] == pytest.approx(0.0)
        assert recorder.bankrupt_series.y[1] == pytest.approx(1 / 3)
        assert recorder.mean_wealth_series.y == [1.0, 1.0]
        assert recorder.population_series.y == [3.0, 3.0]

    def test_empty_sample_ignored(self):
        recorder = WealthRecorder()
        recorder.record(1.0, [])
        assert len(recorder.gini_series) == 0

    def test_final_and_stabilized_gini(self):
        recorder = WealthRecorder()
        for time, gini_sample in enumerate([[1, 1], [0, 2], [0, 4]]):
            recorder.record(float(time), gini_sample)
        assert recorder.final_gini() == pytest.approx(0.5)
        assert recorder.stabilized_gini(1.0) == pytest.approx(np.mean([0.0, 0.5, 0.5]))

    def test_gini_at_lookup(self):
        recorder = WealthRecorder()
        recorder.record(0.0, [1, 1])
        recorder.record(10.0, [0, 2])
        assert recorder.gini_at(5.0) == pytest.approx(0.0)
        assert recorder.gini_at(10.0) == pytest.approx(0.5)
        assert recorder.gini_at(-1.0) == pytest.approx(0.0)

    def test_gini_at_without_samples_raises(self):
        with pytest.raises(ValueError):
            WealthRecorder().gini_at(1.0)

    def test_array_and_list_samples_record_alike(self):
        from_list, from_array = WealthRecorder(), WealthRecorder()
        samples = [[5, 0, 3, 2], [1, 1, 7, 0], [4, 4, 0, 0]]
        for time, sample in enumerate(samples):
            from_list.record(float(time), sample)
            from_array.record(float(time), np.asarray(sample, dtype=float))
        for name in ("gini_series", "bankrupt_series", "mean_wealth_series", "population_series"):
            assert getattr(from_list, name).points() == getattr(from_array, name).points()

    def test_population_series_follows_churn(self):
        recorder = WealthRecorder()
        recorder.record(0.0, [2, 2, 2])
        recorder.record(1.0, [2, 2, 2, 0, 0])
        recorder.record(2.0, [6])
        assert recorder.population_series.y == [3.0, 5.0, 1.0]
        assert recorder.mean_wealth_series.y == pytest.approx([2.0, 1.2, 6.0])
        assert recorder.bankrupt_series.y == pytest.approx([0.0, 0.4, 0.0])


class TestSnapshots:
    def test_snapshots_taken_at_requested_times(self):
        recorder = WealthRecorder(snapshot_times=[5.0, 15.0])
        recorder.record(0.0, [3, 1])
        recorder.record(6.0, [2, 2])
        recorder.record(20.0, [4, 0])
        assert set(recorder.snapshots) == {5.0, 15.0}
        np.testing.assert_array_equal(recorder.snapshots[5.0], [2, 2])
        np.testing.assert_array_equal(recorder.snapshots[15.0], [0, 4])

    def test_snapshot_profiles_sorted_by_time(self):
        recorder = WealthRecorder(snapshot_times=[10.0, 2.0])
        recorder.record(3.0, [1, 2])
        recorder.record(12.0, [5, 6])
        profiles = recorder.snapshot_profiles()
        assert len(profiles) == 2
        np.testing.assert_array_equal(profiles[0], [1, 2])
        np.testing.assert_array_equal(profiles[1], [5, 6])

    def test_one_sample_can_fill_several_requested_times(self):
        recorder = WealthRecorder(snapshot_times=[1.0, 2.0, 30.0])
        recorder.record(5.0, [3, 1, 2])
        assert set(recorder.snapshots) == {1.0, 2.0}
        np.testing.assert_array_equal(recorder.snapshots[1.0], [1, 2, 3])
        np.testing.assert_array_equal(recorder.snapshots[2.0], [1, 2, 3])
        recorder.record(10.0, [0, 0, 6])
        assert 30.0 not in recorder.snapshots

    def test_snapshot_is_a_sorted_copy(self):
        recorder = WealthRecorder(snapshot_times=[0.0])
        wealths = np.array([4.0, 1.0, 3.0])
        recorder.record(0.0, wealths)
        wealths[:] = -1.0
        np.testing.assert_array_equal(recorder.snapshots[0.0], [1.0, 3.0, 4.0])


class TestConvergence:
    def test_not_converged_with_few_samples(self):
        recorder = WealthRecorder()
        recorder.record(0.0, [1, 1])
        assert not recorder.has_converged(window=5)

    def test_converged_when_tail_is_flat(self):
        recorder = WealthRecorder()
        for time in range(10):
            recorder.record(float(time), [0, 2])
        assert recorder.has_converged(window=5, tolerance=0.01)

    def test_not_converged_when_drifting(self):
        recorder = WealthRecorder()
        wealths = [[10 - i, 10 + i] for i in range(10)]
        for time, sample in enumerate(wealths):
            recorder.record(float(time), sample)
        assert not recorder.has_converged(window=5, tolerance=0.05)
