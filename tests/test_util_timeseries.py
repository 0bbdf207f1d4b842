"""Tests for repro.util.timeseries.ResourceSeries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.timeseries import ResourceSeries


def make(values, cols=("cpu", "gpu"), period=1.0, start=0.0):
    return ResourceSeries(np.asarray(values, float), cols, period=period, start=start)


class TestConstruction:
    def test_basic(self):
        s = make([[1, 2], [3, 4]])
        assert s.n_samples == 2 and s.n_dims == 2
        assert s.duration == 2.0

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            ResourceSeries(np.zeros((2, 3)), ("a", "b"))

    def test_duplicate_columns(self):
        with pytest.raises(ValueError):
            ResourceSeries(np.zeros((2, 2)), ("a", "a"))

    def test_nonpositive_period(self):
        with pytest.raises(ValueError):
            make([[1, 2]], period=0)

    def test_zeros_factory(self):
        z = ResourceSeries.zeros(5, ("x", "y"), period=2.0)
        assert z.n_samples == 5 and z.values.sum() == 0 and z.period == 2.0


class TestAccessors:
    def test_column_is_view(self):
        s = make([[1, 2], [3, 4]])
        col = s.column("gpu")
        np.testing.assert_array_equal(col, [2, 4])
        assert col.base is s.values or col.base is s.values.base

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            make([[1, 2]]).column("nope")

    def test_times(self):
        s = make([[1, 2]] * 4, period=5.0, start=10.0)
        np.testing.assert_array_equal(s.times, [10, 15, 20, 25])


class TestSliceAndResample:
    def test_slice_time(self):
        s = make([[i, i] for i in range(10)])
        part = s.slice_time(3.0, 6.0)
        np.testing.assert_array_equal(part.column("cpu"), [3, 4, 5])
        assert part.start == 3.0

    def test_slice_empty(self):
        s = make([[1, 1]] * 3)
        assert len(s.slice_time(5.0, 9.0)) == 0

    def test_resample_mean_drops_partial(self):
        s = make([[i, 0] for i in range(7)])
        r = s.resample(3.0)
        assert r.n_samples == 2  # 7 // 3, trailing partial dropped
        np.testing.assert_allclose(r.column("cpu"), [1.0, 4.0])

    def test_resample_max(self):
        s = make([[1, 5], [9, 2]])
        r = s.resample(2.0, reduce="max")
        np.testing.assert_array_equal(r.values, [[9, 5]])

    def test_resample_non_multiple(self):
        with pytest.raises(ValueError):
            make([[1, 1]] * 4).resample(2.5)

    def test_resample_bad_reduce(self):
        with pytest.raises(ValueError):
            make([[1, 1]] * 4).resample(2.0, reduce="median")

    def test_select(self):
        s = make([[1, 2], [3, 4]])
        g = s.select(["gpu"])
        assert g.columns == ("gpu",)
        np.testing.assert_array_equal(g.values.ravel(), [2, 4])


class TestStats:
    def test_peak_and_mean(self):
        s = make([[1, 10], [5, 2]])
        np.testing.assert_array_equal(s.peak(), [5, 10])
        np.testing.assert_array_equal(s.mean(), [3, 6])

    def test_empty_stats(self):
        s = ResourceSeries.zeros(0, ("a",))
        assert s.peak().tolist() == [0.0]
        assert s.mean().tolist() == [0.0]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 5),
)
def test_resample_mean_preserves_total_mass(n, k):
    """Property: sum(mean-resampled) * k == sum of the covered prefix."""
    rng = np.random.default_rng(n * 13 + k)
    values = rng.uniform(0, 100, size=(n, 2))
    s = ResourceSeries(values, ("a", "b"))
    r = s.resample(float(k))
    covered = values[: (n // k) * k]
    np.testing.assert_allclose(r.values.sum(axis=0) * k, covered.sum(axis=0))
