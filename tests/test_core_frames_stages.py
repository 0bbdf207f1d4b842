"""Tests for frame extraction and the stage library."""

import numpy as np
import pytest

from repro.core.frames import frame_matrix, frames_of_series
from repro.core.stages import Segment, StageLibrary, StageStats, StageTypeId
from repro.platform_.resources import DIMENSIONS
from repro.util.timeseries import ResourceSeries


def series(rows):
    return ResourceSeries(np.asarray(rows, float), DIMENSIONS)


def seg(type_id, start, end, peak, is_loading=False, mean=None, q95=None):
    peak = np.asarray(peak, float)
    return Segment(
        StageTypeId(type_id), start, end, is_loading,
        peak=peak,
        mean=np.asarray(mean, float) if mean is not None else peak * 0.8,
        q95=np.asarray(q95, float) if q95 is not None else peak,
    )


class TestStageTypeId:
    def test_canonical_ordering(self):
        assert StageTypeId([2, 0]) == StageTypeId((0, 2))

    def test_deduplicates(self):
        assert StageTypeId([1, 1, 2]) == StageTypeId([1, 2])

    def test_hashable_key(self):
        d = {StageTypeId([0, 1]): "x"}
        assert d[StageTypeId([1, 0])] == "x"

    def test_contains(self):
        assert StageTypeId([0, 2]).contains(2)
        assert not StageTypeId([0, 2]).contains(1)

    def test_repr(self):
        assert repr(StageTypeId([3, 1])) == "<1+3>"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StageTypeId([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StageTypeId([-1])


class TestFrames:
    def test_frames_of_series(self):
        s = series([[i, 0, 0, 0] for i in range(12)])
        f = frames_of_series(s)
        assert f.n_samples == 2
        assert f.values[0, 0] == pytest.approx(2.0)

    def test_frame_matrix_concatenates(self):
        s1 = series([[1, 0, 0, 0]] * 10)
        s2 = series([[2, 0, 0, 0]] * 5)
        X = frame_matrix([s1, s2])
        assert X.shape == (3, 4)

    def test_frame_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            frame_matrix([])

    def test_short_series_dropped(self):
        s1 = series([[1, 0, 0, 0]] * 10)
        s2 = series([[2, 0, 0, 0]] * 3)  # shorter than one frame
        assert frame_matrix([s1, s2]).shape[0] == 2


class TestStageStats:
    def test_update_aggregates(self):
        stats = StageStats(StageTypeId([0]))
        stats.update(seg([0], 0, 4, [10, 0, 0, 0], q95=[9, 0, 0, 0]))
        stats.update(seg([0], 4, 12, [20, 0, 0, 0], q95=[18, 0, 0, 0]))
        assert stats.occurrences == 2
        assert stats.total_frames == 12
        assert stats.hard_peak[0] == 20
        # planning peak is frame-weighted q95: (9*4 + 18*8)/12
        assert stats.peak[0] == pytest.approx((9 * 4 + 18 * 8) / 12)

    def test_type_mismatch_rejected(self):
        stats = StageStats(StageTypeId([0]))
        with pytest.raises(ValueError):
            stats.update(seg([1], 0, 2, [1, 0, 0, 0]))

    def test_mean_duration(self):
        stats = StageStats(StageTypeId([0]))
        stats.update(seg([0], 0, 4, [1, 0, 0, 0]))
        stats.update(seg([0], 4, 10, [1, 0, 0, 0]))
        assert stats.mean_duration_seconds(5) == 25.0


class TestStageLibrary:
    def make_library(self):
        centers = np.array(
            [
                [50, 5, 10, 10],   # 0: loading (cpu high, gpu low)
                [20, 20, 15, 12],  # 1: quiet
                [40, 55, 25, 15],  # 2: heavy
            ],
            float,
        )
        return StageLibrary("toy", centers, [0])

    def test_classify_frame(self):
        lib = self.make_library()
        assert lib.classify_frame([49, 6, 10, 10]) == 0
        assert lib.classify_frame([21, 19, 14, 12]) == 1

    def test_observe_and_stats(self):
        lib = self.make_library()
        lib.observe_segments([
            seg([0], 0, 2, [50, 5, 10, 10], is_loading=True),
            seg([1], 2, 10, [22, 22, 16, 13]),
            seg([0], 10, 12, [50, 5, 10, 10], is_loading=True),
            seg([2], 12, 20, [42, 57, 26, 16]),
        ])
        assert len(lib.stage_types) == 3
        assert lib.execution_types == [StageTypeId([1]), StageTypeId([2])]
        assert lib.stats(StageTypeId([1])).occurrences == 1

    def test_transitions(self):
        lib = self.make_library()
        segs = [
            seg([1], 0, 2, [1, 0, 0, 0]),
            seg([0], 2, 3, [1, 0, 0, 0], is_loading=True),
            seg([2], 3, 5, [1, 0, 0, 0]),
        ]
        lib.observe_segments(segs)
        # Loading separates execution stages: [1] -> [2] is one transition.
        assert lib.transition_counts(StageTypeId([1])) == {StageTypeId([2]): 1}
        assert not lib.transition_counts(StageTypeId([2]))

    def test_peak_of_unobserved_type_falls_back_to_centroids(self):
        lib = self.make_library()
        peak = lib.peak_of(StageTypeId([1, 2]))
        assert peak.gpu == pytest.approx(55)

    def test_max_peak_requires_observations(self):
        lib = self.make_library()
        with pytest.raises(RuntimeError):
            lib.max_peak()

    def test_loading_type(self):
        assert self.make_library().loading_type == StageTypeId([0])

    def test_unknown_type_stats(self):
        with pytest.raises(KeyError):
            self.make_library().stats(StageTypeId([9]))

    def test_frame_dim_check(self):
        with pytest.raises(ValueError):
            self.make_library().classify_frame([1, 2])

    def test_summary_is_printable(self):
        lib = self.make_library()
        lib.observe_segments([seg([1], 0, 2, [20, 20, 15, 12])])
        text = lib.summary()
        assert "toy" in text and "execution" in text
