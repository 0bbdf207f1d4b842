"""Tests for the offline GameProfile pipeline and the analysis helpers."""

import numpy as np
import pytest

from repro.analysis.elbow import elbow_analysis
from repro.analysis.report import format_series, format_table
from repro.analysis.savings import allocation_savings
from repro.core.pipeline import GameProfile
from repro.games.tracegen import generate_corpus
from repro.platform_.profile import WEAK_GPU_PLATFORM
from repro.util.timeseries import ResourceSeries


class TestGameProfile:
    def test_build_trains_requested_backends(self, toy_profile):
        assert set(toy_profile.predictors) == {"dtc"}
        assert toy_profile.accuracy("dtc") > 0.9

    def test_library_uses_published_k(self, toy_profile, toy_spec):
        assert toy_profile.library.n_clusters == len(toy_spec.clusters)

    def test_unknown_backend(self, toy_profile):
        with pytest.raises(KeyError):
            toy_profile.predictor("gbdt")

    def test_corpus_segments_retained(self, toy_profile):
        assert len(toy_profile.corpus_segments) == 9  # 3 players × 3 sessions

    def test_custom_corpus(self, toy_spec):
        corpus = generate_corpus(toy_spec, n_players=2, sessions_per_player=2, seed=1)
        profile = GameProfile.build(toy_spec, corpus=corpus, backends=("dtc",))
        assert len(profile.corpus_segments) == 4

    def test_platform_invariance_of_stage_structure(self, toy_spec):
        """§IV-D: migrating platforms rescales demand but preserves the
        stage count and transition structure."""
        ref = GameProfile.build(
            toy_spec, n_players=3, sessions_per_player=3, seed=5, backends=("dtc",)
        )
        weak_corpus = generate_corpus(
            toy_spec, n_players=3, sessions_per_player=3, seed=5,
            platform=WEAK_GPU_PLATFORM,
        )
        weak = GameProfile.build(toy_spec, corpus=weak_corpus, backends=("dtc",))
        assert ref.library.n_clusters == weak.library.n_clusters
        assert len(ref.library.stage_types) == len(weak.library.stage_types)
        # Only magnitudes change: the weak-GPU platform's exec peaks are
        # higher on the GPU dimension.
        ref_peak = ref.library.max_peak().gpu
        weak_peak = weak.library.max_peak().gpu
        assert weak_peak > ref_peak


class TestElbowAnalysis:
    def test_toy_elbow(self, toy_spec):
        bundles = generate_corpus(toy_spec, n_players=3, sessions_per_player=3, seed=1)
        analysis = elbow_analysis(toy_spec, bundles, seed=0)
        assert analysis.published_k == 3
        assert analysis.chosen_k == 3
        assert analysis.matches_published()
        assert len(analysis.sses) == len(analysis.k_values)
        assert analysis.normalized_sses[0] == 1.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["game", "T"], [["dota2", 1.5], ["csgo", 22.0]], title="Fig 11"
        )
        lines = text.splitlines()
        assert lines[0] == "Fig 11"
        assert "game" in lines[1]
        assert all(len(l) <= 40 for l in lines)

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_wraps(self):
        text = format_series("x", list(range(30)), per_line=10)
        assert len(text.splitlines()) == 4  # name + 3 rows

    def test_format_series_invalid(self):
        with pytest.raises(ValueError):
            format_series("x", [1], per_line=0)


class TestAllocationSavings:
    def make_series(self, allocated, demand):
        cols = ("cpu", "gpu", "gpu_mem", "ram")
        return (
            ResourceSeries(np.asarray(allocated, float), cols),
            ResourceSeries(np.asarray(demand, float), cols),
        )

    def test_savings_against_static(self):
        alloc, demand = self.make_series(
            [[10, 30, 0, 0], [10, 30, 0, 0]],
            [[8, 25, 0, 0], [9, 28, 0, 0]],
        )
        static = np.array([20, 60, 0, 0])
        s = allocation_savings(alloc, demand, static)
        assert s.savings_fraction == pytest.approx(0.5)
        assert s.coverage == 1.0

    def test_coverage_counts_undersupply(self):
        alloc, demand = self.make_series(
            [[10, 10, 0, 0], [10, 10, 0, 0]],
            [[5, 5, 0, 0], [20, 5, 0, 0]],
        )
        s = allocation_savings(alloc, demand, np.array([20, 20, 1, 1]))
        assert s.coverage == 0.5

    def test_length_mismatch(self):
        alloc, demand = self.make_series([[1, 1, 1, 1]], [[1, 1, 1, 1]])
        demand2 = ResourceSeries(
            np.zeros((2, 4)), ("cpu", "gpu", "gpu_mem", "ram")
        )
        with pytest.raises(ValueError):
            allocation_savings(alloc, demand2, np.ones(4))

    def test_bad_static_shape(self):
        alloc, demand = self.make_series([[1, 1, 1, 1]], [[1, 1, 1, 1]])
        with pytest.raises(ValueError):
            allocation_savings(alloc, demand, np.ones(3))
