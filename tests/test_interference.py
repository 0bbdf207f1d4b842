"""Tests for the shared-resource interference model."""

import numpy as np
import pytest

from repro.baselines import CoCGStrategy
from repro.platform_.interference import InterferenceModel
from repro.platform_.resources import ResourceVector
from repro.cluster.experiment import ColocationExperiment


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class TestModel:
    def test_lone_session_never_slowed(self):
        m = InterferenceModel()
        slow = m.slowdowns({"a": rv(cpu=90, gpu_mem=90)})
        assert slow == {"a": 1.0}

    def test_disabled_model(self):
        m = InterferenceModel.disabled()
        slow = m.slowdowns({"a": rv(cpu=90), "b": rv(cpu=90)})
        assert slow == {"a": 1.0, "b": 1.0}

    def test_neighbour_pressure_slows(self):
        m = InterferenceModel(intensity=0.1)
        slow = m.slowdowns({"victim": rv(cpu=10), "bully": rv(cpu=90, gpu_mem=80)})
        assert slow["victim"] > 1.0

    def test_own_usage_does_not_count(self):
        """A session's own pressure must not inflate its own demand."""
        m = InterferenceModel(intensity=0.1)
        light = m.slowdowns({"v": rv(cpu=5), "b": rv(cpu=80)})["v"]
        heavy = m.slowdowns({"v": rv(cpu=95), "b": rv(cpu=80)})["v"]
        assert light == pytest.approx(heavy)

    def test_more_neighbours_more_slowdown(self):
        m = InterferenceModel(intensity=0.1, saturation=3.0)
        two = m.slowdowns({"v": rv(), "b1": rv(cpu=60)})["v"]
        three = m.slowdowns({"v": rv(), "b1": rv(cpu=60), "b2": rv(cpu=60)})["v"]
        assert three > two

    def test_saturation_caps_inflation(self):
        m = InterferenceModel(intensity=0.1, saturation=0.5)
        sessions = {f"b{i}": rv(cpu=100, gpu_mem=100) for i in range(5)}
        sessions["v"] = rv()
        assert m.slowdowns(sessions)["v"] == pytest.approx(1.1)

    def test_inflate_clips_at_100(self):
        m = InterferenceModel()
        out = m.inflate(rv(gpu=98), 1.1)
        assert out.gpu == 100.0

    def test_inflate_rejects_speedup(self):
        with pytest.raises(ValueError):
            InterferenceModel().inflate(rv(), 0.9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InterferenceModel(intensity=-0.1)
        with pytest.raises(ValueError):
            InterferenceModel(saturation=0)
        with pytest.raises(ValueError):
            InterferenceModel(cpu_weight=0, mem_weight=0)


class TestExperimentIntegration:
    def test_interference_lowers_qos(self, toy_profile):
        """Co-located sessions under contention must lose some FPS
        relative to the isolated substrate."""
        profiles = {"toygame": toy_profile}

        def run(interference):
            return ColocationExperiment(
                profiles,
                CoCGStrategy(),
                horizon=900,
                seed=4,
                max_concurrent=3,
                interference=interference,
            ).run()

        clean = run(None)
        noisy = run(InterferenceModel(intensity=0.3, saturation=0.8))
        assert (
            noisy.fraction_of_best["toygame"]
            < clean.fraction_of_best["toygame"]
        )

    def test_zero_intensity_matches_disabled(self, toy_profile):
        profiles = {"toygame": toy_profile}

        def run(interference):
            r = ColocationExperiment(
                profiles,
                CoCGStrategy(),
                horizon=600,
                seed=4,
                max_concurrent=2,
                interference=interference,
            ).run()
            return r.completed_runs, round(r.fraction_of_best["toygame"], 6)

        assert run(None) == run(InterferenceModel.disabled())
