"""Tests for the FPS/QoS model and platform profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform_.profile import (
    BIG_SERVER_PLATFORM,
    PlatformProfile,
    REFERENCE_PLATFORM,
    WEAK_GPU_PLATFORM,
)
from repro.platform_.qos import FpsModel, QoSTracker
from repro.platform_.resources import ResourceVector


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class TestFpsModel:
    def test_full_supply_full_fps(self):
        m = FpsModel()
        assert m.fps(90, rv(cpu=40, gpu=60), rv(cpu=40, gpu=60)) == 90

    def test_frame_lock_caps(self):
        m = FpsModel()
        assert m.fps(90, rv(gpu=10), rv(gpu=10), frame_lock=60) == 60

    def test_starvation_reduces_fps(self):
        m = FpsModel(gamma=1.5)
        full = m.fps(90, rv(gpu=60), rv(gpu=60))
        starved = m.fps(90, rv(gpu=60), rv(gpu=30))
        assert starved < full
        assert starved == pytest.approx(90 * 0.5**1.5)

    def test_binding_dimension_is_the_minimum(self):
        m = FpsModel(gamma=1.0)
        fps = m.fps(100, rv(cpu=50, gpu=50), rv(cpu=25, gpu=50))
        assert fps == pytest.approx(50)

    def test_zero_demand_dimension_never_binds(self):
        m = FpsModel()
        assert m.satisfaction(rv(gpu=50), rv(gpu=50)) == 1.0

    def test_oversupply_does_not_exceed_nominal(self):
        m = FpsModel()
        assert m.fps(60, rv(gpu=10), rv(gpu=99)) == 60

    def test_best_fps(self):
        m = FpsModel()
        assert m.best_fps(90) == 90
        assert m.best_fps(90, frame_lock=60) == 60

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            FpsModel(gamma=0.5)


class TestQoSTracker:
    def test_report_aggregates(self):
        t = QoSTracker()
        t.record("s", 60, 60)
        t.record("s", 20, 60)  # a violation second
        rep = t.report("s")
        assert rep.seconds == 2
        assert rep.violation_seconds == 1
        assert rep.violation_fraction == 0.5
        assert rep.mean_fps == 40
        assert rep.min_fps == 20
        assert rep.fraction_of_best == pytest.approx((1.0 + 20 / 60) / 2)

    def test_paper_tolerance(self):
        t = QoSTracker()
        for _ in range(99):
            t.record("s", 60, 60)
        t.record("s", 10, 60)
        assert t.report("s").meets_paper_tolerance(0.05)

    def test_record_second_uses_model(self):
        t = QoSTracker(FpsModel(gamma=1.0))
        fps = t.record_second("s", 100, rv(gpu=50), rv(gpu=25))
        assert fps == pytest.approx(50)

    def test_overall_fraction_of_best(self):
        t = QoSTracker()
        t.record("a", 30, 60)
        t.record("b", 60, 60)
        assert t.overall_fraction_of_best() == pytest.approx(0.75)

    def test_missing_session(self):
        with pytest.raises(KeyError):
            QoSTracker().report("ghost")

    def test_empty_overall(self):
        with pytest.raises(RuntimeError):
            QoSTracker().overall_fraction_of_best()


class TestPlatformProfile:
    def test_reference_is_identity(self):
        d = rv(cpu=40, gpu=60)
        assert REFERENCE_PLATFORM.scale_demand(d) == d

    def test_weak_gpu_inflates_gpu_only_dims(self):
        d = rv(cpu=40, gpu=60, gpu_mem=40)
        out = WEAK_GPU_PLATFORM.scale_demand(d)
        assert out.gpu == pytest.approx(60 * 1.4)
        assert out.cpu == 40

    def test_clip_at_100(self):
        out = WEAK_GPU_PLATFORM.scale_demand(rv(gpu=90))
        assert out.gpu == 100

    def test_big_server_deflates(self):
        out = BIG_SERVER_PLATFORM.scale_demand(rv(cpu=80))
        assert out.cpu == 40

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            PlatformProfile("bad", cpu_factor=0)


@settings(max_examples=50, deadline=None)
@given(
    demand=st.floats(1, 100),
    alloc=st.floats(0, 100),
    gamma=st.floats(1, 3),
)
def test_fps_monotone_in_allocation(demand, alloc, gamma):
    """Property: more allocation never lowers FPS."""
    m = FpsModel(gamma=gamma)
    d = rv(gpu=demand)
    lo = m.fps(100, d, rv(gpu=alloc))
    hi = m.fps(100, d, rv(gpu=min(alloc + 10, 100)))
    assert hi >= lo - 1e-9
