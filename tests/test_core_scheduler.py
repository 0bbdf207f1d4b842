"""Tests for the CoCG scheduler's online control loop."""

import numpy as np
import pytest

from repro.core.scheduler import CoCGConfig, CoCGScheduler
from repro.core.regulator import RegulatorConfig
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.resources import ResourceVector
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder


def make_scheduler(cap=0.95, **config_kwargs):
    server = Server("s", gpus=[GPUDevice()])
    allocator = Allocator(server, utilization_cap=cap)
    return CoCGScheduler(allocator, config=CoCGConfig(**config_kwargs))


def drive(scheduler, sessions, telemetry, seconds, start=0):
    """Advance sessions under the scheduler for a stretch of seconds."""
    for t in range(start, start + seconds):
        for session in list(sessions):
            if session.finished:
                continue
            alloc = scheduler.allocation_of(session.session_id)
            tick = session.advance(alloc)
            telemetry.record(t, session.session_id, tick.demand, alloc)
        if (t + 1) % 5 == 0:
            scheduler.control(t + 1, telemetry)
    return start + seconds


class TestAdmission:
    def test_admit_and_place(self, toy_spec, toy_profile):
        sched = make_scheduler()
        s = GameSession(toy_spec, "full", seed=0)
        decision = sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        assert decision.admitted
        assert s.session_id in sched.sessions
        assert sched.allocation_of(s.session_id).is_nonnegative()

    def test_release(self, toy_spec, toy_profile):
        sched = make_scheduler()
        s = GameSession(toy_spec, "full", seed=0)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        sched.release(s.session_id, time=1)
        assert s.session_id not in sched.sessions

    def test_reject_when_full(self, toy_spec, toy_profile):
        sched = make_scheduler()
        admitted = 0
        for i in range(12):
            s = GameSession(toy_spec, "full", seed=i)
            if sched.try_admit(s.session_id, toy_profile, lambda: s, time=0).admitted:
                admitted += 1
        assert 1 <= admitted < 12
        assert sched.rejections > 0


class TestControlLoop:
    def test_tracks_stage_transitions(self, toy_spec, toy_profile):
        sched = make_scheduler()
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        s = GameSession(toy_spec, "full", seed=3)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        drive(sched, [s], telemetry, 60)
        ctl = sched.sessions[s.session_id]
        # After a minute the session is in its quiet stage and the
        # scheduler believes an execution type.
        assert ctl.phase == "execution"
        assert ctl.believed is not None

    def test_allocation_follows_stage(self, toy_spec, toy_profile):
        """The granted ceiling during the quiet stage must sit well below
        the heavy-stage plan (the whole point of stage awareness)."""
        sched = make_scheduler()
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        s = GameSession(toy_spec, "full", seed=3)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        quiet_allocs, heavy_allocs = [], []
        t = 0
        while not s.finished:
            alloc = sched.allocation_of(s.session_id)
            tick = s.advance(alloc)
            telemetry.record(t, s.session_id, tick.demand, alloc)
            if tick.stage_name == "quiet":
                quiet_allocs.append(alloc.gpu)
            elif tick.stage_name == "heavy":
                heavy_allocs.append(alloc.gpu)
            t += 1
            if t % 5 == 0:
                sched.control(t, telemetry)
        assert np.mean(quiet_allocs) < np.mean(heavy_allocs)

    def test_never_exceeds_cap(self, toy_spec, toy_profile):
        sched = make_scheduler()
        telemetry = TelemetryRecorder(noise_std=0.5, seed=1)
        sessions = []
        for i in range(3):
            s = GameSession(toy_spec, "full", seed=10 + i)
            if sched.try_admit(s.session_id, toy_profile, lambda: s, time=0).admitted:
                sessions.append(s)
        assert len(sessions) >= 2
        server = sched.allocator.server
        for t in range(120):
            for s in sessions:
                if s.finished:
                    continue
                alloc = sched.allocation_of(s.session_id)
                tick = s.advance(alloc)
                telemetry.record(t, s.session_id, tick.demand, alloc)
            if (t + 1) % 5 == 0:
                sched.control(t + 1, telemetry)
            host = server.allocated_host()
            dev = server.allocated_gpu(0)
            assert host[0] <= 95 + 1e-6
            assert dev[0] <= 95 + 1e-6

    def test_prediction_preallocates_next_stage(self, toy_spec, toy_profile):
        """Entering the mid-loading stage must trigger a prediction for
        the heavy stage (the §IV-B pipeline)."""
        sched = make_scheduler()
        telemetry = TelemetryRecorder(noise_std=0.5, seed=2)
        s = GameSession(toy_spec, "full", seed=5)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        saw_loading_with_prediction = False
        t = 0
        while not s.finished and t < 400:
            alloc = sched.allocation_of(s.session_id)
            tick = s.advance(alloc)
            telemetry.record(t, s.session_id, tick.demand, alloc)
            t += 1
            if t % 5 == 0:
                sched.control(t, telemetry)
                ctl = sched.sessions[s.session_id]
                if (
                    ctl.phase == "loading"
                    and tick.stage_name == "mid"
                    and ctl.predicted is not None
                ):
                    saw_loading_with_prediction = True
        assert saw_loading_with_prediction

    def test_regulator_disabled_config(self, toy_spec, toy_profile):
        sched = make_scheduler(regulator=RegulatorConfig(enabled=False))
        telemetry = TelemetryRecorder(noise_std=0.5, seed=3)
        s = GameSession(toy_spec, "full", seed=6)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        drive(sched, [s], telemetry, 100)
        assert sched.regulator.holds_started == 0


class TestSessionControlView:
    def test_predicted_peaks_nonempty(self, toy_spec, toy_profile):
        sched = make_scheduler()
        s = GameSession(toy_spec, "full", seed=0)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        ctl = sched.sessions[s.session_id]
        peaks = ctl.predicted_peaks(3)
        assert 1 <= len(peaks) <= 3
        for p in peaks:
            assert p.is_nonnegative()

    def test_min_allocation_compressible_while_loading(self, toy_spec, toy_profile):
        sched = make_scheduler()
        s = GameSession(toy_spec, "full", seed=0)
        sched.try_admit(s.session_id, toy_profile, lambda: s, time=0)
        ctl = sched.sessions[s.session_id]
        assert ctl.phase == "loading"
        assert ctl.min_allocation().cpu < ctl.desired.cpu

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CoCGConfig(detect_interval=0)
