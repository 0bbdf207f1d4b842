"""Scripted state-machine tests for the CoCG control loop.

These drive :meth:`CoCGScheduler.control` with *crafted telemetry
windows* (the session object is placed but never advanced), so each
§IV-B2 path fires deterministically:

* loading → predicted stage start (``stage-start``);
* a transient dip misjudged as loading, reverted next tick
  (``transient-revert`` — the Figs 9/10 robustness story);
* a wrong stage belief re-matched by the rehearsal callback
  (``callback``) with the Eq-1 cushion;
* a starved, ceiling-pinned session probed upward (``probe``);
* a pinned window whose GPU drops far below its grant: a loading frame
  ends the stage (``stage-end``), an execution frame is still probed.
"""

import numpy as np
import pytest

from repro.core.scheduler import CoCGConfig, CoCGScheduler
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.resources import ResourceVector
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder


@pytest.fixture
def rig(toy_spec, toy_profile):
    """A scheduler hosting one (never-advanced) toy session."""
    allocator = Allocator(Server("s", gpus=[GPUDevice()]))
    scheduler = CoCGScheduler(allocator, config=CoCGConfig())
    session = GameSession(toy_spec, "full", seed=0)
    decision = scheduler.try_admit(session.session_id, toy_profile, lambda: session, time=0)
    assert decision.admitted
    telemetry = TelemetryRecorder(noise_std=0.0, seed=0)
    lib = toy_profile.library
    quiet, heavy = sorted(lib.execution_types, key=lambda t: lib.stats(t).mean[1])
    return {
        "scheduler": scheduler,
        "session": session,
        "telemetry": telemetry,
        "lib": lib,
        "quiet": quiet,
        "heavy": heavy,
        "t": 0,
    }


def feed(rig, vector, *, seconds=5):
    """Record ``seconds`` of identical telemetry, then run one control
    cycle."""
    sid = rig["session"].session_id
    alloc = rig["scheduler"].allocation_of(sid)
    for _ in range(seconds):
        rig["telemetry"].record(
            rig["t"], sid, ResourceVector.from_array(vector), alloc
        )
        rig["t"] += 1
    rig["scheduler"].control(rig["t"], rig["telemetry"])


def actions(rig):
    return [d.action for d in rig["scheduler"].decision_log]


def stage_mean(rig, type_id):
    return rig["lib"].stats(type_id).mean


def loading_usage(rig):
    """Loading-like usage kept safely under the granted ceiling."""
    mean = rig["lib"].stats(rig["lib"].loading_type).mean.copy()
    mean[0] *= 0.9  # float below the ceiling so nothing pins
    return mean


class TestStateMachine:
    def test_stage_start_as_predicted(self, rig):
        feed(rig, loading_usage(rig))  # boot loading confirmed
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        predicted = ctl.predicted
        assert predicted is not None
        feed(rig, stage_mean(rig, predicted))
        assert "stage-start" in actions(rig)
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "execution"
        assert ctl.believed == predicted
        assert ctl.adjuster.total_errors == 0

    def _enter_heavy(self, rig):
        """Drive the scheduler until it believes the heavy stage.

        Boot loading → (predicted) first stage → feed heavy usage until
        the probe/callback machinery settles on heavy.  Returns the
        control state.
        """
        feed(rig, loading_usage(rig))
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        feed(rig, stage_mean(rig, ctl.predicted))
        heavy = rig["heavy"]
        for _ in range(6):
            ctl = rig["scheduler"].sessions[rig["session"].session_id]
            if ctl.phase == "execution" and ctl.believed == heavy:
                return ctl
            feed(rig, stage_mean(rig, heavy))
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "execution" and ctl.believed == heavy
        return ctl

    def test_transient_dip_recovers(self, rig):
        """A one-tick dip that looks like loading must not strand the
        session: within two detection ticks of the stage resuming, the
        scheduler believes the right stage again (via the transient
        revert or the promote-then-callback path)."""
        heavy = rig["heavy"]
        self._enter_heavy(rig)
        dip = np.array([36.0, 5.0, 9.0, 9.0])  # loading-like transient
        feed(rig, dip)
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "loading"  # misjudged — the Figs 9/10 event
        assert ctl.maybe_transient
        for _ in range(3):
            feed(rig, stage_mean(rig, heavy))
            ctl = rig["scheduler"].sessions[rig["session"].session_id]
            if ctl.phase == "execution" and ctl.believed == heavy:
                break
        assert ctl.phase == "execution" and ctl.believed == heavy
        acts = actions(rig)
        assert (
            "transient-revert" in acts
            or "callback" in acts
            or "stage-start" in acts
        )

    def test_real_loading_confirmed_after_second_window(self, rig):
        self._enter_heavy(rig)
        dip = np.array([36.0, 5.0, 9.0, 9.0])
        feed(rig, dip)   # loading begins…
        feed(rig, loading_usage(rig))   # …and persists
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "loading"
        assert not ctl.maybe_transient  # confirmed real
        assert rig["heavy"] in ctl.exec_history

    def test_rehearsal_callback_rematches_stage(self, rig):
        """With the heavy stage believed, sustained quiet-stage usage is
        re-matched by the rehearsal callback (quiet fits under the heavy
        ceiling, so no clipping masks it)."""
        heavy, quiet = rig["heavy"], rig["quiet"]
        self._enter_heavy(rig)
        feed(rig, stage_mean(rig, quiet))  # reality disagrees, unclipped
        assert "callback" in actions(rig)
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.believed == quiet
        assert ctl.adjuster.total_errors >= 1
        # Eq-1 cushion applied on the callback grant…
        assert ctl.redundant
        # …and released once the stage is confirmed.
        feed(rig, stage_mean(rig, quiet))
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert not ctl.redundant

    def test_pinned_window_probes_upward(self, rig):
        feed(rig, loading_usage(rig))
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        predicted = ctl.predicted
        feed(rig, stage_mean(rig, predicted))
        sid = rig["session"].session_id
        before = rig["scheduler"].allocation_of(sid)
        # Usage pinned exactly at the ceiling on every meaningful dim.
        feed(rig, before.array.copy())
        assert "probe" in actions(rig)
        after = rig["scheduler"].allocation_of(sid)
        assert after.dominates(before)
        assert np.any(after.array > before.array + 1e-9)

    def _gpu_drop(self, rig, base):
        """``base`` pinned at the heavy stage's CPU ceiling with GPU
        usage at most 0.6x its grant: the voluntary-GPU-drop test then
        reads the frame's judgment."""
        self._enter_heavy(rig)
        granted = rig["scheduler"].allocation_of(rig["session"].session_id)
        frame = base.copy()
        frame[0] = granted.cpu
        frame[1] = min(frame[1], 0.6 * granted.gpu)
        return frame

    def test_pinned_gpu_drop_on_a_loading_frame_ends_the_stage(self, rig):
        lib = rig["lib"]
        frame = self._gpu_drop(rig, lib.stats(lib.loading_type).mean)
        assert lib.classify_frame(frame) in lib.loading_clusters
        seen = len(actions(rig))
        feed(rig, frame)
        assert actions(rig)[seen:] == ["stage-end"]
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "loading"

    def test_pinned_gpu_drop_on_an_execution_frame_probes(self, rig):
        lib = rig["lib"]
        frame = self._gpu_drop(rig, stage_mean(rig, rig["heavy"]))
        assert lib.classify_frame(frame) not in lib.loading_clusters
        seen = len(actions(rig))
        feed(rig, frame)
        assert actions(rig)[seen:] == ["probe"]
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        assert ctl.phase == "execution" and ctl.believed == rig["heavy"]

    def test_decision_log_orders_by_time(self, rig):
        feed(rig, loading_usage(rig))
        ctl = rig["scheduler"].sessions[rig["session"].session_id]
        feed(rig, stage_mean(rig, ctl.predicted))
        times = [d.time for d in rig["scheduler"].decision_log]
        assert times == sorted(times)
        assert rig["scheduler"].decision_log[0].action == "admit"
