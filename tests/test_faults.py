"""Tests for ``repro.faults``: injection, degradation, deterministic replay."""

import json

import numpy as np
import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import (
    ClusterScheduler,
    FleetExperiment,
    FleetNode,
    NodeHealth,
)
from repro.core.scheduler import CoCGConfig, CoCGScheduler
from repro.faults import (
    BreakerState,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PredictorHealth,
    validate_plan_payload,
)
from repro.games.player import PlayerModel
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.profile import WEAK_GPU_PLATFORM
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryPerturbation, TelemetryRecorder
from repro.workloads.requests import GameRequest


@pytest.fixture(autouse=True)
def _heal_toy_predictors(toy_profile):
    """Undo injected predictor failures on the session-scoped profile.

    Plans without a recovery fault leave ``failure_injected`` set on the
    shared fixture's backends, which would poison every later test.
    """
    yield
    for predictor in toy_profile.predictors.values():
        predictor.failure_injected = False


def make_request(spec, rid=0, script=None):
    player = PlayerModel(f"p{rid}", spec.category, seed=0)
    return GameRequest(
        spec, script or spec.scripts[0].name, player, arrival=0.0, request_id=rid
    )


def make_scheduler(**config_kwargs):
    server = Server("s", gpus=[GPUDevice()])
    allocator = Allocator(server, utilization_cap=0.95)
    return CoCGScheduler(allocator, config=CoCGConfig(**config_kwargs))


def drive(scheduler, sessions, telemetry, seconds, start=0):
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


# ----------------------------------------------------------------------
# The circuit breaker
# ----------------------------------------------------------------------
class TestPredictorHealth:
    def test_opens_after_threshold_consecutive_failures(self):
        health = PredictorHealth(threshold=3, cooldown=60.0)
        health.record_failure(0.0)
        health.record_failure(1.0)
        assert health.state is BreakerState.CLOSED
        health.record_failure(2.0)
        assert health.state is BreakerState.OPEN
        assert health.open_count == 1

    def test_success_resets_the_consecutive_count(self):
        health = PredictorHealth(threshold=2)
        health.record_failure(0.0)
        health.record_success()
        health.record_failure(1.0)
        assert health.state is BreakerState.CLOSED

    def test_open_blocks_until_cooldown(self):
        health = PredictorHealth(threshold=1, cooldown=60.0)
        health.record_failure(10.0)
        assert not health.allow(11.0)
        assert not health.allow(69.0)
        assert health.allow(70.0)  # half-open probe permitted
        assert health.state is BreakerState.HALF_OPEN

    def test_probe_success_recloses(self):
        health = PredictorHealth(threshold=1, cooldown=10.0)
        health.record_failure(0.0)
        assert health.allow(10.0)
        health.record_success()
        assert health.state is BreakerState.CLOSED
        assert health.allow(10.0)

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        health = PredictorHealth(threshold=3, cooldown=10.0)
        for t in range(3):
            health.record_failure(float(t))
        assert health.allow(12.0)
        health.record_failure(12.0)  # a single probe failure re-trips
        assert health.state is BreakerState.OPEN
        assert not health.allow(21.0)
        assert health.allow(22.0)
        assert health.open_count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictorHealth(threshold=0)
        with pytest.raises(ValueError):
            PredictorHealth(cooldown=-1.0)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def plan(self):
        return (
            FaultPlan(seed=11)
            .node_crash(120.0, "n1", recover_after=60.0)
            .telemetry_dropout(0.0, duration=300.0, rate=0.02)
            .predictor_failure(90.0, game="toygame")
            .session_kill(200.0, session="toygame-", requeue=False)
        )

    def test_scheduled_is_time_ordered(self):
        times = [s.time for s in self.plan().scheduled()]
        assert times == sorted(times)

    def test_json_round_trip(self):
        plan = self.plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == plan.seed
        assert clone.faults == plan.faults

    def test_to_dict_omits_defaults(self):
        spec = FaultPlan().node_crash(10.0, "n0").faults[0]
        payload = spec.to_dict()
        assert "session" not in payload and "rate" not in payload

    def test_shifted(self):
        plan = self.plan().shifted(30.0)
        assert plan.faults[0].time == 150.0
        assert len(plan) == 4

    def test_stream_seeds_are_stable_and_distinct(self):
        plan = self.plan()
        specs = plan.scheduled()
        seeds = [plan.stream_seed(i, s) for i, s in enumerate(specs)]
        assert seeds == [plan.stream_seed(i, s) for i, s in enumerate(specs)]
        assert len(set(seeds)) == len(seeds)

    def test_session_prefix_matching(self):
        spec = FaultSpec(FaultKind.SESSION_KILL, 1.0, session="toygame-r2")
        assert spec.matches_session("toygame-r2@n0")
        assert spec.matches_session("toygame-r2.1@n1")
        assert not spec.matches_session("toygame-r3@n0")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NODE_CRASH, -1.0)
        with pytest.raises(ValueError):
            FaultPlan().telemetry_dropout(0.0, rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NODE_CRASH, 0.0, recover_after=0.0)


class TestProvisioningFaultSerialization:
    """Round trips and strict parsing for the lifecycle fault kinds."""

    def plan(self):
        return (
            FaultPlan(seed=7)
            .provision_fail(30.0, duration=45.0)
            .provision_stall(60.0, duration=30.0, stall=20.0)
            .spot_reclaim(120.0, "n0", notice=90.0, requeue=False)
            .warm_pool_exhaust(150.0, duration=75.0)
        )

    def test_round_trip_preserves_new_kinds(self):
        plan = self.plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.faults == plan.faults
        reclaim = clone.faults[2]
        assert reclaim.kind is FaultKind.SPOT_RECLAIM
        assert reclaim.notice == 90.0
        assert reclaim.requeue is False

    def test_defaults_are_elided(self):
        spec = FaultPlan().spot_reclaim(10.0, "n0").faults[0]
        payload = spec.to_dict()
        assert "notice" not in payload  # default 120.0 elided
        assert "stall" not in payload
        assert "requeue" not in payload
        stall = FaultPlan().provision_stall(10.0).faults[0]
        assert "stall" not in stall.to_dict()  # default 30.0 elided

    def test_serialization_is_byte_stable(self):
        a = json.dumps(self.plan().to_dict(), sort_keys=True)
        b = json.dumps(self.plan().to_dict(), sort_keys=True)
        assert a == b
        c = json.dumps(
            FaultPlan.from_dict(self.plan().to_dict()).to_dict(),
            sort_keys=True,
        )
        assert a == c

    def test_unknown_key_rejected_by_name(self):
        payload = self.plan().to_dict()
        payload["faults"][0]["grace"] = 5.0
        with pytest.raises(ValueError, match="grace"):
            FaultPlan.from_dict(payload)

    def test_unknown_kind_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="spot-reclaim"):
            FaultSpec.from_dict({"kind": "meteor-strike", "time": 1.0})

    def test_validate_plan_payload_accepts_good_plans(self):
        assert validate_plan_payload(self.plan().to_dict()) == []

    def test_validate_plan_payload_reports_each_problem(self):
        problems = validate_plan_payload(
            {
                "seed": "eleven",
                "faults": [
                    {"kind": "meteor-strike", "time": 1.0},
                    {"kind": "spot-reclaim", "time": 2.0, "grace": 1.0},
                    {"kind": "node-crash"},
                ],
                "extra": True,
            }
        )
        assert len(problems) == 5
        assert any("extra" in p for p in problems)
        assert any("seed" in p for p in problems)
        assert any(p.startswith("faults[0]:") for p in problems)
        assert any("grace" in p for p in problems)
        assert any("time" in p for p in problems)

    def test_validate_plan_payload_requires_a_mapping(self):
        assert validate_plan_payload([1, 2]) != []
        assert validate_plan_payload({"seed": 1, "faults": "nope"}) != []

    @pytest.mark.parametrize("field, value", [
        ("duration", float("nan")),
        ("duration", "z"),
        ("recover_after", float("nan")),
        ("recover_after", float("inf")),
        ("recover_after", "5"),
        ("std", [1]),
        ("rate", True),
        ("time", "z"),
        ("node", 3),
        ("node", None),
        ("session", 7),
        ("game", None),
        ("backend", ["dtc"]),
        ("requeue", 1),
        ("requeue", "yes"),
    ])
    def test_malformed_value_is_rejected_by_field_name(self, field, value):
        entry = {"kind": "node-crash", "time": 1.0, field: value}
        problems = validate_plan_payload({"faults": [entry]})
        assert len(problems) == 1
        assert problems[0].startswith(f"faults[0]: {field} must be"), problems
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FaultPlan.from_dict({"faults": [entry]})

    def test_open_ended_and_integer_values_stay_valid(self):
        spec = FaultSpec(FaultKind.NODE_CRASH, 120, recover_after=180)
        assert spec.duration == float("inf")
        assert validate_plan_payload({"faults": [spec.to_dict()]}) == []


# ----------------------------------------------------------------------
# Telemetry perturbations
# ----------------------------------------------------------------------
class TestTelemetryPerturbations:
    def record_steady(self, recorder, seconds=100, sid="s@n0"):
        from repro.platform_.resources import ResourceVector

        demand = ResourceVector(cpu=30, gpu=40, gpu_mem=20, ram=15)
        alloc = ResourceVector(cpu=50, gpu=60, gpu_mem=40, ram=30)
        for t in range(seconds):
            recorder.record(t, sid, demand, alloc)

    def test_dropout_masks_samples(self):
        recorder = TelemetryRecorder(noise_std=0.0, seed=0)
        recorder.add_perturbation(
            TelemetryPerturbation(kind="dropout", start=0.0, rate=0.5, seed=3)
        )
        self.record_steady(recorder)
        assert 0.2 < recorder.valid_fraction("s@n0") < 0.8
        assert recorder.dropped_samples > 0
        window = recorder.observed_window("s@n0", 20)
        assert window is not None and not np.isnan(window).any()

    def test_total_dropout_yields_no_window(self):
        recorder = TelemetryRecorder(noise_std=0.0, seed=0)
        recorder.add_perturbation(
            TelemetryPerturbation(kind="dropout", start=0.0, rate=1.0, seed=3)
        )
        self.record_steady(recorder, seconds=10)
        assert recorder.observed_window("s@n0", 5) is None
        assert recorder.valid_fraction("s@n0") == 0.0

    def test_dropout_is_seed_deterministic(self):
        def run():
            recorder = TelemetryRecorder(noise_std=0.0, seed=0)
            recorder.add_perturbation(
                TelemetryPerturbation(
                    kind="dropout", start=0.0, rate=0.3, seed=9
                )
            )
            self.record_steady(recorder)
            return recorder.digest()

        assert run() == run()

    def test_window_and_node_targeting(self):
        recorder = TelemetryRecorder(noise_std=0.0, seed=0)
        recorder.add_perturbation(
            TelemetryPerturbation(
                kind="dropout", start=50.0, end=60.0, rate=1.0,
                node="n0", seed=1,
            )
        )
        self.record_steady(recorder, sid="s@n0")
        self.record_steady(recorder, sid="s@n1")
        assert recorder.valid_fraction("s@n0") == pytest.approx(0.9)
        assert recorder.valid_fraction("s@n1") == 1.0

    def test_noise_perturbs_observations(self):
        clean = TelemetryRecorder(noise_std=0.0, seed=0)
        noisy = TelemetryRecorder(noise_std=0.0, seed=0)
        noisy.add_perturbation(
            TelemetryPerturbation(kind="noise", start=0.0, std=5.0, seed=4)
        )
        self.record_steady(clean, seconds=20)
        self.record_steady(noisy, seconds=20)
        a = clean.observed_series("s@n0").values
        b = noisy.observed_series("s@n0").values
        assert not np.allclose(a, b)
        assert noisy.digest() != clean.digest()

    def test_fault_events_enter_the_digest(self):
        a = TelemetryRecorder(noise_std=0.0, seed=0)
        b = TelemetryRecorder(noise_std=0.0, seed=0)
        self.record_steady(a, seconds=5)
        self.record_steady(b, seconds=5)
        b.record_fault_event(3.0, "node-crash", "n0")
        assert a.digest() != b.digest()
        assert b.fault_events[0].kind == "node-crash"


# ----------------------------------------------------------------------
# Scheduler degradation (the breaker in the control loop)
# ----------------------------------------------------------------------
class TestSchedulerDegradation:
    def broken_predictors(self, monkeypatch, profile):
        for predictor in profile.predictors.values():
            monkeypatch.setattr(predictor, "failure_injected", True)

    def test_prior_served_while_backends_fail(
        self, monkeypatch, toy_spec, toy_profile
    ):
        sched = make_scheduler(failure_threshold=2)
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        session = GameSession(toy_spec, "full", seed=3)
        assert sched.try_admit(session.session_id, toy_profile, lambda: session, time=0).admitted
        self.broken_predictors(monkeypatch, toy_profile)
        drive(sched, [session], telemetry, 150)
        ctl = sched.sessions[session.session_id]
        assert ctl.prior_served > 0
        assert ctl.health.total_failures > 0

    def test_breaker_opens_and_session_degrades(
        self, monkeypatch, toy_spec, toy_profile
    ):
        sched = make_scheduler(failure_threshold=1, failure_cooldown=300.0)
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        session = GameSession(toy_spec, "full", seed=3)
        sched.try_admit(session.session_id, toy_profile, lambda: session, time=0)
        self.broken_predictors(monkeypatch, toy_profile)
        drive(sched, [session], telemetry, 150)
        assert session.session_id in sched.degraded_sessions()
        actions = {d.action for d in sched.decision_log}
        assert "degraded" in actions

    def test_degraded_allocation_follows_usage(
        self, monkeypatch, toy_spec, toy_profile
    ):
        config = dict(
            failure_threshold=1, failure_cooldown=600.0,
            degraded_margin=0.25, degraded_floor=6.0,
        )
        sched = make_scheduler(**config)
        telemetry = TelemetryRecorder(noise_std=0.0, seed=0)
        session = GameSession(toy_spec, "full", seed=3)
        sched.try_admit(session.session_id, toy_profile, lambda: session, time=0)
        self.broken_predictors(monkeypatch, toy_profile)
        drive(sched, [session], telemetry, 150)
        assert sched.degraded_sessions() == [session.session_id]
        ctl = sched.sessions[session.session_id]
        window = telemetry.observed_window(session.session_id, 5)
        expected = np.clip(
            np.maximum(window * 1.25, 6.0), 0.0, 100.0
        )
        np.testing.assert_allclose(ctl.desired.array, expected)

    def test_breaker_recloses_after_cooldown(
        self, monkeypatch, toy_spec, toy_profile
    ):
        sched = make_scheduler(failure_threshold=1, failure_cooldown=20.0)
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        session = GameSession(toy_spec, "full", seed=3)
        sched.try_admit(session.session_id, toy_profile, lambda: session, time=0)
        predictor = next(iter(toy_profile.predictors.values()))
        monkeypatch.setattr(predictor, "failure_injected", True)
        drive(sched, [session], telemetry, 150)
        assert sched.degraded_sessions() == [session.session_id]
        # Backend heals; the next post-cooldown probe must re-close.
        monkeypatch.setattr(predictor, "failure_injected", False)
        drive(sched, [session], telemetry, 60, start=150)
        assert sched.degraded_sessions() == []
        actions = {d.action for d in sched.decision_log}
        assert "breaker-close" in actions

    def test_control_errors_are_isolated_per_session(
        self, monkeypatch, toy_spec, toy_profile
    ):
        sched = make_scheduler(failure_threshold=1)
        telemetry = TelemetryRecorder(noise_std=0.5, seed=0)
        good = GameSession(toy_spec, "full", seed=1)
        bad = GameSession(toy_spec, "full", seed=2)
        sched.try_admit(good.session_id, toy_profile, lambda: good, time=0)
        sched.try_admit(bad.session_id, toy_profile, lambda: bad, time=0)
        original = CoCGScheduler._control_session

        def explode(self, ctl, window, interval):
            if ctl.session is bad:
                raise RuntimeError("boom")
            return original(self, ctl, window, interval)

        monkeypatch.setattr(CoCGScheduler, "_control_session", explode)
        drive(sched, [good, bad], telemetry, 20)
        # The bad session was quarantined, the good one kept its loop.
        assert any(e.kind == "control-error" for e in telemetry.fault_events)
        assert sched.sessions[good.session_id].health.total_failures == 0
        assert sched.sessions[bad.session_id].health.total_failures > 0


class TestMispredictionRecovery:
    def test_wrong_predictions_recover_via_callback(
        self, monkeypatch, toy_spec, toy_profile
    ):
        """Force every next-stage prediction wrong: the scheduler must
        recover through the rehearsal-callback/Eq-1 path, finish the
        session, and keep QoS accounting coherent."""
        predictor = next(iter(toy_profile.predictors.values()))
        lib = toy_profile.library
        worst = max(
            lib.execution_types, key=lambda t: lib.peak_of(t).max_component()
        )
        cheapest = min(
            lib.execution_types, key=lambda t: lib.peak_of(t).max_component()
        )

        def always_wrong(exec_history, *, player_id=None, group_hist=None):
            # Predict the cheap stage right before the heavy one lands
            # (and vice versa) so every confirmation is a mismatch.
            if exec_history and exec_history[-1] == cheapest:
                return cheapest, 0.9  # truth: heavy comes next
            return worst, 0.9

        monkeypatch.setattr(predictor, "predict_next", always_wrong)

        node = FleetNode("n0", CoCGStrategy(), {"toygame": toy_profile})
        request = make_request(toy_spec, rid=1, script="full")
        assert node.try_admit(request, time=0, seed=1)
        (sid,) = node.sessions
        t = 0
        while node.n_running and t < 1000:
            node.tick(t)
            if (t + 1) % 5 == 0:
                node.control(t + 1)
            t += 1
        assert node.completed.get("toygame", 0) == 1
        scheduler = node.strategy.scheduler
        actions = {d.action for d in scheduler.decision_log}
        # The Eq-1 redundancy path fired at least once.
        assert "callback" in actions or any(
            "re-matched" in d.detail for d in scheduler.decision_log
        )
        # Mispredictions never broke the breaker or the accounting.
        assert not scheduler.degraded_sessions()
        report = node.qos.report(sid)
        assert report.seconds > 0
        assert 0.0 <= report.violation_fraction <= 1.0
        assert report.degraded_seconds == 0


# ----------------------------------------------------------------------
# Cluster resilience: health states, requeue, dead letters
# ----------------------------------------------------------------------
class TestClusterResilience:
    def make_cluster(self, toy_profile, n=2, **kwargs):
        nodes = [
            FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile})
            for i in range(n)
        ]
        return ClusterScheduler(nodes, policy="round-robin", **kwargs)

    def test_backoff_schedule(self, toy_profile):
        cluster = self.make_cluster(toy_profile)
        assert cluster.backoff(0) == 0.0
        assert cluster.backoff(1) == 5.0
        assert cluster.backoff(2) == 10.0
        assert cluster.backoff(3) == 20.0
        assert cluster.backoff(10) == 60.0  # capped

    def test_down_node_gets_no_dispatch(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile)
        cluster.crash_node("n0", 0.0)
        for rid in range(4):
            node = cluster.dispatch(
                make_request(toy_spec, rid, "full"), time=0, seed=rid
            )
            assert node is None or node.node_id == "n1"

    def test_draining_node_keeps_sessions_but_gets_none(
        self, toy_spec, toy_profile
    ):
        cluster = self.make_cluster(toy_profile)
        node = cluster.dispatch(make_request(toy_spec, 1, "full"), time=0, seed=1)
        cluster.drain_node(node.node_id, 5.0)
        assert node.health is NodeHealth.DRAINING
        assert node.n_running == 1
        other = cluster.dispatch(make_request(toy_spec, 2, "full"), time=6, seed=2)
        assert other is not None and other.node_id != node.node_id

    def test_crash_requeues_with_incarnation(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile, n=2)
        request = make_request(toy_spec, 7, "full")
        node = cluster.dispatch(request, time=0, seed=7)
        killed = cluster.crash_node(node.node_id, 50.0)
        assert len(killed) == 1
        assert cluster.evictions == 1 and cluster.requeues == 1
        assert cluster.queue_depth == 1
        started = cluster.pump(50.0, seed_for=lambda r, inc: 100 + inc)
        assert started == [request]
        relaunched = [
            sid
            for other in cluster.nodes
            for sid in other.sessions
            if ".1@" in sid
        ]
        assert relaunched, "relaunch must carry the incarnation suffix"

    def test_kill_session_without_requeue(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile)
        cluster.dispatch(make_request(toy_spec, 1, "full"), time=0, seed=1)
        sid = cluster.kill_session(10.0, session="toygame-", requeue=False)
        assert sid is not None
        assert cluster.total_running == 0
        assert cluster.queue_depth == 0
        assert cluster.evictions == 1

    def test_retries_exhaust_into_dead_letters(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile, n=1, max_retries=2)
        cluster.crash_node("n0", 0.0)
        cluster.submit(make_request(toy_spec, 3, "full"), time=0.0)
        t = 0.0
        while cluster.queue_depth and t < 500:
            cluster.pump(t, seed_for=lambda r, inc: 1)
            t += 5.0
        assert cluster.queue_depth == 0
        assert [d.reason for d in cluster.dead_letters] == ["retries exhausted"]
        assert cluster.dead_letters[0].attempts == 3

    def test_queue_overflow_dead_letters(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile, queue_limit=1)
        assert cluster.submit(make_request(toy_spec, 1, "full"), time=0.0)
        assert not cluster.submit(make_request(toy_spec, 2, "full"), time=0.0)
        assert [d.reason for d in cluster.dead_letters] == ["queue overflow"]

    def test_crash_records_fault_events(self, toy_spec, toy_profile):
        cluster = self.make_cluster(toy_profile)
        node = cluster.dispatch(make_request(toy_spec, 1, "full"), time=0, seed=1)
        cluster.crash_node(node.node_id, 30.0)
        kinds = [e.kind for e in node.telemetry.fault_events]
        assert "node-crash" in kinds and "session-kill" in kinds


# ----------------------------------------------------------------------
# Faulted fleet experiments: replay + degradation-not-collapse
# ----------------------------------------------------------------------
class TestFaultedExperiment:
    def make_cluster(self, toy_profile, n=2, **kwargs):
        nodes = [
            FleetNode(
                f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i
            )
            for i in range(n)
        ]
        return ClusterScheduler(nodes, policy="round-robin", **kwargs)

    def plan(self, horizon=600):
        return (
            FaultPlan(seed=5)
            .node_crash(horizon // 3, "n1", recover_after=horizon // 6)
            .telemetry_dropout(0.0, duration=float(horizon), rate=0.02)
            .predictor_failure(horizon // 4, recover_after=horizon // 4)
        )

    def run_once(self, toy_spec, toy_profile, plan, horizon=600, **kwargs):
        return FleetExperiment(
            self.make_cluster(toy_profile, **kwargs),
            [toy_spec],
            horizon=horizon,
            rate_per_minute=2.0,
            seed=9,
            fault_plan=plan,
        ).run()

    def test_replay_is_byte_identical(self, toy_spec, toy_profile):
        a = self.run_once(toy_spec, toy_profile, self.plan())
        b = self.run_once(toy_spec, toy_profile, self.plan())
        assert a.telemetry_digest == b.telemetry_digest
        assert a.telemetry_digest != ""
        assert a.completed_runs == b.completed_runs
        assert a.violation_fraction == b.violation_fraction
        assert a.degraded_seconds == b.degraded_seconds
        assert a.requeues == b.requeues

    def test_faults_change_the_digest(self, toy_spec, toy_profile):
        clean = self.run_once(toy_spec, toy_profile, None)
        faulted = self.run_once(toy_spec, toy_profile, self.plan())
        assert clean.telemetry_digest != faulted.telemetry_digest
        assert clean.fault_events == []
        assert faulted.fault_events

    def test_degradation_not_collapse(self, toy_spec, toy_profile):
        """Half the fleet crashes for good and every predictor breaks:
        the run must still complete with bounded QoS damage and every
        displaced request accounted for."""
        plan = (
            FaultPlan(seed=5)
            .node_crash(200.0, "n1")  # no recovery
            .predictor_failure(150.0)  # no recovery
            .telemetry_dropout(0.0, duration=600.0, rate=0.05)
        )
        result = self.run_once(
            toy_spec, toy_profile, plan, max_retries=3
        )
        assert sum(result.completed_runs.values()) >= 1
        assert result.evictions >= 1
        assert np.isfinite(result.violation_fraction)
        assert 0.0 <= result.violation_fraction <= 0.75
        accounted = result.requeues + sum(
            1 for d in result.dead_letters if d.reason == "retries exhausted"
        )
        assert accounted >= result.evictions
        assert any("node-crash" in event for event in result.fault_events)

    def test_fleet_charges_degraded_seconds(self, toy_spec, toy_profile):
        plan = FaultPlan(seed=1).predictor_failure(50.0)
        nodes = [
            FleetNode(
                "n0",
                CoCGStrategy(
                    config=CoCGConfig(failure_threshold=1, failure_cooldown=600.0)
                ),
                {"toygame": toy_profile},
                seed=0,
            )
        ]
        result = FleetExperiment(
            ClusterScheduler(nodes),
            [toy_spec],
            horizon=400,
            rate_per_minute=2.0,
            seed=9,
            fault_plan=plan,
        ).run()
        assert result.degraded_seconds > 0


class TestPerturbedTelemetryDigest:
    """A cross-commit oracle for the perturbation branch of ``record()``.

    The corpus fault plans only kill sessions, and the chaos replay
    check compares a run with itself, so a change to how dropout, noise
    or spikes are applied would otherwise go unseen.  The pinned value
    was captured before the resource substrate moved from numpy arrays
    to float tuples.  Node ``n1`` runs on a weaker-GPU platform, so
    non-unit demand factors flow through scheduling and telemetry too.
    """

    DIGEST = (
        "0e1a385407bb760132a9b18e4f356ac45f1f10923e62dc9ff3b4f0d3f9e6cbc4"
    )

    def test_digest_is_pinned(self, toy_spec, toy_profile):
        nodes = [
            FleetNode("n0", CoCGStrategy(), {"toygame": toy_profile}, seed=0),
            FleetNode(
                "n1", CoCGStrategy(), {"toygame": toy_profile},
                platform=WEAK_GPU_PLATFORM, seed=1,
            ),
        ]
        plan = (
            FaultPlan(seed=3)
            .telemetry_dropout(0.0, duration=400.0, rate=0.1)
            .telemetry_noise(
                100.0, duration=300.0, std=2.0, spike_prob=0.3, spike_scale=60.0
            )
        )
        result = FleetExperiment(
            ClusterScheduler(nodes, policy="round-robin"),
            [toy_spec],
            horizon=600,
            rate_per_minute=3.0,
            seed=9,
            fault_plan=plan,
        ).run()
        assert result.telemetry_digest == self.DIGEST
