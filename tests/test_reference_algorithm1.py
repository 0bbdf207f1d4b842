"""A reference Algorithm-1, and production checked against it.

The reference is the paper's pseudocode (§IV-C1, Algorithm 1) written as
straight loops over :class:`ResourceVector`: sum the running tasks'
current consumption, admit if the newcomer's entry still fits, else roll
every task forward ``N`` iterations, take the worst per-step
co-consumption ``M`` and admit when ``M`` plus the newcomer's steady
peak stays within the budget.  It has no batching, no lazy evaluation
and no memo.

Production answers the same question through
:meth:`Distributor.begin_batch` / :class:`BatchEvaluation` (one shared
snapshot per running set, ``M`` computed lazily), with each session's
rollout memoized by :meth:`SessionControl.predicted_peaks`.  Any optimisation
of that path (vectorising it, changing the vector representation) must
keep every decision and every ``predicted_peak`` bit-identical to the
reference.

:class:`CoCGScheduler` keeps one snapshot per node state and shares it
between admission questions, remembering the capped placements refused
under it.  The reference, :class:`FreshScheduler`, asks
:meth:`Distributor.can_admit` afresh for every request and attempts
every placement.
Random interleavings of admissions, control cycles and releases must
leave both with the same decisions, logs and counters.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributor import AdmissionDecision, Distributor
from repro.core.health import PredictorHealth
from repro.core.scheduler import CoCGScheduler, SessionControl
from repro.games.player import PlayerModel
from repro.games.session import GameSession
from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.resources import ResourceVector
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder


def reference_algorithm1(capacity, horizon, tolerance, running, entry, steady):
    """Algorithm 1 over ``running``: ``(consumption, rollout peaks)`` pairs.

    Returns ``(admitted, predicted_peak)``.
    """
    budget = capacity * (1.0 + tolerance)
    # Lines 3-9: the running tasks' summed current consumption.
    consumption = ResourceVector.zeros()
    for current, _peaks in running:
        consumption = consumption + current
    if not (consumption + entry).fits_within(capacity):
        return False, consumption + entry
    if not running:
        return steady.fits_within(budget), steady
    # Lines 10-25: co-consumption at each of the N predicted steps; a
    # task whose rollout is shorter than N stays at its last stage.
    step_totals = []
    for n in range(horizon):
        total = ResourceVector.zeros()
        for _current, peaks in running:
            if peaks:
                total = total + peaks[min(n, len(peaks) - 1)]
        step_totals.append(total)
    worst = ResourceVector.zeros()
    for total in step_totals:
        worst = worst.maximum(total)
    predicted = worst + steady
    return predicted.fits_within(budget), predicted


def reference_consumption(task):
    """A loading task counts at its compressible footprint when it has one."""
    min_alloc = getattr(task, "min_allocation", None)
    return min_alloc() if callable(min_alloc) else task.current_allocation


def assert_same_decision(decision, expected):
    admitted, peak = expected
    assert decision.admitted == admitted
    assert decision.predicted_peak.array.tobytes() == peak.array.tobytes()


# ----------------------------------------------------------------------
# Synthetic running sets, rollouts served through the session memo
# ----------------------------------------------------------------------
components = st.floats(0, 60, allow_nan=False, allow_infinity=False)
vectors = st.builds(
    lambda c, g, m, r: ResourceVector(cpu=c, gpu=g, gpu_mem=m, ram=r),
    components, components, components, components,
)


class CachedTask:
    """A task view whose rollout goes through
    :meth:`SessionControl.predicted_peaks` and its per-session memo."""

    predicted_peaks = SessionControl.predicted_peaks

    def __init__(self, current, peaks, minimum):
        self.current_allocation = current
        # Only loading tasks expose a compressible footprint.
        self.min_allocation = None if minimum is None else (lambda: minimum)
        self._peaks = peaks
        self._peaks_cache = {}

    def _compute_peaks(self, horizon):
        return list(self._peaks)

    def reference_peaks(self):
        return list(self._peaks)


tasks = st.tuples(
    vectors,
    st.lists(vectors, min_size=0, max_size=5),
    st.one_of(st.none(), vectors),
)


@settings(max_examples=150, deadline=None)
@given(
    running=st.lists(tasks, min_size=0, max_size=6),
    candidates=st.lists(st.tuples(vectors, vectors), min_size=1, max_size=5),
    capacity=st.builds(lambda x: ResourceVector.full(x), st.floats(50, 200)),
    horizon=st.integers(1, 5),
    tolerance=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
)
def test_batch_path_matches_reference_on_synthetic_sets(
    running, candidates, capacity, horizon, tolerance
):
    views = [
        CachedTask(current, peaks, minimum)
        for current, peaks, minimum in running
    ]
    distributor = Distributor(
        capacity, horizon=horizon, overshoot_tolerance=tolerance
    )
    reference_running = [
        (reference_consumption(v), v.reference_peaks()) for v in views
    ]
    # Two batches over the same set: the second is served from the memo.
    for _ in range(2):
        batch = distributor.begin_batch(views)
        for entry, steady in candidates:
            expected = reference_algorithm1(
                capacity, horizon, tolerance, reference_running, entry, steady
            )
            assert_same_decision(batch.evaluate(entry, steady), expected)
            assert_same_decision(
                distributor.can_admit(entry, steady, views), expected
            )


# ----------------------------------------------------------------------
# Real scheduler sessions mid-run
# ----------------------------------------------------------------------
def reference_rollout(ctl, horizon):
    """Predict the next ``horizon`` stages and map each to its plan."""
    start = ctl.believed if ctl.phase == "execution" else ctl.predicted
    chain = ctl.predictor.rollout(
        ctl.exec_history, horizon, start=start, player_id=ctl.player_id
    )
    if not chain:
        return [ctl.desired]
    return [ctl.planner.for_execution(t, redundancy=False) for t in chain]


@settings(max_examples=12, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    seconds=st.integers(0, 150),
    extra=st.lists(st.tuples(vectors, vectors), max_size=3),
)
def test_scheduler_admission_matches_reference(
    toy_spec, toy_profile, seeds, seconds, extra
):
    server = Server("s", gpus=[GPUDevice()])
    scheduler = CoCGScheduler(Allocator(server, utilization_cap=0.95))
    telemetry = TelemetryRecorder(seed=0)
    sessions = []
    for i, seed in enumerate(seeds):
        player = PlayerModel(f"p{i}", toy_spec.category, seed=seed)
        session = GameSession(
            toy_spec, "full", player=player, seed=seed, session_id=f"g{i}"
        )
        if scheduler.try_admit(session.session_id, toy_profile, lambda: session, time=0.0).admitted:
            sessions.append(session)
    for t in range(seconds):
        for session in sessions:
            if session.finished or session.session_id not in scheduler.sessions:
                continue
            alloc = scheduler.allocation_of(session.session_id)
            tick = session.advance(alloc)
            telemetry.record(t, session.session_id, tick.demand, alloc)
            if tick.finished:
                scheduler.release(session.session_id, time=t)
        if (t + 1) % 5 == 0:
            scheduler.control(t + 1, telemetry)

    views = scheduler.task_views()
    distributor = scheduler.distributor
    reference_running = [
        (reference_consumption(v), reference_rollout(v, distributor.horizon))
        for v in views
    ]
    entry, steady = scheduler.admission_terms(toy_profile)
    # A zero entry always passes the boot check, so ``M`` is exercised.
    candidates = [(entry, steady), (ResourceVector.zeros(), steady)] + list(extra)
    for _ in range(2):
        batch = distributor.begin_batch(views)
        for entry, steady in candidates:
            expected = reference_algorithm1(
                distributor.capacity,
                distributor.horizon,
                distributor.overshoot_tolerance,
                reference_running,
                entry,
                steady,
            )
            assert_same_decision(batch.evaluate(entry, steady), expected)


def test_reference_agrees_on_a_hand_checked_case():
    cap = ResourceVector.full(100.0)
    running = [
        (ResourceVector(cpu=20, gpu=30), [ResourceVector(gpu=50), ResourceVector(gpu=20)]),
        (ResourceVector(cpu=10, gpu=10), [ResourceVector(gpu=40)]),
    ]
    ok, peak = reference_algorithm1(
        cap, 2, 0.0, running, ResourceVector(cpu=5), ResourceVector(gpu=15)
    )
    # Step 0: 50 + 40 = 90; step 1: 20 + 40 = 60; M = 90; 90 + 15 > 100.
    assert not ok
    np.testing.assert_array_equal(peak.array, [0, 105, 0, 0])


# ----------------------------------------------------------------------
# The shared snapshot against per-request Algorithm 1
# ----------------------------------------------------------------------
class FreshScheduler(CoCGScheduler):
    """The reference admission: a single-use batch per request through
    ``can_admit``, and every placement attempted."""

    def try_admit(self, session_id, profile, make_session, *, time=0.0,
                  gpu_index=None):
        backend, entry, entry_min, steady = self._admission_plans(profile)
        decision = self.distributor.can_admit(
            entry_min, steady, self.task_views()
        )
        if not decision.admitted:
            self.rejections += 1
            self._now = time
            self._log(session_id, "reject", decision.reason)
            return decision
        gi = gpu_index if gpu_index is not None else self.allocator.gpu_order()[0]
        grant = entry.minimum(self.allocator.capped_available(gi)).maximum(
            entry_min.minimum(entry)
        )
        try:
            self.allocator.place(session_id, grant, gpu_index=gi, time=time)
        except AllocationError:
            self.rejections += 1
            self.refused_placements.append((time, session_id))
            return AdmissionDecision(False, "placement failed under the cap")
        ctl = SessionControl(
            make_session(), profile, self._make_planner(profile, backend),
            backend, self.config.replace_after,
            steal_fraction=self.config.regulator.steal_fraction,
            health=PredictorHealth(
                threshold=self.config.failure_threshold,
                cooldown=self.config.failure_cooldown,
            ),
            now=time,
        )
        ctl.desired = entry
        self._sessions[session_id] = ctl
        self.admissions += 1
        self._now = time
        self._log(session_id, "admit", decision.reason)
        return decision


def _decision_bits(decision):
    peak = decision.predicted_peak
    return (decision.admitted, decision.reason,
            None if peak is None else peak.values)


#: ``admit`` a game, optionally pinned to a GPU (GPU 1 is too small to
#: hold any boot, so pinning to it forces a placement refusal);
#: ``tick`` seconds of play; a ``control`` cycle; ``release`` the n-th
#: hosted session.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 1),
                  st.sampled_from([None, 0, 1])),
        st.tuples(st.just("tick"), st.integers(1, 30)),
        st.tuples(st.just("control")),
        st.tuples(st.just("release"), st.integers(0, 7)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(ops=[("admit", 0, 1), ("admit", 0, 1), ("admit", 1, None),
              ("admit", 1, 1), ("admit", 0, None), ("admit", 0, 1),
              ("tick", 6), ("control",), ("admit", 0, 1), ("release", 0),
              ("admit", 1, 1), ("admit", 1, None)], cpu=100.0)
@example(ops=[("admit", 1, None), ("admit", 1, None), ("admit", 1, None),
              ("tick", 20), ("control",), ("admit", 1, None)], cpu=40.0)
@given(ops=_ops, cpu=st.sampled_from([40.0, 100.0]))
def test_shared_snapshot_matches_per_request_admission(
    toy_spec, toy_profile, catalog, contra_profile, ops, cpu
):
    """A small CPU puts Algorithm 1 and placement near their bounds,
    where a stale snapshot would answer differently."""
    games = [(toy_spec, toy_profile), (catalog["contra"], contra_profile)]
    sides = []
    for cls in (CoCGScheduler, FreshScheduler):
        server = Server("s", cpu_capacity=cpu,
                        gpus=[GPUDevice(), GPUDevice(1.0, 1.0)])
        sides.append((cls(Allocator(server, utilization_cap=0.95)),
                      TelemetryRecorder(seed=0), {}))
    t = 0
    for i, op in enumerate(ops):
        decisions = []
        for scheduler, telemetry, sessions in sides:
            if op[0] == "admit":
                spec, profile = games[op[1]]
                sid = f"g{i}"

                def make(spec=spec, sid=sid, sessions=sessions):
                    player = PlayerModel(f"p{sid}", spec.category, seed=i)
                    sessions[sid] = GameSession(
                        spec, player=player, seed=i, session_id=sid
                    )
                    return sessions[sid]

                decisions.append(_decision_bits(scheduler.try_admit(
                    sid, profile, make, time=float(t), gpu_index=op[2]
                )))
            elif op[0] == "tick":
                for second in range(t, t + op[1]):
                    for sid, session in list(sessions.items()):
                        alloc = scheduler.allocation_of(sid)
                        tick = session.advance(alloc)
                        telemetry.record(second, sid, tick.demand, alloc)
                        if tick.finished:
                            scheduler.release(sid, time=second)
                            del sessions[sid]
            elif op[0] == "control":
                scheduler.control(float(t), telemetry)
            elif sessions:
                sid = sorted(sessions)[op[1] % len(sessions)]
                scheduler.release(sid, time=float(t))
                del sessions[sid]
        if op[0] == "tick":
            t += op[1]
        assert decisions[:1] == decisions[1:]
    (shared, *_), (fresh, *_) = sides
    assert shared.decision_log == fresh.decision_log
    assert shared.refused_placements == fresh.refused_placements
    assert shared.rejections == fresh.rejections
    assert shared.admissions == fresh.admissions
    assert shared.distributor.verdicts == fresh.distributor.verdicts
    assert ([repr(e) for e in shared.allocator.events]
            == [repr(e) for e in fresh.allocator.events])
    assert shared.distributor.batches <= fresh.distributor.batches
