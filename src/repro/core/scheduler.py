"""The CoCG scheduler: the online control loop over one server.

Every ``detect_interval`` seconds (paper: 5 s — longer than any loading
stage, so no loading can slip through unseen), the scheduler runs the
four-step cycle of Fig 8 for every hosted session:

1. **Real-time data collection** — read the last telemetry window.
2. **Stage judgment** — SAME / LOADING / MISMATCH against the believed
   stage (``StagePredictor.judge``).
3. **Next-stage prediction** — on entering loading, predict the next
   execution stage from the stage history.
4. **Resource adjustment** — retune the cgroup ceilings: predicted-stage
   peak + Eq-1 redundancy for execution, loading plan (possibly
   throttled by the regulator's time stealing) for loading.

The §IV-B2 dynamic adjustments are embedded in the state machine:
rehearsal callback (both flavours), redundancy allocation, and model
replacement after repeated errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.adjustment import DynamicAdjuster, backend_rotation
from repro.core.allocation import AllocationPlanner
from repro.core.distributor import AdmissionDecision, BatchEvaluation, Distributor
from repro.core.pipeline import GameProfile
from repro.core.predictor import (
    Judgment,
    JudgmentKind,
    PredictorBackendError,
    StagePredictor,
)
from repro.core.regulator import Regulator, RegulatorConfig
from repro.core.stages import StageTypeId
from repro.core.health import BreakerState, PredictorHealth
from repro.games.session import GameSession
from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.resources import Floats4, ResourceVector, _wrap
from repro.sim.telemetry import TelemetryRecorder
from repro.util.effects import effects

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.streaming.encoder import EncoderModel

__all__ = [
    "CoCGConfig",
    "CoCGScheduler",
    "SessionControl",
    "Decision",
]


#: ``(backend, entry, entry_min, steady_peak)`` — one game's admission plans.
_AdmissionPlans = Tuple[str, ResourceVector, ResourceVector, ResourceVector]

#: A candidate Algorithm 1 admits but the allocator cannot place under
#: the cap.
_PLACEMENT_REFUSED = AdmissionDecision(False, "placement failed under the cap")


def _total(rows: Iterable[Floats4]) -> Floats4:
    """Sum of float 4-tuples, added in order (the ``np.sum(rows, axis=0)``
    order, so totals stay bit-identical).  The sum starts from ``-0.0``,
    which every float plus ``-0.0`` leaves unchanged: the first row."""
    c = g = m = r = -0.0
    for c1, g1, m1, r1 in rows:
        c += c1
        g += g1
        m += m1
        r += r1
    return c, g, m, r


@dataclass(frozen=True)
class Decision:
    """One entry of the scheduler's decision log.

    ``action`` is one of: ``admit``, ``reject``, ``stage-end`` (loading
    detected, next stage predicted), ``stage-start`` (prediction
    confirmed), ``callback`` (rehearsal callback, either flavour),
    ``transient-revert``, ``hold`` (loading extended), ``probe``
    (starved ceiling raised), ``release``.
    """

    time: float
    session_id: str
    action: str
    detail: str = ""


@dataclass(frozen=True)
class CoCGConfig:
    """Scheduler tuning (defaults = the paper's settings).

    Parameters
    ----------
    detect_interval:
        Detection period in seconds.
    horizon:
        Distributor prediction iterations (Algorithm-1 ``N``).
    overshoot_tolerance:
        Admission tolerance on predicted peaks (§IV-D: brief degradation
        is compensated, so CoCG co-locates "as much as possible").
    use_redundancy:
        Apply the Eq-1 margin (ablation switch).
    replace_after:
        Consecutive errors before model replacement.
    regulator:
        Regulator configuration.
    stream_encoder:
        Charge each session this encoder's CPU overhead (``None`` = off).
    failure_threshold:
        Consecutive model-chain failures that trip a session's
        :class:`~repro.core.health.PredictorHealth` breaker open.
    failure_cooldown:
        Seconds an open breaker waits before a half-open re-probe.
    degraded_margin:
        Multiplicative headroom over observed usage in degraded
        (reactive) mode — mirrors ``baselines.reactive``.
    degraded_floor:
        Per-dimension minimum ceiling (percent) in degraded mode.
    """

    detect_interval: int = 5
    horizon: int = 3
    overshoot_tolerance: float = 0.10
    use_redundancy: bool = True
    replace_after: int = 3
    regulator: RegulatorConfig = field(default_factory=RegulatorConfig)
    stream_encoder: Optional[EncoderModel] = None
    failure_threshold: int = 3
    failure_cooldown: float = 60.0
    degraded_margin: float = 0.15
    degraded_floor: float = 8.0

    def __post_init__(self) -> None:
        if self.detect_interval < 1:
            raise ValueError(
                f"detect_interval must be >= 1, got {self.detect_interval}"
            )
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.failure_cooldown < 0:
            raise ValueError(
                f"failure_cooldown must be >= 0, got {self.failure_cooldown}"
            )


class SessionControl:
    """Per-session scheduler state (also the distributor's task view)."""

    def __init__(
        self,
        session: GameSession,
        profile: GameProfile,
        planner: AllocationPlanner,
        backend: str,
        replace_after: int,
        steal_fraction: float = 0.2,
        health: Optional[PredictorHealth] = None,
        now: float = 0.0,
    ):
        self.session = session
        self.profile = profile
        self.planner = planner
        self.backend = backend
        self.steal_fraction = float(steal_fraction)
        self.adjuster = DynamicAdjuster(
            profile.spec.category, replace_after=replace_after
        )
        self.health = health if health is not None else PredictorHealth()
        self.phase: str = "loading"  # sessions always boot by loading
        self.believed: Optional[StageTypeId] = None
        self.prev_exec: Optional[StageTypeId] = None
        self.exec_history: List[StageTypeId] = []
        self.predicted: Optional[StageTypeId] = None
        self.predicted_conf: float = 0.0
        self.maybe_transient: bool = False
        self.redundant: bool = False
        self.hold_seconds: float = 0.0
        self.degraded_logged: bool = False
        self.prior_served: int = 0
        self._peaks_cache: Dict[int, List[ResourceVector]] = {}
        self.desired: ResourceVector = planner.for_loading()
        # Prime the first prediction from the empty history.
        self._predict_next(now)

    # ------------------------------------------------------------------
    @property
    def predictor(self) -> StagePredictor:
        """The trained predictor for the session's current backend."""
        preds = self.profile.predictors
        if self.backend in preds:
            return preds[self.backend]
        return next(iter(preds.values()))

    @property
    def player_id(self) -> str:
        """The controlling player's stable id."""
        return self.session.player.player_id

    def _model_chain(self) -> List[StagePredictor]:
        """Trained predictors in fallback order: current backend first,
        then the category's rotation order (§IV-B2)."""
        preds = self.profile.predictors
        order = [self.backend] + [
            b for b in backend_rotation(self.profile.spec.category)
            if b != self.backend
        ]
        return [preds[b] for b in order if b in preds]

    def _chain_predict(
        self, history: List[StageTypeId], now: float
    ) -> tuple:
        """Predict via the fallback chain under the circuit breaker.

        Returns ``(stage_type, confidence, from_model)``.  Walks the
        trained backends in rotation order; if every backend fails (or
        the breaker is open) the stage-history prior answers instead and
        ``from_model`` is False.
        """
        if self.health.allow(now):
            for predictor in self._model_chain():
                try:
                    stage, conf = predictor.predict_next(
                        history, player_id=self.player_id
                    )
                except PredictorBackendError:
                    continue
                self.health.record_success()
                return stage, conf, True
            self.health.record_failure(now)
        self.prior_served += 1
        stage, conf = self.predictor.prior_prediction()
        return stage, conf, False

    def try_probe(self, now: float) -> bool:
        """Half-open probe: is the model chain serving again?

        Consults the breaker first (no-op while the cooldown runs) and
        records the probe's outcome, so a success re-closes the breaker
        and a failure restarts the cooldown.
        """
        if not self.health.allow(now):
            return False
        _stage, _conf, from_model = self._chain_predict(self.exec_history, now)
        return from_model

    def _predict_next(self, now: float = 0.0) -> None:
        self.predicted, self.predicted_conf, _ = self._chain_predict(
            self.exec_history, now
        )

    def _rotate_backend(self) -> None:
        self.backend = self.adjuster.current_backend
        acc = self.profile.predictors.get(self.backend)
        if acc is not None and acc.accuracy_ is not None:
            self.planner.set_accuracy(acc.accuracy_)

    # ------------------------------------------------------------------
    # RunningTaskView protocol
    # ------------------------------------------------------------------
    @property
    def current_allocation(self) -> ResourceVector:
        """The ceiling the session currently wants (RunningTaskView)."""
        return self.desired

    def min_allocation(self) -> ResourceVector:
        """Smallest viable ceiling right now.

        A loading session is compressible — its progress rate scales with
        the CPU grant (time stealing) — so the distributor counts it at
        its throttled footprint when testing whether a newcomer can boot.
        """
        if self.phase == "loading":
            return self.planner.throttled_loading(self.steal_fraction)
        return self.desired

    def invalidate_rollouts(self) -> None:
        """Drop every memoized rollout of this session.

        Called whenever control-visible state may change (each control
        visit, release), so a rollout from before a stage transition can
        never answer for the state after it.
        """
        self._peaks_cache.clear()

    @effects(hot_path=True)
    def predicted_peaks(self, horizon: int) -> List[ResourceVector]:
        """Rolled-forward allocation peaks for the distributor.

        Memoized between control ticks: the rollout only depends on
        state the 5-second control loop mutates, while the distributor
        may ask for it once per queued request per admission round.
        This is the only rollout memo; :meth:`invalidate_rollouts`
        clears it.
        """
        local = self._peaks_cache.get(horizon)
        if local is None:
            local = self._compute_peaks(horizon)
            self._peaks_cache[horizon] = local
        return local

    @effects(hot_path=True)
    def _compute_peaks(self, horizon: int) -> List[ResourceVector]:
        """One uncached rollout: walk the predicted stage chain and map
        each stage to its (margin-free) execution plan."""
        start = self.believed if self.phase == "execution" else self.predicted
        chain = self.predictor.rollout(
            self.exec_history, horizon, start=start, player_id=self.player_id
        )
        if not chain:
            # No stage belief yet: the current ceiling is the best guess.
            return [self.desired]
        return [self.planner.for_execution(t, redundancy=False) for t in chain]


class CoCGScheduler:
    """CoCG control over one server.

    Parameters
    ----------
    allocator:
        The server's (capped) allocation front end.
    config:
        Scheduler configuration.

    Notes
    -----
    The scheduler never reads a session's ground truth — only the
    telemetry windows handed to :meth:`control`.
    """

    def __init__(self, allocator: Allocator, *, config: Optional[CoCGConfig] = None):
        self.allocator = allocator
        self.config = config if config is not None else CoCGConfig()
        budget = allocator.capped_capacity(0)
        self.distributor = Distributor(
            budget,
            horizon=self.config.horizon,
            overshoot_tolerance=self.config.overshoot_tolerance,
        )
        self.regulator = Regulator(budget, config=self.config.regulator)
        self._budget: Floats4 = budget.values
        self._sessions: Dict[str, SessionControl] = {}
        self._last_window: Optional[np.ndarray] = None
        self._now: float = 0.0
        self.decision_log: List[Decision] = []
        self.rejections = 0
        self.admissions = 0
        self._admission_cache: Dict[str, _AdmissionPlans] = {}
        #: ``(time, session_id)`` of each session Algorithm 1 admitted
        #: but the allocator could not place under the cap (these leave
        #: no decision-log entry).
        self.refused_placements: List[Tuple[float, str]] = []
        #: ``(time, sessions hosted after the cycle)`` per :meth:`control`.
        self.cycles: List[Tuple[float, int]] = []
        # The Algorithm-1 snapshot of the running set (:meth:`admission_batch`)
        # and the ``(game, gpu_index)`` placements refused under it.
        self._batch: Optional[BatchEvaluation] = None
        self._refused: Set[Tuple[str, Optional[int]]] = set()

    # ------------------------------------------------------------------
    @property
    def sessions(self) -> Dict[str, SessionControl]:
        """Hosted sessions' control state (read-only copy)."""
        return dict(self._sessions)

    def allocation_of(self, session_id: str) -> ResourceVector:
        """The ceiling currently granted to a hosted session."""
        return self.allocator.allocation_of(session_id)

    def _log(self, session_id: str, action: str, detail: str = "") -> None:
        self.decision_log.append(Decision(self._now, session_id, action, detail))

    def _make_planner(self, profile: GameProfile, backend: str) -> AllocationPlanner:
        return AllocationPlanner(
            profile.library,
            accuracy=profile.accuracy(backend),
            encoder=self.config.stream_encoder,
        )

    def _admission_plans(self, profile: GameProfile) -> _AdmissionPlans:
        """``(backend, entry, entry_min, steady_peak)`` of one game.

        The backend is the head of the category's rotation among the
        trained ones; ``entry`` is the full boot-loading ceiling and the
        other two are :meth:`admission_terms`.  All are pure functions
        of the game's profile, so they are computed once per game.
        """
        name = profile.spec.name
        cached = self._admission_cache.get(name)
        if cached is None:
            backend = next(
                (
                    b
                    for b in backend_rotation(profile.spec.category)
                    if b in profile.predictors
                ),
                next(iter(profile.predictors)),
            )
            planner = self._make_planner(profile, backend)
            cached = (
                backend,
                planner.for_loading(),
                planner.throttled_loading(self.config.regulator.steal_fraction),
                self._typical_plan(planner),
            )
            self._admission_cache[name] = cached
        return cached

    def admission_terms(
        self, profile: GameProfile
    ) -> Tuple[ResourceVector, ResourceVector]:
        """The newcomer's Algorithm-1 terms for one game.

        Returns ``(entry_min, steady_peak)``: the throttled boot
        footprint (the boot itself is compressible — time stealing
        applies to it too) and the frame-weighted typical play ceiling.
        Both are pure functions of the game's profile, so they are
        memoized per game; the serve-layer batcher calls this once per
        candidate without re-deriving planners.
        """
        _backend, _entry, entry_min, steady = self._admission_plans(profile)
        return entry_min, steady

    def task_views(self) -> List[SessionControl]:
        """The running set as Algorithm-1 task views."""
        return list(self._sessions.values())

    def admission_batch(self) -> BatchEvaluation:
        """The Algorithm-1 snapshot of the current running set.

        Algorithm 1 judges a newcomer only against the running set and
        its control state, so one snapshot answers every admission
        question until one of them changes: it is opened by the first
        question and shared by :meth:`try_admit` and the serve-layer
        pre-screen.  A successful admission, :meth:`release` and
        :meth:`control` drop it (with the placements refused under it);
        under CoCG they are every allocator mutation.
        """
        batch = self._batch
        if batch is None:
            batch = self._batch = self.distributor.begin_batch(self.task_views())
        return batch

    def _drop_snapshot(self) -> None:
        """The running set or its control state is about to change."""
        self._batch = None
        self._refused.clear()

    # ------------------------------------------------------------------
    # Admission (the distributor front end)
    # ------------------------------------------------------------------
    def try_admit(
        self,
        session_id: str,
        profile: GameProfile,
        make_session: Callable[[], GameSession],
        *,
        time: float = 0.0,
        gpu_index: Optional[int] = None,
    ) -> AdmissionDecision:
        """Algorithm-1 admission; on success ``session_id`` is placed.

        Algorithm 1 reads only the per-game terms, and answers from
        :meth:`admission_batch`; the session (``make_session()``) and a
        planner of its own are made only once the session is placed.  A
        capped placement refused under the current snapshot stays
        refused for the same ``(game, gpu_index)`` until the snapshot is
        dropped: nothing it reads has changed.
        """
        backend, entry, entry_min, steady = self._admission_plans(profile)
        decision = self.admission_batch().evaluate(entry_min, steady)
        if not decision.admitted:
            self.rejections += 1
            self._now = time
            self._log(session_id, "reject", decision.reason)
            return decision
        placement = (profile.spec.name, gpu_index)
        if placement not in self._refused:
            gi = gpu_index if gpu_index is not None else self.allocator.gpu_order()[0]
            grant = entry.minimum(self.allocator.capped_available(gi)).maximum(
                entry_min.minimum(entry)
            )
            try:
                self.allocator.place(session_id, grant, gpu_index=gi, time=time)
            except AllocationError:
                self._refused.add(placement)
        if placement in self._refused:
            self.rejections += 1
            self.refused_placements.append((time, session_id))
            return _PLACEMENT_REFUSED
        self._drop_snapshot()
        ctl = SessionControl(
            make_session(),
            profile,
            self._make_planner(profile, backend),
            backend,
            self.config.replace_after,
            steal_fraction=self.config.regulator.steal_fraction,
            health=PredictorHealth(
                threshold=self.config.failure_threshold,
                cooldown=self.config.failure_cooldown,
            ),
            now=time,
        )
        if not self.config.use_redundancy:
            ctl.planner.set_accuracy(1.0)  # zero Eq-1 margin
        ctl.desired = entry
        self._sessions[session_id] = ctl
        self.admissions += 1
        self._now = time
        self._log(session_id, "admit", decision.reason)
        return decision

    @staticmethod
    def _typical_plan(planner: AllocationPlanner) -> ResourceVector:
        """Frame-weighted median execution-stage plan (the game's
        *typical* play ceiling, used as Algorithm-1's newcomer term)."""
        lib = planner.library
        types = lib.execution_types
        if not types:
            return planner.peak_plan()
        weighted = sorted(
            ((lib.stats(t).total_frames, t) for t in types),
            key=lambda x: planner.for_execution(x[1], redundancy=False).max_component(),
        )
        total = sum(w for w, _ in weighted)
        acc = 0
        for w, t in weighted:
            acc += w
            if acc * 2 >= total:
                return planner.for_execution(t, redundancy=False)
        return planner.for_execution(weighted[-1][1], redundancy=False)

    def release(self, session_id: str, *, time: float = 0.0) -> None:
        """Remove a finished/aborted session."""
        if session_id in self._sessions:
            self._drop_snapshot()
            self._sessions[session_id].invalidate_rollouts()
            del self._sessions[session_id]
            self.allocator.release(session_id, time=time)
            self._now = time
            self._log(session_id, "release")

    # ------------------------------------------------------------------
    # The 5-second control cycle
    # ------------------------------------------------------------------
    def control(self, time: float, telemetry: TelemetryRecorder) -> None:
        """Run one detection cycle over every hosted session.

        The cycle is fault-isolated: an exception in one session's
        control path is logged to telemetry, trips that session's
        predictor breaker, and leaves it on a safe peak-reserve ceiling
        — it never aborts the tick for its neighbours.
        """
        interval = self.config.detect_interval
        self._now = time
        self._drop_snapshot()
        for sid, ctl in self._sessions.items():
            window = telemetry.observed_window(sid, interval)
            if window is None:
                continue
            try:
                self._control_session(ctl, window, interval)
            except Exception as exc:
                telemetry.record_fault_event(
                    time, "control-error", f"{sid}: {exc!r}"
                )
                ctl.health.record_failure(time)
                ctl.desired = ctl.planner.peak_plan()
                self._log(sid, "control-error", repr(exc))
        self._grant_all(time)
        self.cycles.append((time, len(self._sessions)))

    def degraded_sessions(self) -> List[str]:
        """Sessions currently running in degraded (open-breaker) mode."""
        return [
            sid
            for sid, ctl in self._sessions.items()
            if ctl.health.state is not BreakerState.CLOSED
        ]

    def _control_session(
        self, ctl: SessionControl, window: np.ndarray, interval: int
    ) -> None:
        ctl.invalidate_rollouts()  # state may change below
        self._last_window = window
        if ctl.health.state is not BreakerState.CLOSED:
            # Open breaker: the model chain is distrusted.  Probe once
            # the cooldown allows it; until a probe succeeds the session
            # runs reactive usage-following (the "improved" baseline)
            # instead of predictive control.
            if ctl.try_probe(self._now):
                ctl.degraded_logged = False
                self._log(
                    ctl.session.session_id, "breaker-close",
                    "predictor chain restored; resuming predictive control",
                )
            else:
                self._control_degraded(ctl, window)
                return
        if ctl.phase != "execution":
            self._control_loading(ctl, ctl.predictor.judge(window, None), interval)
            return
        # Saturation guard: telemetry shows *usage*, which is clipped at
        # the granted ceiling.  A window pinned against the grant no
        # longer resembles the stage's true clusters — reinterpreting it
        # would "discover" a cheaper stage, shrink the grant, and spiral.
        # A pinned window means demand ≥ grant, not a stage change.  The
        # one trustworthy signal while pinned is a *voluntary* GPU drop
        # far below the grant: that is a real loading screen.  Only that
        # test reads a pinned window's judgment, so only it computes one.
        try:
            granted = self.allocator.allocation_of(ctl.session.session_id).values
        except KeyError:  # pragma: no cover - defensive
            granted = ctl.desired.values
        # "Pinned" must mean *clipped at the ceiling*, not merely high:
        # q95-planned ceilings put healthy usage at 0.85–0.95 of the
        # grant.  A 5-second usage mean within noise of the grant itself
        # only happens when demand exceeds it every second.
        usage = window.tolist()
        for g, w in zip(granted, usage):
            if g > 1.0 and w >= g - max(0.8, 0.015 * g):
                break
        else:  # unpinned: the frame is judged as observed
            self._control_execution(ctl, ctl.predictor.judge(window, ctl.believed))
            return
        gpu_granted = granted[1]
        if gpu_granted > 1.0 and usage[1] < 0.7 * gpu_granted:
            judgment = ctl.predictor.judge(window, ctl.believed)
            if judgment.kind is JudgmentKind.LOADING:  # voluntary GPU drop
                self._control_execution(ctl, judgment)
                return
        # Starved: probe the ceiling upward (geometrically, capped at the
        # whole-game peak) until usage unpins — only then can the frame
        # be judged faithfully.
        # desired.maximum((desired × 1.3 + 2).minimum(target))
        target = ctl.planner.peak_plan()
        probe = []
        for d, t in zip(ctl.desired.values, target.values):
            p = d * 1.3 + 2.0
            p = p if p < t else t
            probe.append(d if d > p else p)
        ctl.desired = _wrap(tuple(probe))
        self._log(
            ctl.session.session_id, "probe", f"ceiling raised toward {target!r}"
        )

    def _control_degraded(self, ctl: SessionControl, window: np.ndarray) -> None:
        """Reactive usage-following for an open-breaker session.

        Mirrors ``baselines.reactive``: ceiling = observed window ×
        (1 + margin), floored per dimension — no model, no prediction.
        """
        target = np.maximum(
            window * (1.0 + self.config.degraded_margin),
            self.config.degraded_floor,
        )
        ctl.desired = ResourceVector.from_array(np.clip(target, 0.0, 100.0))
        if not ctl.degraded_logged:
            ctl.degraded_logged = True
            self._log(
                ctl.session.session_id, "degraded",
                "predictor breaker open; reactive peak-reserve allocation",
            )

    def _control_execution(self, ctl: SessionControl, j: Judgment) -> None:
        if j.kind is JudgmentKind.SAME:
            # Settle on the plain stage plan: this releases both the Eq-1
            # callback cushion and any starvation probe once the stage is
            # confirmed and usage floats freely below the ceiling.
            if ctl.believed is not None:
                ctl.desired = ctl.planner.for_execution(ctl.believed, redundancy=False)
                ctl.redundant = False
            return
        if j.kind is JudgmentKind.LOADING:
            # Stage ended; enter loading and predict the next stage.
            ctl.phase = "loading"
            ctl.maybe_transient = True
            ctl.prev_exec = ctl.believed
            if ctl.believed is not None:
                ctl.exec_history.append(ctl.believed)
            ctl._predict_next(self._now)
            ctl.hold_seconds = 0.0
            ctl.desired = ctl.planner.for_loading()
            self._log(
                ctl.session.session_id, "stage-end",
                f"predicted next {ctl.predicted!r} "
                f"(conf {ctl.predicted_conf:.0%})",
            )
            return
        # MISMATCH: rehearsal callback (first flavour) — jump to the
        # re-matched stage with the Eq-1 cushion.
        if ctl.adjuster.record_error():
            ctl._rotate_backend()
        if j.matched_type is not None:
            ctl.believed = j.matched_type
            ctl.desired = ctl.planner.for_execution(
                ctl.believed, redundancy=self.config.use_redundancy
            )
        else:
            ctl.desired = ctl.planner.peak_plan()
        ctl.redundant = self.config.use_redundancy
        self._log(
            ctl.session.session_id, "callback",
            f"re-matched to {ctl.believed!r}",
        )

    def _control_loading(
        self, ctl: SessionControl, j: Judgment, interval: int
    ) -> None:
        if j.kind is JudgmentKind.LOADING:
            # GPU-pin check: a genuine loading screen uses far less GPU
            # than the (headroomed) loading ceiling; usage pinned at the
            # GPU grant means the next stage has started but is clipped
            # into looking like loading.  Promote to execution on the
            # predicted stage — a following MISMATCH callback corrects a
            # wrong guess once the ceiling stops clipping.
            try:
                granted = self.allocator.allocation_of(
                    ctl.session.session_id
                ).values
            except KeyError:  # pragma: no cover - defensive
                granted = ctl.desired.values
            window = self._last_window
            if (
                window is not None
                and granted[1] > 1.0
                and window[1] >= 0.9 * granted[1]
            ):
                ctl.phase = "execution"
                ctl.hold_seconds = 0.0
                ctl.believed = ctl.predicted
                ctl.predicted = None
                ctl.redundant = False
                ctl.desired = (
                    ctl.planner.for_execution(ctl.believed, redundancy=False)
                    if ctl.believed is not None
                    else ctl.planner.peak_plan()
                )
                return
            ctl.maybe_transient = False  # two windows of loading = real
            plan_next = (
                ctl.planner.for_execution(ctl.predicted, redundancy=False)
                if ctl.predicted is not None
                else ctl.planner.peak_plan()
            )
            others = ResourceVector.zeros()
            for other_sid, other in self._sessions.items():
                if other is not ctl:
                    others = others + other.desired
            if self.regulator.should_hold_in_loading(
                plan_next, others, ctl.hold_seconds
            ):
                if ctl.hold_seconds == 0.0:
                    self.regulator.start_hold()
                ctl.hold_seconds += interval
                self.regulator.note_hold(interval)
                ctl.desired = ctl.planner.throttled_loading(
                    self.config.regulator.steal_fraction
                )
                self._log(
                    ctl.session.session_id, "hold",
                    f"loading extended ({ctl.hold_seconds:.0f}s so far); "
                    f"next stage {ctl.predicted!r} does not fit",
                )
            else:
                ctl.desired = ctl.planner.for_loading()
            return

        # An execution cluster appeared.
        if (
            ctl.maybe_transient
            and ctl.prev_exec is not None
            and ctl.prev_exec.contains(j.cluster)
        ):
            # Rehearsal callback (second flavour): the "loading" was a
            # transient dip — revert to the previous stage immediately.
            ctl.adjuster.record_transient()
            ctl.phase = "execution"
            ctl.believed = ctl.prev_exec
            if ctl.exec_history and ctl.exec_history[-1] == ctl.prev_exec:
                ctl.exec_history.pop()
            ctl.desired = ctl.planner.for_execution(
                ctl.believed, redundancy=self.config.use_redundancy
            )
            ctl.redundant = self.config.use_redundancy
            self._log(
                ctl.session.session_id, "transient-revert",
                f"back to {ctl.believed!r}",
            )
            return

        # Loading finished: the next stage has begun.
        ctl.phase = "execution"
        ctl.hold_seconds = 0.0
        if ctl.predicted is not None and ctl.predicted.contains(j.cluster):
            ctl.believed = ctl.predicted
            ctl.adjuster.record_success()
            callback = False
            self._log(
                ctl.session.session_id, "stage-start",
                f"{ctl.believed!r} as predicted",
            )
        else:
            # Misprediction: this grant is a rehearsal callback and gets
            # the Eq-1 cushion on top of the re-matched stage's peak.
            if ctl.adjuster.record_error():
                ctl._rotate_backend()
            ctl.believed = (
                j.matched_type if j.matched_type is not None else ctl.predicted
            )
            callback = self.config.use_redundancy
        ctl.redundant = callback
        ctl.predicted = None
        ctl.desired = (
            ctl.planner.for_execution(ctl.believed, redundancy=callback)
            if ctl.believed is not None
            else ctl.planner.peak_plan()
        )

    # ------------------------------------------------------------------
    # Granting under the cap
    # ------------------------------------------------------------------
    def _grant_all(self, time: float) -> None:
        """Retune every ceiling, scaling down on conflict.

        Loading sessions absorb shortage first (the paper's preference:
        steal from loading rather than from a peaked game), then the
        remainder is scaled proportionally.  Shrinking sessions are
        applied before growing ones so the cap is never violated
        transiently.
        """
        if not self._sessions:
            return
        placements = self.allocator.server.placements
        budget = self._budget

        desired: Dict[str, Floats4] = {
            sid: ctl.desired.values for sid, ctl in self._sessions.items()
        }
        total = _total(desired.values())
        over = [t > b + 1e-9 for t, b in zip(total, budget)]
        if any(over):
            # Phase 1: throttle loading sessions on the violated dims.
            steal = self.config.regulator.steal_fraction
            throttled_any = False
            for sid, ctl in self._sessions.items():
                if ctl.phase == "loading":
                    throttled_any = True
                    throttled = ctl.planner.throttled_loading(steal).values
                    desired[sid] = tuple([
                        (d if d < c else c) if o else d
                        for d, c, o in zip(desired[sid], throttled, over)
                    ])
            if throttled_any:
                total = _total(desired.values())
            # Phase 2: proportional scale on still-violated dims.
            factors = [
                b / (t if t > 1e-9 else 1e-9) if t > b else 1.0
                for t, b in zip(total, budget)
            ]
            for sid, vec in desired.items():
                desired[sid] = tuple([v * f for v, f in zip(vec, factors)])

        # Apply: shrinks first, then grows (cap-safe ordering); a shrink
        # fits within its old ceiling (``fits_within``'s 1e-9 slack).
        shrinks, grows = [], []
        for sid, vec in desired.items():
            v0, v1, v2, v3 = vec
            o0, o1, o2, o3 = placements[sid].allocation.values
            fits = (v0 <= o0 + 1e-9 and v1 <= o1 + 1e-9
                    and v2 <= o2 + 1e-9 and v3 <= o3 + 1e-9)
            (shrinks if fits else grows).append((sid, vec))
        self.allocator.retune_all_clamped(shrinks + grows, time=time)
