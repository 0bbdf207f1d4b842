"""Runtime game session: the stage machine that produces demand samples.

A :class:`GameSession` walks a script's stages and emits one demand
vector per simulated second.  Two properties make it more than a trace
player, both central to the paper:

* **Loading progress depends on the allocation.**  A loading stage is a
  fixed amount of work; its wall-clock length is ``work / rate`` where
  the rate is the CPU-supply satisfaction.  The regulator's "extend
  loading time" (time stealing, §IV-C2) therefore needs no special
  mechanism — shrinking a loading game's ceiling stretches its loading
  stage automatically.
* **Execution stages run on wall time regardless of supply.**  A starved
  execution stage doesn't pause; the player just suffers low FPS.  That
  is exactly why peak overlap is costly and must be avoided up front.

Demand within a cluster follows an AR(1) process around the cluster mean
(smooth second-to-second telemetry), plus the player model's transient
bursts — the source of the misjudgment/callback events in Figs 9/10.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.games.player import BurstEvent, PlayerModel
from repro.games.spec import GameSpec, ScriptSpec, StageKind, StageSpec
from repro.platform_.profile import PlatformProfile, REFERENCE_PLATFORM
from repro.platform_.resources import ResourceVector, _wrap
from repro.util.rng import Seed, as_rng

__all__ = ["SessionTick", "GameSession"]

_session_counter = itertools.count()

#: AR(1) correlation of within-cluster demand (per second).
_AR_RHO = 0.85
#: Scale of the AR(1) innovation that keeps the stationary std at ``std``.
_NOISE_SCALE = math.sqrt(1.0 - _AR_RHO**2)
#: AR(1) state at a stage or cluster change.
_NO_DEVIATION = (0.0, 0.0, 0.0, 0.0)
#: Bound once: :meth:`GameSession.advance` tests every second against it.
_LOADING = StageKind.LOADING
#: Minimum realized execution-stage duration in seconds.
_MIN_STAGE_SECONDS = 5.0


@dataclass(slots=True)
class SessionTick:
    """What one simulated second of a session looked like.

    ``demand`` is what the game *wants*; what it gets is the caller's
    allocation, and actual usage is ``min(demand, allocation)``.  A
    slotted plain record: one is built per session-second.
    """

    time: int
    demand: ResourceVector
    stage_name: str
    stage_kind: StageKind
    stage_type: frozenset
    cluster: str
    nominal_fps: float
    frame_lock: Optional[float]
    stage_completed: bool
    finished: bool

    @property
    def is_loading(self) -> bool:
        """Whether this second was spent in a loading stage."""
        return self.stage_kind is StageKind.LOADING

    def usage(self, allocation: ResourceVector) -> ResourceVector:
        """Consumption under a ceiling: element-wise min."""
        return self.demand.minimum(allocation)


@dataclass
class _StageInstance:
    spec: StageSpec
    duration: float  # execution: wall seconds; loading: work units


class GameSession:
    """One running game.

    Parameters
    ----------
    spec:
        The game.
    script:
        Script name, or ``None`` to pick uniformly among the game's
        scripts (the paper's §V-B2 protocol: "when a game is assigned, it
        randomly selects one from the scripts").
    player:
        The controlling player; defaults to a fresh player named after
        the session.
    seed:
        Session randomness (demand noise, durations, this run's order).
    platform:
        Demand scaling profile of the hosting platform.
    session_id:
        Unique id; auto-generated when omitted.
    """

    def __init__(
        self,
        spec: GameSpec,
        script: Optional[str] = None,
        *,
        player: Optional[PlayerModel] = None,
        seed: Seed = None,
        platform: PlatformProfile = REFERENCE_PLATFORM,
        session_id: Optional[str] = None,
    ):
        self.spec = spec
        self.platform = platform
        self._rng = as_rng(seed)
        if script is None:
            script = spec.scripts[int(self._rng.integers(len(spec.scripts)))].name
        self.script: ScriptSpec = spec.script(script)
        self.player = (
            player
            if player is not None
            else PlayerModel(f"player-of-{spec.name}", spec.category, seed=0)
        )
        self.session_id = (
            session_id
            if session_id is not None
            else f"{spec.name}#{next(_session_counter)}"
        )

        self._stages: List[_StageInstance] = self._resolve_stages()
        self._stage_idx = 0
        self._elapsed = 0  # total session seconds
        self._stage_progress = 0.0  # seconds (execution) or work units (loading)
        self._active_cluster: str = ""
        self._dwell_left = 0.0
        self._deviation = _NO_DEVIATION  # AR(1) state
        #: Per cluster: (mean, std) scaled to the platform, built on first use.
        self._scaled: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        self._bursts: List[BurstEvent] = []
        self.history: List[Tuple[str, int, int]] = []  # (stage, start, end)
        self._stage_start = 0
        self._enter_stage()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _resolve_stages(self) -> List[_StageInstance]:
        """Apply the player's order choices and realize durations."""
        order = list(range(len(self.script.stages)))
        for group in self.script.permutable_groups:
            played = self.player.realized_order(group, self._rng)
            for slot, src in zip(group, played):
                order[slot] = src
        instances: List[_StageInstance] = []
        for idx in order:
            stage = self.spec.stages[self.script.stages[idx]]
            if stage.kind is StageKind.EXECUTION:
                mult = self.player.duration_multiplier(stage.duration_scale, self._rng)
                duration = max(stage.base_duration * mult, _MIN_STAGE_SECONDS)
            else:
                duration = stage.base_duration  # work units
            instances.append(_StageInstance(stage, duration))
        return instances

    def _enter_stage(self) -> None:
        inst = self._stages[self._stage_idx]
        self._stage_progress = 0.0
        self._stage_start = self._elapsed
        self._deviation = _NO_DEVIATION
        self._bursts = []
        self._active_cluster = inst.spec.clusters[
            int(self._rng.integers(len(inst.spec.clusters)))
        ]
        self._dwell_left = self._sample_dwell(inst.spec)

    def _sample_dwell(self, stage: StageSpec) -> float:
        if len(stage.clusters) == 1:
            return math.inf
        # Uniform around the mean (0.6–1.4×): dwell heavy tails would let a
        # single cluster monopolise a short stage, aliasing the stage type.
        return max(5.0, float(stage.cluster_dwell * self._rng.uniform(0.6, 1.4)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """All stages completed."""
        return self._stage_idx >= len(self._stages)

    @property
    def elapsed(self) -> int:
        """Simulated seconds consumed so far."""
        return self._elapsed

    @property
    def current_stage(self) -> StageSpec:
        """The stage the session is currently in."""
        if self.finished:
            raise RuntimeError(f"session {self.session_id} has finished")
        return self._stages[self._stage_idx].spec

    @property
    def is_loading(self) -> bool:
        """Whether the session is currently in a loading stage."""
        return not self.finished and self.current_stage.kind is StageKind.LOADING

    @property
    def resolved_stage_names(self) -> Tuple[str, ...]:
        """The stage order actually played this session (ground truth)."""
        return tuple(inst.spec.name for inst in self._stages)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def advance(self, allocation: ResourceVector) -> SessionTick:
        """Simulate one second under the given resource ceiling.

        Returns the tick record.  Calling after the session finished
        raises ``RuntimeError``.  Draws, in order: AR(1) noise, bursts
        (execution only), a cluster switch, the next stage's entry.
        """
        stages, idx = self._stages, self._stage_idx
        if idx >= len(stages):
            raise RuntimeError(f"session {self.session_id} has finished")
        inst = stages[idx]
        stage = inst.spec
        loading = stage.kind is _LOADING
        cluster = self.spec.clusters[self._active_cluster]

        # Plain float arithmetic in numpy's operation order: the demand
        # stream stays bit-identical to the vectorized formula
        # ``clip(clip(mean·f) + ρ·dev + (n·(std·f))·√(1-ρ²) + bursts, 0, 100)``.
        scaled = self._scaled.get(cluster.name)
        if scaled is None:
            scaled = self._scaled[cluster.name] = (
                self.platform.scale_demand(cluster.mean).values,
                cluster.std.scale(self.platform.factors).values,
            )
        (m0, m1, m2, m3), (s0, s1, s2, s3) = scaled
        n0, n1, n2, n3 = self._rng.normal(size=4).tolist()
        v0, v1, v2, v3 = self._deviation
        v0 = _AR_RHO * v0 + (n0 * s0) * _NOISE_SCALE
        v1 = _AR_RHO * v1 + (n1 * s1) * _NOISE_SCALE
        v2 = _AR_RHO * v2 + (n2 * s2) * _NOISE_SCALE
        v3 = _AR_RHO * v3 + (n3 * s3) * _NOISE_SCALE
        self._deviation = (v0, v1, v2, v3)
        d0, d1, d2, d3 = m0 + v0, m1 + v1, m2 + v2, m3 + v3
        if not loading:
            burst = self.player.maybe_burst(self._rng)
            if burst is not None:
                self._bursts.append(burst)
            if self._bursts:
                for b in self._bursts:
                    e0, e1, e2, e3 = b.extra.values
                    d0, d1, d2, d3 = d0 + e0, d1 + e1, d2 + e2, d3 + e3
                self._bursts = [b for b in map(BurstEvent.tick, self._bursts) if b.active]
        d0 = 100.0 if d0 > 100.0 else 0.0 if d0 < 0.0 else d0
        demand = _wrap((d0, 100.0 if d1 > 100.0 else 0.0 if d1 < 0.0 else d1,
                        100.0 if d2 > 100.0 else 0.0 if d2 < 0.0 else d2,
                        100.0 if d3 > 100.0 else 0.0 if d3 < 0.0 else d3))
        self._elapsed = elapsed = self._elapsed + 1

        if loading:
            # Loading advances at the CPU-supply rate: starving it is the
            # regulator's time-stealing lever.
            rate = 1.0 if d0 <= 1e-9 else min(1.0, allocation.cpu / d0)
            progress = self._stage_progress + rate
        else:
            progress = self._stage_progress + 1.0
            if len(stage.clusters) > 1:
                self._dwell_left -= 1.0
                if self._dwell_left <= 0:
                    others = [c for c in stage.clusters if c != self._active_cluster]
                    self._active_cluster = others[int(self._rng.integers(len(others)))]
                    self._dwell_left = self._sample_dwell(stage)
                    self._deviation = _NO_DEVIATION
        self._stage_progress = progress

        stage_completed = progress >= inst.duration - 1e-9
        if stage_completed:
            self.history.append((stage.name, self._stage_start, elapsed))
            self._stage_idx = idx = idx + 1
            if idx < len(stages):
                self._enter_stage()

        return SessionTick(
            elapsed, demand, stage.name, stage.kind, stage.stage_type,
            cluster.name, cluster.nominal_fps, self.spec.frame_lock,
            stage_completed, idx >= len(stages),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "finished" if self.finished else self.current_stage.name
        return (
            f"GameSession({self.session_id!r}, {self.spec.name!r}/"
            f"{self.script.name!r}, at={where}, t={self._elapsed})"
        )
