"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a seed-carrying schedule of faults — node
crashes and recoveries, single-session kills, telemetry dropout and
noise, predictor-backend failures — that a
:class:`~repro.faults.injector.FaultInjector` turns into
:class:`~repro.sim.engine.SimulationEngine` events.  The plan itself is
pure data: no wall clock, no hidden randomness.  Every stochastic fault
(e.g. a 1 % telemetry dropout) draws from a generator derived with
:func:`repro.util.rng.derive_seed` from the plan seed and the fault's
index, so the same ``(seed, plan)`` pair always perturbs the very same
samples — the property the chaos CI job asserts byte-for-byte.

The builder methods (:meth:`FaultPlan.node_crash`,
:meth:`FaultPlan.telemetry_dropout`, …) return ``self`` so plans read as
a fluent schedule::

    plan = (
        FaultPlan(seed=7)
        .node_crash(120.0, "node-1", recover_after=180.0)
        .telemetry_dropout(0.0, duration=600.0, rate=0.01)
        .predictor_failure(200.0, game="contra", recover_after=150.0)
    )
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real
from typing import Dict, List, Optional, Tuple

from repro.util.rng import derive_seed
from repro.util.validation import check_fraction, check_nonnegative

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "validate_plan_payload"]


class FaultKind(Enum):
    """The fault taxonomy (see ``docs/FAULTS.md``)."""

    NODE_CRASH = "node-crash"
    NODE_RECOVER = "node-recover"
    NODE_DRAIN = "node-drain"
    SESSION_KILL = "session-kill"
    TELEMETRY_DROPOUT = "telemetry-dropout"
    TELEMETRY_NOISE = "telemetry-noise"
    PREDICTOR_FAIL = "predictor-fail"
    PREDICTOR_RECOVER = "predictor-recover"
    PROVISION_FAIL = "provision-fail"
    PROVISION_STALL = "provision-stall"
    SPOT_RECLAIM = "spot-reclaim"
    WARM_POOL_EXHAUST = "warm-pool-exhaust"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Targeting fields default to ``"*"`` (match everything).  ``node``,
    ``game`` and ``backend`` match exactly; ``session`` matches by
    prefix, which pairs naturally with the ``<game>-r<id>@<node>``
    session-id convention.

    Parameters
    ----------
    kind:
        What goes wrong.
    time:
        Simulation time (seconds) at which the fault fires.
    node / session / game / backend:
        Targeting patterns (see above).
    duration:
        Length of windowed faults (dropout/noise); ``inf`` = open-ended.
    rate:
        Per-sample dropout probability in [0, 1].
    std:
        Extra Gaussian noise std (percentage points) for noise faults.
    spike_prob / spike_scale:
        Per-sample probability and magnitude of a telemetry spike.
    recover_after:
        For crashes/predictor failures: schedule the matching recovery
        this many seconds later (``None`` = no auto-recovery).
    requeue:
        For kills/crashes/reclaims: whether displaced requests re-enter
        the cluster queue (a crash) or vanish/dead-letter.
    notice:
        Spot-reclamation notice window (seconds the node keeps its
        sessions after the reclaim fires).
    stall:
        Extra seconds a provision attempt hangs inside a
        ``provision-stall`` window.
    """

    kind: FaultKind
    time: float
    node: str = "*"
    session: str = "*"
    game: str = "*"
    backend: str = "*"
    duration: float = math.inf
    rate: float = 1.0
    std: float = 0.0
    spike_prob: float = 0.0
    spike_scale: float = 25.0
    recover_after: Optional[float] = None
    requeue: bool = True
    notice: float = 120.0
    stall: float = 30.0

    #: Optional payload keys, in :meth:`to_dict` order (everything but
    #: ``kind``/``time``).  One tuple serves serialization, strict
    #: deserialization and :func:`validate_plan_payload`.
    OPTIONAL_FIELDS = (
        "node", "session", "game", "backend", "duration", "rate",
        "std", "spike_prob", "spike_scale", "recover_after", "requeue",
        "notice", "stall",
    )

    def __post_init__(self) -> None:
        # Types first, so a malformed plan fails naming its field rather
        # than with a comparison's TypeError or a silent no-match.
        for name in ("node", "session", "game", "backend"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.requeue, bool):
            raise ValueError(f"requeue must be a bool, got {self.requeue!r}")
        numbers: Tuple[str, ...] = (
            "time", "duration", "rate", "std", "spike_prob", "spike_scale",
            "notice", "stall",
        )
        if self.recover_after is not None:
            numbers += ("recover_after",)
        for name in numbers:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        check_nonnegative("time", self.time)
        if not self.duration > 0:  # also rejects NaN; inf is open-ended
            raise ValueError(f"duration must be > 0, got {self.duration}")
        check_fraction("rate", self.rate)
        check_nonnegative("std", self.std)
        check_fraction("spike_prob", self.spike_prob)
        check_nonnegative("spike_scale", self.spike_scale)
        if self.recover_after is not None and not (
            0 < self.recover_after < math.inf
        ):
            raise ValueError(
                f"recover_after must be a finite number > 0, got "
                f"{self.recover_after}"
            )
        check_nonnegative("notice", self.notice)
        check_nonnegative("stall", self.stall)

    @property
    def end(self) -> float:
        """End of a windowed fault (``time + duration``)."""
        return self.time + self.duration

    def matches_node(self, node_id: str) -> bool:
        """Whether the spec targets ``node_id``."""
        return self.node == "*" or self.node == node_id

    def matches_session(self, session_id: str) -> bool:
        """Whether the spec targets ``session_id`` (prefix match)."""
        return self.session == "*" or session_id.startswith(self.session)

    def matches_game(self, game: str) -> bool:
        """Whether the spec targets ``game``."""
        return self.game == "*" or self.game == game

    def matches_backend(self, backend: str) -> bool:
        """Whether the spec targets ``backend``."""
        return self.backend == "*" or self.backend == backend

    def to_dict(self) -> Dict:
        """JSON-serializable form (defaults elided — byte-stable)."""
        out: Dict = {"kind": self.kind.value, "time": self.time}
        defaults = FaultSpec(kind=self.kind, time=self.time)
        for name in self.OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = value
        return out

    @staticmethod
    def from_dict(data: Dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`.

        Strict: an unknown key raises :class:`ValueError` naming it
        (and a bad ``kind`` raises with the known kinds), so a typo'd
        plan fails at parse time, not deep inside a run.
        """
        payload = dict(data)
        if "kind" not in payload:
            raise ValueError(f"fault spec has no 'kind': {data!r}")
        if "time" not in payload:
            raise ValueError(f"fault spec has no 'time': {data!r}")
        raw_kind = payload.pop("kind")
        try:
            kind = FaultKind(raw_kind)
        except ValueError:
            known = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {raw_kind!r}; known kinds: {known}"
            ) from None
        raw_time = payload.pop("time")
        try:
            time = float(raw_time)
        except (TypeError, ValueError):
            raise ValueError(f"time must be a number, got {raw_time!r}") from None
        unknown = sorted(set(payload) - set(FaultSpec.OPTIONAL_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown fault field(s) {unknown} for kind "
                f"{kind.value!r}; known fields: "
                f"{', '.join(FaultSpec.OPTIONAL_FIELDS)}"
            )
        return FaultSpec(kind=kind, time=time, **payload)


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of faults.

    Parameters
    ----------
    seed:
        Root of every stochastic fault's random stream (dropout, noise
        spikes).  Two runs with the same plan and seed perturb
        byte-identical samples.
    faults:
        The scheduled faults; kept in insertion order, replayed in
        ``(time, kind)`` order.
    """

    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Fluent builders
    # ------------------------------------------------------------------
    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append one pre-built :class:`FaultSpec`."""
        self.faults.append(spec)
        return self

    def node_crash(
        self,
        time: float,
        node: str,
        *,
        recover_after: Optional[float] = None,
        requeue: bool = True,
    ) -> "FaultPlan":
        """Node dies: capacity is gone, hosted sessions are killed.

        Displaced requests re-enter the cluster retry queue unless
        ``requeue=False``.  ``recover_after`` schedules the node's
        return to ``up`` that many seconds later.
        """
        return self.add(FaultSpec(
            FaultKind.NODE_CRASH, time, node=node,
            recover_after=recover_after, requeue=requeue,
        ))

    def node_recover(self, time: float, node: str) -> "FaultPlan":
        """Bring a crashed/draining node back to ``up``."""
        return self.add(FaultSpec(FaultKind.NODE_RECOVER, time, node=node))

    def node_drain(self, time: float, node: str) -> "FaultPlan":
        """Set a node ``draining``: keeps its sessions, admits nothing."""
        return self.add(FaultSpec(FaultKind.NODE_DRAIN, time, node=node))

    def session_kill(
        self,
        time: float,
        *,
        node: str = "*",
        session: str = "*",
        requeue: bool = True,
    ) -> "FaultPlan":
        """Kill one running session (deterministically the first match).

        ``requeue=True`` models a crash (the player relaunches);
        ``requeue=False`` an abandon (the player walks away).
        """
        return self.add(FaultSpec(
            FaultKind.SESSION_KILL, time, node=node, session=session,
            requeue=requeue,
        ))

    def telemetry_dropout(
        self,
        time: float,
        *,
        duration: float = math.inf,
        rate: float = 1.0,
        node: str = "*",
        session: str = "*",
    ) -> "FaultPlan":
        """Drop each matching telemetry sample with probability ``rate``."""
        return self.add(FaultSpec(
            FaultKind.TELEMETRY_DROPOUT, time, node=node, session=session,
            duration=duration, rate=rate,
        ))

    def telemetry_noise(
        self,
        time: float,
        *,
        duration: float = math.inf,
        std: float = 3.0,
        spike_prob: float = 0.0,
        spike_scale: float = 25.0,
        node: str = "*",
        session: str = "*",
    ) -> "FaultPlan":
        """Add Gaussian noise (and optional spikes) to observed samples."""
        return self.add(FaultSpec(
            FaultKind.TELEMETRY_NOISE, time, node=node, session=session,
            duration=duration, std=std, spike_prob=spike_prob,
            spike_scale=spike_scale,
        ))

    def predictor_failure(
        self,
        time: float,
        *,
        node: str = "*",
        game: str = "*",
        backend: str = "*",
        recover_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Break matching predictor backends (``predict_next`` raises)."""
        return self.add(FaultSpec(
            FaultKind.PREDICTOR_FAIL, time, node=node, game=game,
            backend=backend, recover_after=recover_after,
        ))

    def predictor_recover(
        self,
        time: float,
        *,
        node: str = "*",
        game: str = "*",
        backend: str = "*",
    ) -> "FaultPlan":
        """Heal matching predictor backends."""
        return self.add(FaultSpec(
            FaultKind.PREDICTOR_RECOVER, time, node=node, game=game,
            backend=backend,
        ))

    def provision_fail(
        self, time: float, *, duration: float = 60.0
    ) -> "FaultPlan":
        """Provision attempts completing in the window fail (then retry
        with capped exponential backoff, up to the provisioner's
        ``max_retries``)."""
        return self.add(FaultSpec(
            FaultKind.PROVISION_FAIL, time, duration=duration,
        ))

    def provision_stall(
        self, time: float, *, duration: float = 60.0, stall: float = 30.0
    ) -> "FaultPlan":
        """Provision attempts completing in the window hang ``stall``
        extra seconds (the per-request timeout still applies)."""
        return self.add(FaultSpec(
            FaultKind.PROVISION_STALL, time, duration=duration, stall=stall,
        ))

    def spot_reclaim(
        self,
        time: float,
        node: str,
        *,
        notice: float = 120.0,
        requeue: bool = True,
    ) -> "FaultPlan":
        """Spot-reclaim a node: ``notice`` seconds out of dispatch with
        sessions running, then capacity loss with graceful drain —
        survivors requeue (``requeue=True``) or dead-letter with the
        explicit ``"reclaim"`` reason.  Never a silent loss."""
        return self.add(FaultSpec(
            FaultKind.SPOT_RECLAIM, time, node=node, notice=notice,
            requeue=requeue,
        ))

    def warm_pool_exhaust(
        self, time: float, *, duration: float = 120.0
    ) -> "FaultPlan":
        """The platform withdraws every ready standby and refuses warm
        refills for ``duration`` seconds (a capacity crunch)."""
        return self.add(FaultSpec(
            FaultKind.WARM_POOL_EXHAUST, time, duration=duration,
        ))

    # ------------------------------------------------------------------
    def scheduled(self) -> Tuple[FaultSpec, ...]:
        """The faults in deterministic replay order (time, then kind)."""
        return tuple(sorted(
            self.faults, key=lambda f: (f.time, f.kind.value)
        ))

    def stream_seed(self, index: int, spec: FaultSpec) -> int:
        """Derived seed for the ``index``-th fault's random stream."""
        return derive_seed(self.seed, "fault", str(index), spec.kind.value)

    def shifted(self, offset: float) -> "FaultPlan":
        """A copy with every fault time shifted by ``offset`` seconds."""
        return FaultPlan(
            seed=self.seed,
            faults=[replace(f, time=f.time + offset) for f in self.faults],
        )

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable form of the whole plan."""
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @staticmethod
    def from_dict(data: Dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return FaultPlan(
            seed=int(data.get("seed", 0)),
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", [])],
        )


def validate_plan_payload(data: object) -> List[str]:
    """Check a decoded fault-plan payload without running anything.

    Returns every problem found (empty = valid), each prefixed with its
    location (``faults[3]: …``), so ``cocg chaos --validate`` can report
    a typo'd plan in one pass instead of failing deep inside a run on
    the first bad entry.
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"plan must be a JSON object, got {type(data).__name__}"]
    unknown_top = sorted(set(data) - {"seed", "faults"})
    if unknown_top:
        errors.append(
            f"unknown top-level key(s) {unknown_top}; expected 'seed', 'faults'"
        )
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(f"seed must be an integer, got {seed!r}")
    faults = data.get("faults", [])
    if not isinstance(faults, list):
        return errors + [
            f"faults must be a list, got {type(faults).__name__}"
        ]
    for i, entry in enumerate(faults):
        if not isinstance(entry, dict):
            errors.append(
                f"faults[{i}]: must be an object, got {type(entry).__name__}"
            )
            continue
        try:
            FaultSpec.from_dict(entry)
        except (ValueError, TypeError) as exc:
            errors.append(f"faults[{i}]: {exc}")
    return errors
