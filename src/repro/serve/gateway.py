"""The admission gateway: the fleet's front door.

Nothing in the paper sits between player requests and the distributor —
evaluation drives one pending request at a time (§V-B2).  A deployment
that "serves heavy traffic from millions of users" (ROADMAP) needs a
front door with explicit overload behaviour.  The gateway provides it,
deterministically, on simulation time:

* **Per-category bounded queues** — requests queue per game category
  ("Games Are Not Equal"); a full queue *sheds* the request, an explicit
  outcome, never silent growth (lint rule CG009 enforces the bound).
* **Token-bucket rate limiting** — dispatch attempts drain a bucket
  refilled at a fixed rate on sim time, bounding Algorithm-1 evaluations
  per tick no matter how deep the backlog is.
* **Bounded patience** — a request queued longer than
  ``max_queue_seconds`` (or beaten back ``max_retries`` times) is
  dead-lettered into the cluster's existing dead-letter log.
* **Explicit outcomes** — every verdict (``queued`` / ``shed`` /
  ``admitted`` / ``dead-lettered``) is recorded as a
  :class:`~repro.sim.telemetry.GatewayEvent` in the gateway's telemetry,
  which is part of the fleet digest: replays must reproduce shedding
  decisions byte-for-byte, exactly like usage samples.

Dispatch itself goes through :class:`~repro.serve.batching.MicroBatcher`
(an Algorithm-1 pre-screen on each node's shared snapshot).  The
gateway counts nothing twice: its verdicts are the event log, its rounds
the :attr:`AdmissionGateway.pumps` log, and the few facts no log holds
are plain ints stamped with the sim time of their last update.  :mod:`repro.obs.reader` builds the ``serve_*``
metric families from these records after the run.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.serve.batching import MicroBatcher
from repro.serve.slo import SloTracker
from repro.sim.telemetry import TelemetryRecorder
from repro.util.effects import shard_entry
from repro.workloads.requests import GameRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fleet import ClusterScheduler

__all__ = [
    "TokenBucket",
    "GatewayConfig",
    "AdmissionOutcome",
    "QueuedRequest",
    "AdmissionGateway",
]


class TokenBucket:
    """Deterministic sim-time token bucket.

    Refill is a pure function of elapsed simulation time —
    ``tokens = min(burst, tokens + (now - last) · rate)`` — so a replay
    grants tokens at exactly the same instants.
    """

    def __init__(self, rate_per_second: float, burst: float):
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be > 0, got {rate_per_second}"
            )
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate_per_second)
        self.burst = float(burst)
        self._tokens = float(burst)  # a fresh bucket starts full
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now

    def try_take(self, now: float) -> bool:
        """Take one token if available; never blocks."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tuning.

    Parameters
    ----------
    queue_capacity:
        Bound of each per-category queue; overflow sheds.
    rate_per_second:
        Token-bucket refill — dispatch attempts per simulated second.
    burst:
        Token-bucket depth (attempts a single round may spend).
    max_queue_seconds:
        Patience: a request queued longer dead-letters at the next pump.
    max_retries:
        Dispatch rounds a request survives before dead-lettering.
    capacity_floor:
        Capacity-coupled backpressure (0 = off, the default).  When the
        cluster's usable capacity — UP nodes over its capacity target —
        falls below this fraction, the per-category queue bound shrinks
        proportionally (``capacity · usable/floor``, never below 1), so
        the gateway sheds *earlier* while nodes are down or still
        warming, and releases as soon as warm standbys are promoted.
    """

    queue_capacity: int = 256
    rate_per_second: float = 8.0
    burst: int = 16
    max_queue_seconds: float = 300.0
    max_retries: int = 25
    capacity_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_queue_seconds <= 0:
            raise ValueError(
                f"max_queue_seconds must be > 0, got {self.max_queue_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 <= self.capacity_floor <= 1.0:
            raise ValueError(
                f"capacity_floor must be in [0, 1], got {self.capacity_floor}"
            )


@dataclass(frozen=True)
class AdmissionOutcome:
    """The gateway's verdict on one :meth:`AdmissionGateway.offer`.

    ``accepted`` means the request is *in the system* (queued), not that
    it started; terminal verdicts (admitted / dead-lettered) surface
    later through gateway telemetry and SLO summaries.
    """

    kind: str  # "queued" | "shed"
    category: str
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """Whether the request entered a queue."""
        return self.kind == "queued"


@dataclass
class QueuedRequest:
    """One gateway-queued request with its retry state."""

    request: GameRequest
    category: str
    enqueued: float
    seq: int
    attempts: int = 0
    incarnation: int = 0


class AdmissionGateway:
    """Bounded, rate-limited admission in front of a cluster.

    Parameters
    ----------
    scheduler:
        The fleet's :class:`~repro.cluster.fleet.ClusterScheduler`.  The
        gateway does not attach itself — call
        ``scheduler.attach_gateway(gateway)`` to route ``submit``/
        ``pump`` through it.
    config:
        Queue/rate/patience bounds.

    Every verdict — ``queued``, ``shed``, ``admitted``,
    ``dead-lettered`` — lands once in :attr:`telemetry`, a noise-free
    recorder of :class:`~repro.sim.telemetry.GatewayEvent` entries with
    the request id and (when admitted) node.  Its digest is folded into
    the fleet digest by
    :class:`~repro.cluster.experiment.FleetExperiment`, and
    :meth:`stats`, a :class:`~repro.trace.TraceRecorder` and the
    observability reader all count verdicts from it after the fact.
    """

    def __init__(
        self,
        scheduler: "ClusterScheduler",
        *,
        config: Optional[GatewayConfig] = None,
    ):
        self.scheduler = scheduler
        self.config = config if config is not None else GatewayConfig()
        self.telemetry = TelemetryRecorder(noise_std=0.0)
        self.bucket = TokenBucket(
            self.config.rate_per_second, float(self.config.burst)
        )
        self._queues: Dict[str, Deque[QueuedRequest]] = {}
        self._seq = itertools.count()
        #: ``(time, requests started)`` per :meth:`pump` round.
        self.pumps: List[Tuple[float, int]] = []
        #: Each category's queue depth as of the latest pump round.
        self.pump_depths: Dict[str, int] = {}
        # Tallies no log holds: a count and the sim time of its last one.
        #: Dispatch attempts that found no willing node; each requeues
        #: the request for another round (a retry).
        self.deferrals = 0
        self.deferred_at: Optional[float] = None
        #: Pump rounds that ran out of tokens with work still queued.
        self.throttled_rounds = 0
        self.throttled_at: Optional[float] = None
        #: Sheds caused by the capacity floor, not a full queue.
        self.backpressure_sheds = 0
        self.backpressure_at: Optional[float] = None
        self.slo = SloTracker()
        self.batcher = MicroBatcher(self)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued across every category."""
        return sum(len(q) for q in self._queues.values())

    def has_pending(self, request_id: int) -> bool:
        """Whether a request with this id is queued in any category.

        The cluster's requeue path consults this to keep a session from
        being requeued twice when a drain and an active retry backoff
        race (the double-requeue guard).
        """
        return any(
            entry.request.request_id == request_id
            for q in self._queues.values()
            for entry in q
        )

    def effective_capacity(self) -> int:
        """Per-category queue bound after capacity-coupled backpressure.

        With ``capacity_floor`` unset this is ``queue_capacity``.  With
        a floor, the bound shrinks in proportion to how far the fleet's
        usable capacity sits below it — shedding earlier while nodes are
        down/warming, releasing the moment standbys are promoted.
        """
        floor = self.config.capacity_floor
        if floor <= 0.0:
            return self.config.queue_capacity
        usable = self.scheduler.usable_fraction()
        if usable >= floor:
            return self.config.queue_capacity
        return max(1, int(self.config.queue_capacity * usable / floor))

    def _queue_for(self, category: str) -> Deque[QueuedRequest]:
        q = self._queues.get(category)
        if q is None:
            # maxlen declares the bound (CG009); offer() checks fullness
            # explicitly so overflow sheds loudly instead of silently
            # dropping the opposite end.
            q = deque(maxlen=self.config.queue_capacity)
            self._queues[category] = q
        return q

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def offer(
        self,
        request: GameRequest,
        *,
        time: float,
        incarnation: int = 0,
    ) -> AdmissionOutcome:
        """Admit one request into its category queue, or shed it."""
        category = request.spec.category.value
        q = self._queue_for(category)
        capacity = self.effective_capacity()
        if len(q) >= capacity:
            backpressure = capacity < self.config.queue_capacity
            if backpressure:
                self.backpressure_sheds += 1
                self.backpressure_at = time
            self.slo.record(category, "shed", 0.0, time=time)
            detail = "capacity floor" if backpressure else "queue full"
            self.telemetry.record_gateway_event(
                time, "shed", category, f"r{request.request_id}: {detail}",
                request_id=request.request_id,
            )
            return AdmissionOutcome("shed", category, detail)
        q.append(
            QueuedRequest(
                request,
                category,
                enqueued=float(time),
                seq=next(self._seq),
                incarnation=incarnation,
            )
        )
        self.telemetry.record_gateway_event(
            time, "queued", category, f"r{request.request_id}",
            request_id=request.request_id,
        )
        return AdmissionOutcome("queued", category)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dead_letter(self, entry: QueuedRequest, time: float, reason: str) -> None:
        from repro.cluster.fleet import DeadLetter  # import cycle guard

        self.scheduler.dead_letters.append(
            DeadLetter(entry.request, float(time), entry.attempts, reason)
        )
        self.slo.record(
            entry.category, "dead-lettered",
            max(0.0, time - entry.enqueued), time=time,
        )
        self.telemetry.record_gateway_event(
            time, "dead-lettered", entry.category,
            f"r{entry.request.request_id}: {reason}",
            request_id=entry.request.request_id,
        )

    def _expire(self, time: float) -> None:
        """Dead-letter requests whose patience ran out."""
        for category in sorted(self._queues):
            q = self._queues[category]
            survivors = [
                e for e in q
                if not self._expired_one(e, time)
            ]
            if len(survivors) != len(q):
                q.clear()
                q.extend(survivors)

    def _expired_one(self, entry: QueuedRequest, time: float) -> bool:
        if time - entry.enqueued > self.config.max_queue_seconds:
            self._dead_letter(entry, time, "queue patience exhausted")
            return True
        return False

    @shard_entry("region:fleet")
    def pump(self, time: float, seed_for) -> List[GameRequest]:
        """One rate-limited dispatch round over every queue.

        Due requests are walked in global arrival order (FIFO across
        categories); each dispatch attempt spends one token.  Returns
        the requests that started.
        """
        self._expire(time)
        entries = sorted(
            (e for q in self._queues.values() for e in q),
            key=lambda e: e.seq,
        )
        started: List[GameRequest] = []
        resolved: List[QueuedRequest] = []
        for entry in entries:
            if not self.bucket.try_take(time):
                self.throttled_rounds += 1
                self.throttled_at = time
                break
            node = self.batcher.dispatch_one(
                self.scheduler, entry, time=time, seed_for=seed_for
            )
            if node is not None:
                started.append(entry.request)
                resolved.append(entry)
                self.slo.record(
                    entry.category, "admitted",
                    max(0.0, time - entry.enqueued), time=time,
                )
                self.telemetry.record_gateway_event(
                    time, "admitted", entry.category,
                    f"r{entry.request.request_id}@{node.node_id}",
                    request_id=entry.request.request_id,
                    node=node.node_id,
                )
                continue
            self.deferrals += 1
            self.deferred_at = time
            entry.attempts += 1
            if entry.attempts > self.config.max_retries:
                self._dead_letter(entry, time, "retries exhausted")
                resolved.append(entry)
        if resolved:
            gone = {e.seq for e in resolved}
            for category in sorted(self._queues):
                q = self._queues[category]
                survivors = [e for e in q if e.seq not in gone]
                if len(survivors) != len(q):
                    q.clear()
                    q.extend(survivors)
        self.pumps.append((time, len(started)))
        self.pump_depths = {
            category: len(self._queues[category])
            for category in sorted(self._queues)
        }
        return started

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Outcome counts as a flat dict of ints.

        ``queued``/``admitted``/``shed``/``dead_lettered`` are verdicts,
        counted from the event log; ``deferrals``, ``throttled_rounds``
        and ``backpressure_sheds`` are the tallies of the same names.
        """
        verdicts = Counter(e.outcome for e in self.telemetry.gateway_events)
        return {
            "queued": verdicts["queued"],
            "admitted": verdicts["admitted"],
            "shed": verdicts["shed"],
            "dead_lettered": verdicts["dead-lettered"],
            "deferrals": self.deferrals,
            "depth": self.depth,
            "throttled_rounds": self.throttled_rounds,
            "backpressure_sheds": self.backpressure_sheds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"AdmissionGateway(depth={stats['depth']}, "
            f"admitted={stats['admitted']}, shed={stats['shed']})"
        )
