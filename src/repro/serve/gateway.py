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

Dispatch itself is micro-batched through
:class:`~repro.serve.batching.MicroBatcher` (one shared Algorithm-1 pass
per node per round) unless ``micro_batching=False``, which degrades to
the cluster's naive per-request dispatch — same outcomes, more predictor
rollouts (the benchmark quantifies the gap).
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.naming import (
    GATEWAY_BACKPRESSURE,
    GATEWAY_DEFERRALS,
    GATEWAY_OUTCOMES,
    GATEWAY_QUEUE_DEPTH,
    GATEWAY_RETRIES,
    GATEWAY_THROTTLED_ROUNDS,
    STREAM_SERVE,
)
from repro.obs.observer import Observer
from repro.serve.batching import MicroBatcher
from repro.serve.slo import SloTracker
from repro.sim.telemetry import TelemetryRecorder
from repro.util.effects import shard_entry
from repro.workloads.requests import GameRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fleet import ClusterScheduler, FleetNode

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

    def peek(self, now: float) -> float:
        """Tokens available at ``now`` (diagnostics)."""
        self._refill(now)
        return self._tokens


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
    micro_batching:
        Share Algorithm-1 passes per node per round (default).  Off =
        naive per-request dispatch; identical outcomes, more rollouts.
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
    micro_batching: bool = True
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
    telemetry:
        Recorder for :class:`~repro.sim.telemetry.GatewayEvent` entries;
        a noise-free private recorder by default.  Its digest is folded
        into the fleet digest by
        :class:`~repro.cluster.experiment.FleetExperiment`.  Every
        verdict — ``queued``, ``shed``, ``admitted``, ``dead-lettered``
        — lands there once, with its request id and (when admitted)
        node; a :class:`~repro.trace.TraceRecorder` reads the verdicts
        back from it after the run.

    The outcome counters live only in a metrics registry — a private
    one until :meth:`attach_observer` moves them into an observer's —
    and :meth:`stats` reads them as plain ints.
    """

    def __init__(
        self,
        scheduler: "ClusterScheduler",
        *,
        config: Optional[GatewayConfig] = None,
        telemetry: Optional[TelemetryRecorder] = None,
    ):
        self.scheduler = scheduler
        self.config = config if config is not None else GatewayConfig()
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryRecorder(noise_std=0.0)
        )
        self.obs: Optional[Observer] = None
        self._bind_metrics(MetricsRegistry())
        self.bucket = TokenBucket(
            self.config.rate_per_second, float(self.config.burst)
        )
        self._queues: Dict[str, Deque[QueuedRequest]] = {}
        self._seq = itertools.count()

    def attach_observer(self, obs: Observer) -> None:
        """Publish into a shared observer (call before the run starts).

        Every pump round becomes a ``gateway.pump`` span on the
        ``serve`` stream, and the outcome counters, the SLO tracker and
        the micro-batcher are re-bound on the observer's registry.
        :meth:`~repro.cluster.fleet.ClusterScheduler.attach_observer`
        forwards here, so an observer handed to the experiment reaches
        the gateway.
        """
        self.obs = obs
        self._bind_metrics(obs.registry)

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        outcomes = registry.counter(
            GATEWAY_OUTCOMES,
            "Admission-gateway verdicts by outcome.",
            ("outcome",),
        )
        # Pre-resolved children: hot-path increments are one float add,
        # and all four outcomes always appear in the export.
        self._c_queued = outcomes.labels(outcome="queued")
        self._c_admitted = outcomes.labels(outcome="admitted")
        self._c_shed = outcomes.labels(outcome="shed")
        self._c_dead_lettered = outcomes.labels(outcome="dead_lettered")
        self._c_retries = registry.counter(
            GATEWAY_RETRIES, "Requeue attempts after a deferred dispatch."
        )
        self._c_deferrals = registry.counter(
            GATEWAY_DEFERRALS,
            "Dispatch attempts that found no willing node.",
        )
        self._c_throttled = registry.counter(
            GATEWAY_THROTTLED_ROUNDS,
            "Pump rounds that ran out of tokens with work still queued.",
        )
        self._c_backpressure = registry.counter(
            GATEWAY_BACKPRESSURE,
            "Requests shed early because usable capacity sat below the floor.",
        )
        self._g_depth = registry.gauge(
            GATEWAY_QUEUE_DEPTH,
            "Requests currently queued, per category.",
            ("category",),
        )
        self.slo = SloTracker(registry)
        self.batcher = MicroBatcher(registry)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued across every category."""
        return sum(len(q) for q in self._queues.values())

    def depth_of(self, category: str) -> int:
        """Queued requests of one category."""
        return len(self._queues.get(category, ()))

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
                self._c_backpressure.inc(time=time)
            self._c_shed.inc(time=time)
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
        self._c_queued.inc(time=time)
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

        self._c_dead_lettered.inc(time=time)
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
        if self.obs is not None:
            self.obs.tick(time)
            cm = self.obs.span("gateway.pump", time, stream=STREAM_SERVE)
        else:
            cm = nullcontext(None)
        with cm as span:
            started = self._pump_round(time, seed_for)
            if span is not None:
                span.args["started"] = len(started)
        for category in sorted(self._queues):
            self._g_depth.labels(category=category).set(
                len(self._queues[category]), time=time
            )
        return started

    def _pump_round(self, time: float, seed_for) -> List[GameRequest]:
        self._expire(time)
        entries = sorted(
            (e for q in self._queues.values() for e in q),
            key=lambda e: e.seq,
        )
        if self.config.micro_batching:
            self.batcher.begin_round()
        started: List[GameRequest] = []
        resolved: List[QueuedRequest] = []
        for entry in entries:
            if not self.bucket.try_take(time):
                self._c_throttled.inc(time=time)
                break
            node = self._dispatch(entry, time, seed_for)
            if node is not None:
                started.append(entry.request)
                resolved.append(entry)
                self._c_admitted.inc(time=time)
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
            self._c_deferrals.inc(time=time)
            entry.attempts += 1
            self._c_retries.inc(time=time)
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
        return started

    def _dispatch(
        self, entry: QueuedRequest, time: float, seed_for
    ) -> Optional["FleetNode"]:
        if self.config.micro_batching:
            return self.batcher.dispatch_one(
                self.scheduler, entry, time=time, seed_for=seed_for
            )
        return self.scheduler.dispatch(
            entry.request,
            time=time,
            seed=seed_for(entry.request, entry.incarnation),
            incarnation=entry.incarnation,
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Outcome counters as a flat dict of ints.

        ``queued``/``admitted``/``shed``/``dead_lettered`` are verdicts;
        ``deferrals`` counts dispatch attempts that found no willing
        node, ``throttled_rounds`` pump rounds that ran out of tokens
        with work still queued, and ``backpressure_sheds`` sheds caused
        by the capacity floor rather than a genuinely full queue.
        """
        return {
            "queued": int(self._c_queued.value),
            "admitted": int(self._c_admitted.value),
            "shed": int(self._c_shed.value),
            "dead_lettered": int(self._c_dead_lettered.value),
            "deferrals": int(self._c_deferrals.value),
            "depth": self.depth,
            "throttled_rounds": int(self._c_throttled.value),
            "backpressure_sheds": int(self._c_backpressure.value),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"AdmissionGateway(depth={stats['depth']}, "
            f"admitted={stats['admitted']}, shed={stats['shed']})"
        )
