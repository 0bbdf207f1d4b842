"""A compact discrete-event simulation engine.

Time is a float in seconds (the co-location experiments use integer
ticks).  Events are ``(time, priority, seq, callback)`` entries in a
heap; callbacks may schedule further events.  The engine is deliberately
minimal — deterministic ordering and cancellation are the two features
the schedulers rely on.

:func:`validate_shard_plan` is the runtime half of the shard
certification story: given the ``shardplan.json`` certificate the
analyzer exported (``cocg lint --shard-plan-out``) and the entry-point
callables a deployment actually registers, it proves the two agree
before any partitioned run starts; the execution seam itself,
:func:`~repro.util.partition.run_partitioned`, lives in the stdlib-only
:mod:`repro.util.partition`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.util.effects import shard_entry_group

__all__ = ["Event", "SimulationEngine", "ShardPlanError",
           "SHARD_PLAN_SCHEMA", "validate_shard_plan"]


@dataclass
class Event:  # lint: disable=CG013 -- engine-internal heap entry, not telemetry
    """A scheduled callback.  Ordering: time, then priority, then FIFO."""

    time: float
    priority: int
    seq: int
    callback: Callable[["SimulationEngine"], None]
    cancelled: bool = False
    _done: bool = field(default=False, repr=False)
    _on_cancel: Optional[Callable[[], None]] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it (idempotent; a no-op
        once the event has fired)."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


class SimulationEngine:
    """Event loop with deterministic tie-breaking.

    Events at equal times fire in (priority, insertion) order, so a
    control tick scheduled with a lower priority number always observes
    the same state regardless of scheduling order in user code.
    """

    def __init__(self, *, start_time: float = 0.0):
        self._now = float(start_time)
        #: ``(time, priority, seq, event)``; ``seq`` is unique, so heap
        #: order is plain tuple order and events are never compared.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._live = 0

    def _note_cancel(self) -> None:
        self._live -= 1

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.

        O(1): a live counter maintained on schedule/cancel/fire, so
        per-tick health checks never rescan the heap.
        """
        return self._live

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (≥ now)."""
        if time < self._now - 1e-9:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        event = Event(
            float(time), int(priority), next(self._seq), callback,
            _on_cancel=self._note_cancel,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._live += 1
        return event

    def after(
        self,
        delay: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.at(self._now + delay, callback, priority=priority)

    def every(
        self,
        interval: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
        start_delay: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Returns a cancel function.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        state = {"event": None, "stopped": False}

        def fire(engine: "SimulationEngine") -> None:
            if state["stopped"]:
                return
            callback(engine)
            if not state["stopped"]:
                state["event"] = engine.after(interval, fire, priority=priority)

        first_delay = interval if start_delay is None else start_delay
        state["event"] = self.after(first_delay, fire, priority=priority)

        def cancel() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            event._done = True  # cancel() after this point is a no-op
            self._live -= 1
            self._now = event.time
            event.callback(self)
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events with ``time <= end_time``; advance the clock to it."""
        while self._heap:
            head = self._heap[0]
            if head[3].cancelled:
                heapq.heappop(self._heap)
                continue
            if head[0] > end_time + 1e-9:
                break
            self.step()
        self._now = max(self._now, float(end_time))

    def run(self) -> None:
        """Run until the queue drains."""
        while self.step():
            pass


# ---------------------------------------------------------------------------
# Shard-plan validation (runtime half of the shard certification: CG015
# and CG020-CG022)


class ShardPlanError(ValueError):
    """The shard certificate and the registered entry points disagree."""


#: Schema id the analyzer stamps into ``shardplan.json``.
SHARD_PLAN_SCHEMA = "cocg-shardplan/1"


def validate_shard_plan(
    plan: Mapping[str, object],
    entry_points: Iterable[Callable[..., object]],
) -> None:
    """Cross-check a ``shardplan.json`` certificate against runtime
    entry points.

    ``plan`` is the parsed certificate (``json.loads`` of the file the
    analyzer wrote); ``entry_points`` are the callables a deployment
    registers as shard entries.  Each one must carry a
    ``@shard_entry("<group>")`` decoration, appear in the certificate's
    ``entry_points`` table (matched on ``__qualname__``), and declare
    the same group the certificate recorded — otherwise the static
    proof was computed for a different program than the one about to
    run.  All problems are collected and raised as one
    :class:`ShardPlanError` (sorted, so the message is deterministic).
    """
    problems: list[str] = []
    schema = plan.get("schema")
    if schema != SHARD_PLAN_SCHEMA:
        problems.append(
            f"certificate schema is {schema!r}, expected "
            f"{SHARD_PLAN_SCHEMA!r}"
        )
    raw_entries = plan.get("entry_points")
    table: dict[str, str] = {}
    if isinstance(raw_entries, Mapping):
        for node, spec in raw_entries.items():
            if isinstance(spec, Mapping) and isinstance(spec.get("group"),
                                                        str):
                # "module::Class.method" -> "Class.method"
                table[str(node).split("::", 1)[-1]] = spec["group"]
    else:
        problems.append("certificate has no entry_points table")
    for fn in entry_points:
        qualname = getattr(fn, "__qualname__", repr(fn))
        group = shard_entry_group(fn)
        if group is None:
            problems.append(
                f"{qualname} is registered as an entry point but is not "
                f"decorated with @shard_entry(...)"
            )
            continue
        certified = table.get(qualname)
        if certified is None:
            problems.append(
                f"{qualname} is not in the certificate's entry_points "
                f"(stale shardplan.json? re-run `cocg lint "
                f"--shard-plan-out`)"
            )
        elif certified != group:
            problems.append(
                f"{qualname} declares shard group {group!r} but the "
                f"certificate recorded {certified!r}"
            )
    if problems:
        raise ShardPlanError(
            "shard plan validation failed:\n  "
            + "\n  ".join(sorted(problems))
        )
