"""Reads a finished run into metrics and spans.

No layer of the simulator holds an observer.  Each keeps its own plain,
always-on records, and this module turns them into the canonical
families and spans of :mod:`repro.obs.naming` once the run is over:

* the gateway's verdict events, pump rounds (also ``gateway.pump``
  spans), tallies and last-pump queue depths, its SLO tracker's
  records and its micro-batcher's counts;
* the cluster's dispatch stamps, retry-queue pump rounds and
  reclamation notices, each node's telemetry fault events (lifecycle
  transitions) and QoS degraded seconds;
* each CoCG scheduler's decision log, control cycles and refused
  placements, and its distributor's verdict and batch counts;
* the fault injector's firings and the provisioner's lifecycle events;
* a fleet of fleets' routed and completed counts.

An observed and an unobserved run therefore execute the same code, and
reading a run twice gives byte-identical exports.  Every sample is
stamped with the simulation time of the last event it counts.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.naming import (
    ALGO1_BATCHES,
    ALGO1_EVALUATIONS,
    BATCHER_EVENTS,
    CLUSTER_DISPATCH,
    CLUSTER_LIFECYCLE,
    CLUSTER_PUMP_ROUNDS,
    FAULTS_INJECTED,
    FLEET_COMPLETED,
    FLEET_ROUTED,
    GATEWAY_BACKPRESSURE,
    GATEWAY_DEFERRALS,
    GATEWAY_OUTCOMES,
    GATEWAY_QUEUE_DEPTH,
    GATEWAY_RETRIES,
    GATEWAY_THROTTLED_ROUNDS,
    PROVISION_BUCKETS,
    PROVISION_EVENTS,
    PROVISION_LATENCY,
    QOS_DEGRADED_SECONDS,
    QUEUE_WAIT_SECONDS,
    SCHED_DECISIONS,
    SCHED_DEGRADED_TRANSITIONS,
    SLO_OUTCOMES,
    STREAM_CLUSTER,
    STREAM_FAULTS,
    STREAM_SERVE,
    WAIT_BUCKETS,
    lifecycle_span,
    node_stream,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.metrics import Counter as CounterFamily
    from repro.obs.observer import Observer

__all__ = ["read_run"]

#: Node telemetry fault events that are lifecycle transitions, with the
#: state each leaves the node in.  A provisioned node's ``node-warming``
#: is logged just before it joins the cluster, and counts like the rest.
_LIFECYCLE_STATES = {
    "node-warming": "warming",
    "node-crash": "down",
    "node-recover": "up",
    "node-drain": "draining",
    "node-up": "up",
    "reclaim-notice": "reclaim-notice",
    "node-reclaimed": "down",
    "warm-pool-exhaust": "down",
}

#: Same-time order of the engine events that emit cluster-stream spans:
#: fault events, then lifecycle events, then pump rounds.
_RANK_FAULT, _RANK_LIFECYCLE, _RANK_PUMP = range(3)

#: ``(emitted at, rank, name, begin, end, args)`` of one span.
_Window = Tuple[float, int, str, float, Optional[float], Dict[str, object]]

#: Per label value: ``(count, time of the last one)``.
_Tally = Dict[str, Tuple[int, Optional[float]]]


def _tally(tally: _Tally, key: str, time: float) -> None:
    count, last = tally.get(key, (0, None))
    tally[key] = (count + 1, _latest(last, time))


def _latest(*times: Optional[float]) -> Optional[float]:
    known = [t for t in times if t is not None]
    return max(known) if known else None


def _count(
    family: "CounterFamily", value: float, time: Optional[float], **labels: str
) -> None:
    """Create the labeled sample; add ``value`` stamped ``time``, if any."""
    child = family.labels(**labels)
    if value:
        child.inc(value, time=time)


def read_run(obs: "Observer", run: object) -> None:
    """Read ``run`` into ``obs``'s registry and tracer.

    ``run`` is a finished :class:`~repro.cluster.experiment.FleetExperiment`,
    a :class:`~repro.fleet.controller.FleetOfFleetsResult`, or an
    :class:`~repro.serve.gateway.AdmissionGateway` driven directly.
    """
    if hasattr(run, "cluster"):
        _read_experiment(obs, run)
    elif hasattr(run, "requests_routed"):
        _read_fleet(obs, run)
    elif hasattr(run, "batcher"):
        _read_gateway(obs, run)
    else:
        raise TypeError(
            f"cannot read a {type(run).__name__}: expected a finished "
            "FleetExperiment, FleetOfFleetsResult or AdmissionGateway"
        )


# ----------------------------------------------------------------------
def _read_gateway(obs: "Observer", gateway) -> None:
    registry = obs.registry
    # Every verdict is one event; labels spell dead-lettered with an
    # underscore.  Sample stamps are the time of the last update.
    events = gateway.telemetry.gateway_events
    raw = Counter(map(attrgetter("outcome"), events))
    raw_at = _last_times(reversed(events), len(raw),
                         lambda e: (e.outcome, e.time))
    verdicts = {o.replace("-", "_"): n for o, n in raw.items()}
    verdict_at = {o.replace("-", "_"): t for o, t in raw_at.items()}
    outcomes = registry.counter(
        GATEWAY_OUTCOMES, "Admission-gateway verdicts by outcome.",
        ("outcome",),
    )
    for outcome in ("queued", "admitted", "shed", "dead_lettered"):
        _count(outcomes, verdicts.get(outcome, 0), verdict_at.get(outcome),
               outcome=outcome)
    # Unlabeled counters that never moved export no sample at all.
    for name, help, count, time in (
        (GATEWAY_RETRIES, "Requeue attempts after a deferred dispatch.",
         gateway.deferrals, gateway.deferred_at),
        (GATEWAY_DEFERRALS, "Dispatch attempts that found no willing node.",
         gateway.deferrals, gateway.deferred_at),
        (GATEWAY_THROTTLED_ROUNDS,
         "Pump rounds that ran out of tokens with work still queued.",
         gateway.throttled_rounds, gateway.throttled_at),
        (GATEWAY_BACKPRESSURE,
         "Requests shed early because usable capacity sat below the floor.",
         gateway.backpressure_sheds, gateway.backpressure_at),
    ):
        family = registry.counter(name, help)
        if count:
            family.inc(count, time=time)
    depth = registry.gauge(
        GATEWAY_QUEUE_DEPTH, "Requests currently queued, per category.",
        ("category",),
    )
    last_pump = gateway.pumps[-1][0] if gateway.pumps else None
    for category, queued in gateway.pump_depths.items():
        depth.labels(category=category).set(queued, time=last_pump)
    _read_slo(registry, gateway.slo.records)
    batcher_events = registry.counter(
        BATCHER_EVENTS, "Micro-batcher activity by event kind.", ("event",)
    )
    batcher = gateway.batcher
    for event, count, time in (
        ("rounds", len(gateway.pumps), last_pump),
        ("evaluations", batcher.evaluations, batcher.evaluated_at),
        ("prescreen_rejects", batcher.prescreen_rejects, batcher.rejected_at),
        ("admissions", verdicts.get("admitted", 0),
         verdict_at.get("admitted")),
        ("fallback_probes", batcher.fallback_probes, batcher.probed_at),
    ):
        _count(batcher_events, count, time, event=event)
    for time, started in gateway.pumps:
        obs.tracer.record(
            "gateway.pump", time, stream=STREAM_SERVE, started=started
        )


def _last_times(newest_first, distinct: int, key_time) -> Dict:
    """``{key: time}`` of each key's latest item, scanning newest first
    until all ``distinct`` keys are seen."""
    last: Dict = {}
    for item in newest_first:
        key, time = key_time(item)
        if key not in last:
            last[key] = time
            if len(last) == distinct:
                break
    return last


def _read_slo(registry, records) -> None:
    """The wait histogram and outcome counts of an SLO tracker's
    ``(category, outcome, wait, time)`` records."""
    waits = registry.histogram(
        QUEUE_WAIT_SECONDS, "Time-in-queue before each gateway verdict.",
        ("category",), buckets=WAIT_BUCKETS,
    )
    categories = list(map(itemgetter(0), records))
    observed = list(map(itemgetter(2), records))
    category_at = _last_times(reversed(records), len(set(categories)),
                              lambda r: (r[0], r[3]))
    for category, time in category_at.items():
        # This category's waits, in record order.
        waits.labels(category=category).observe_all(
            list(compress(observed, map(category.__eq__, categories))),
            time=time,
        )
    counts = Counter(map(itemgetter(0, 1), records))
    key_at = _last_times(reversed(records), len(counts),
                         lambda r: (r[:2], r[3]))
    outcomes = registry.counter(
        SLO_OUTCOMES, "Gateway verdicts by category and outcome.",
        ("category", "outcome"),
    )
    for (category, outcome), count in counts.items():
        outcomes.labels(
            category=category, outcome=outcome.replace("-", "_")
        ).inc(count, time=key_at[category, outcome])


def _read_fleet(obs: "Observer", result) -> None:
    routed = obs.registry.counter(
        FLEET_ROUTED,
        "Requests the session router assigned to each shard.",
        ("region",),
    )
    done = obs.registry.counter(
        FLEET_COMPLETED, "Sessions completed per regional shard.", ("region",)
    )
    for name in sorted(result.regions):
        routed.labels(region=name).inc(result.requests_routed.get(name, 0))
        done.labels(region=name).inc(
            sum(result.regions[name].result.completed_runs.values())
        )


def _read_experiment(obs: "Observer", experiment) -> None:
    cluster = experiment.cluster
    if cluster.gateway is not None:
        _read_gateway(obs, cluster.gateway)
    registry = obs.registry
    dispatch = registry.counter(
        CLUSTER_DISPATCH, "Fleet dispatch attempts by outcome.", ("outcome",)
    )
    for outcome, count in (
        ("dispatched", cluster.dispatched), ("deferred", cluster.deferred)
    ):
        _count(dispatch, count, cluster.last_dispatch.get(outcome),
               outcome=outcome)
    rounds = registry.counter(
        CLUSTER_PUMP_ROUNDS, "Retry-queue pump rounds (the non-gateway path)."
    )
    if cluster.pumps:
        rounds.inc(len(cluster.pumps), time=cluster.pumps[-1][0])
    lifecycle = registry.counter(
        CLUSTER_LIFECYCLE,
        "Node lifecycle transitions by resulting state.",
        ("state",),
    )
    degraded = registry.counter(
        QOS_DEGRADED_SECONDS,
        "Session-seconds spent under degraded (reactive) control.",
        ("node",),
    )
    states: _Tally = {}
    for node in cluster.nodes:
        _count(degraded, node.qos.total_degraded_seconds(),
               node.qos.last_degraded, node=node.node_id)
        for event in node.telemetry.fault_events:
            state = _LIFECYCLE_STATES.get(event.kind)
            if state is not None:
                _tally(states, state, event.time)
    for state, (count, time) in states.items():
        _count(lifecycle, count, time, state=state)
    _read_schedulers(obs, cluster)
    if experiment.injector is not None:
        _read_faults(obs, experiment.injector)
    windows: List[_Window] = [
        (time, _RANK_FAULT, lifecycle_span(node_id), time, time + notice,
         {"state": "reclaim-notice",
          "fault_index": -1 if index is None else index})
        for time, node_id, notice, index in cluster.reclaims
    ]
    if experiment.provisioner is not None:
        windows += _read_provisioner(obs, experiment.provisioner)
    windows += [
        (time, _RANK_PUMP, "cluster.pump", time, None, {"started": started})
        for time, started in cluster.pumps
    ]
    # Same-time spans in engine order; stable, so each source keeps the
    # order it emitted its spans in.
    windows.sort(key=lambda w: (w[0], w[1]))
    for _emitted, _rank, name, begin, end, args in windows:
        obs.tracer.record(name, begin, end, stream=STREAM_CLUSTER, **args)


def _read_schedulers(obs: "Observer", cluster) -> None:
    """Decision, degraded-mode and Algorithm-1 counters and control
    spans of every node run by a CoCG scheduler."""
    scheds = [
        (node.node_id, sched)
        for node in cluster.nodes
        if hasattr(sched := getattr(node.strategy, "scheduler", None),
                   "decision_log")
    ]
    if not scheds:
        return
    registry = obs.registry
    decisions = registry.counter(
        SCHED_DECISIONS,
        "CoCG scheduler decision-log entries by action.",
        ("action",),
    )
    transitions = registry.counter(
        SCHED_DEGRADED_TRANSITIONS,
        "Degraded-mode boundary crossings by direction.",
        ("direction",),
    )
    batches = registry.counter(
        ALGO1_BATCHES, "Shared Algorithm-1 snapshots opened (begin_batch)."
    )
    evaluations = registry.counter(
        ALGO1_EVALUATIONS,
        "Algorithm-1 candidate evaluations by verdict.",
        ("admitted",),
    )
    actions: _Tally = {}
    refused_at: Optional[float] = None
    verdicts = {True: 0, False: 0}
    opened = 0
    for node_id, sched in scheds:
        for decision in sched.decision_log:
            _tally(actions, decision.action, decision.time)
        if sched.refused_placements:
            refused_at = _latest(refused_at, sched.refused_placements[-1][0])
        for verdict, count in sched.distributor.verdicts.items():
            verdicts[verdict] += count
        opened += sched.distributor.batches
        for time, sessions in sched.cycles:
            obs.tracer.record(
                "cocg.control", time, stream=node_stream(node_id),
                sessions=sessions,
            )
    for action, (count, time) in actions.items():
        _count(decisions, count, time, action=action)
    # "degraded" is logged once per entry, "breaker-close" once per exit.
    for direction, action in (("enter", "degraded"), ("exit", "breaker-close")):
        _count(transitions, *actions.get(action, (0, None)),
               direction=direction)
    # Algorithm 1 runs in try_admit, which then logs an admit or a
    # reject or refuses the placement, all at that time; or in the
    # gateway's pre-screen, whose passes go on at once to the same
    # node's try_admit on the same snapshot and whose rejects the
    # batcher stamps.  A snapshot is opened by the verdict that first
    # reads it; the batches sample carries the latest verdict's time.
    admitted_at = _latest(actions.get("admit", (0, None))[1], refused_at)
    rejected_at = actions.get("reject", (0, None))[1]
    if cluster.gateway is not None:
        rejected_at = _latest(rejected_at, cluster.gateway.batcher.rejected_at)
    _count(batches, opened, _latest(admitted_at, rejected_at))
    _count(evaluations, verdicts[True], admitted_at, admitted="true")
    _count(evaluations, verdicts[False], rejected_at, admitted="false")


def _read_faults(obs: "Observer", injector) -> None:
    if not injector.fired:
        return
    injected = obs.registry.counter(
        FAULTS_INJECTED, "Faults fired into the run by kind.", ("kind",)
    )
    for time, kind, end in injector.fired:
        injected.labels(kind=kind).inc(time=time)
        obs.tracer.record(
            f"fault.{kind}", time,
            end if end is not None and math.isfinite(end) else None,
            stream=STREAM_FAULTS, kind=kind,
        )


def _read_provisioner(obs: "Observer", provisioner) -> List[_Window]:
    """Provisioner counters and latency histogram; returns the
    ``node.<id>.lifecycle`` windows its events opened."""
    events = obs.registry.counter(
        PROVISION_EVENTS, "Provisioner lifecycle events by kind.", ("event",)
    )
    latency = obs.registry.histogram(
        PROVISION_LATENCY,
        "Request-to-ready provisioning latency.",
        buckets=PROVISION_BUCKETS,
    )
    requested_at: Dict[str, float] = {}
    retries: Dict[str, int] = {}
    windows: List[_Window] = []

    def window(event, begin: float, end: float, state: str) -> None:
        windows.append((event.time, _RANK_LIFECYCLE, lifecycle_span(event.node),
                        begin, end, {"state": state}))

    for event in provisioner.events:
        counted = provisioner.COUNTED.get(event.state)
        if counted is not None:
            events.labels(event=counted).inc(time=event.time)
        node, now = event.node, event.time
        if event.state == "requested":
            requested_at[node] = now
            window(event, now, now + provisioner.latency(node, 0),
                   "provisioning")
        elif event.state == "stalled":
            window(event, now, now + provisioner.stall_at(now),
                   "provisioning")
        elif event.state == "retry":
            attempt = retries[node] = retries.get(node, 0) + 1
            begin = now + provisioner.retry_backoff(attempt)
            window(event, begin, begin + provisioner.latency(node, attempt),
                   "provisioning")
        elif event.state == "warming":
            window(event, now, now + provisioner.config.warming_seconds,
                   "warming")
        elif event.state == "warm" and node in requested_at:
            # A pre-booted standby was never requested: no latency.
            latency.observe(now - requested_at[node], time=now)
    return windows
