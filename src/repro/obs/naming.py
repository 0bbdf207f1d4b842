"""Canonical metric names and span streams (the observability taxonomy).

The post-run reader and the serve layer's own registry use the names
defined here instead of inventing strings inline, so the whole program
shares one namespace and ``docs/OBSERVABILITY.md`` can document it in
one table.  Conventions (enforced by :func:`check_metric_name`):

* ``snake_case``, prefixed by the owning subsystem (``serve_``,
  ``cluster_``, ``cocg_`` for the core scheduler, ``faults_``,
  ``qos_``);
* monotonic counters end in ``_total``; durations are ``_seconds``;
* label names are ``snake_case`` and low-cardinality (outcomes,
  actions, node ids — never session or request ids).

Span streams (the Perfetto "threads") follow the same ownership split:
one stream per subsystem, plus one ``node:<id>`` stream per fleet node
for its control loop.
"""

from __future__ import annotations

import re

__all__ = [
    "check_metric_name",
    "check_label_name",
    # serve
    "GATEWAY_OUTCOMES",
    "GATEWAY_RETRIES",
    "GATEWAY_DEFERRALS",
    "GATEWAY_THROTTLED_ROUNDS",
    "GATEWAY_QUEUE_DEPTH",
    "QUEUE_WAIT_SECONDS",
    "SLO_OUTCOMES",
    "BATCHER_EVENTS",
    # core
    "ALGO1_BATCHES",
    "ALGO1_EVALUATIONS",
    "SCHED_DECISIONS",
    "SCHED_DEGRADED_TRANSITIONS",
    "GATEWAY_BACKPRESSURE",
    # cluster
    "CLUSTER_DISPATCH",
    "CLUSTER_PUMP_ROUNDS",
    "CLUSTER_LIFECYCLE",
    "PROVISION_LATENCY",
    "PROVISION_EVENTS",
    # fleet
    "FLEET_ROUTED",
    "FLEET_COMPLETED",
    # faults
    "FAULTS_INJECTED",
    # qos
    "QOS_DEGRADED_SECONDS",
    # span streams
    "STREAM_SERVE",
    "STREAM_CLUSTER",
    "STREAM_FAULTS",
    "node_stream",
    "lifecycle_span",
    # histogram buckets
    "WAIT_BUCKETS",
    "PROVISION_BUCKETS",
]

_METRIC_NAME = re.compile(r"^[a-z][a-z0-9]*(_[a-z0-9]+)*$")
_LABEL_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def check_metric_name(name: str) -> str:
    """Validate a canonical metric name; returns it unchanged."""
    if not _METRIC_NAME.match(name):
        raise ValueError(
            f"metric name {name!r} is not snake_case "
            "(see docs/OBSERVABILITY.md#naming)"
        )
    return name


def check_label_name(name: str) -> str:
    """Validate one label name; returns it unchanged."""
    if not _LABEL_NAME.match(name):
        raise ValueError(f"label name {name!r} is not snake_case")
    return name


# ----------------------------------------------------------------------
# serve/ — the admission gateway and micro-batcher
# ----------------------------------------------------------------------

#: Gateway verdicts; label ``outcome`` ∈ queued/admitted/shed/dead_lettered.
GATEWAY_OUTCOMES = "serve_gateway_outcomes_total"
#: Dispatch attempts beaten back for retry (request stays queued).
GATEWAY_RETRIES = "serve_gateway_retries_total"
#: Dispatch attempts that found no willing node this round.
GATEWAY_DEFERRALS = "serve_gateway_deferrals_total"
#: Pump rounds that ran out of tokens with work still queued.
GATEWAY_THROTTLED_ROUNDS = "serve_gateway_throttled_rounds_total"
#: Requests currently queued, per game category (gauge).
GATEWAY_QUEUE_DEPTH = "serve_gateway_queue_depth"
#: Time-in-queue histogram, per game category.
QUEUE_WAIT_SECONDS = "serve_queue_wait_seconds"
#: Per-category SLO outcome counts; labels ``category``, ``outcome``.
SLO_OUTCOMES = "serve_slo_outcomes_total"
#: Micro-batcher events; label ``event`` ∈ rounds/evaluations/
#: prescreen_rejects/admissions/fallback_probes.
BATCHER_EVENTS = "serve_batcher_events_total"
#: Requests shed early because usable fleet capacity sat below the
#: configured floor (the capacity-coupled backpressure path).
GATEWAY_BACKPRESSURE = "serve_gateway_backpressure_sheds_total"

#: Fixed time-in-queue buckets (seconds).  Fixed — never derived from
#: observed data — so two runs bucket identically by construction.
WAIT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

# ----------------------------------------------------------------------
# core/ — Algorithm 1 and the CoCG control loop
# ----------------------------------------------------------------------

#: Shared Algorithm-1 snapshots opened (``Distributor.begin_batch``).
ALGO1_BATCHES = "cocg_algo1_batches_total"
#: Algorithm-1 candidate evaluations; label ``admitted`` ∈ true/false.
ALGO1_EVALUATIONS = "cocg_algo1_evaluations_total"
#: Scheduler decision-log entries; label ``action`` (admit/reject/
#: stage-end/stage-start/callback/hold/probe/degraded/…).
SCHED_DECISIONS = "cocg_decisions_total"
#: Degraded-mode boundary crossings; label ``direction`` ∈ enter/exit.
SCHED_DEGRADED_TRANSITIONS = "cocg_degraded_transitions_total"

# ----------------------------------------------------------------------
# cluster/ — fleet dispatch
# ----------------------------------------------------------------------

#: Fleet dispatch attempts; label ``outcome`` ∈ dispatched/deferred.
CLUSTER_DISPATCH = "cluster_dispatch_total"
#: Retry-queue pump rounds (the non-gateway path).
CLUSTER_PUMP_ROUNDS = "cluster_pump_rounds_total"
#: Node lifecycle transitions; label ``state`` ∈ warming/up/draining/
#: reclaim-notice → ``reclaim_notice``/down (the resulting state).
CLUSTER_LIFECYCLE = "cluster_lifecycle_transitions_total"
#: Request-to-UP provisioning latency histogram (seconds).
PROVISION_LATENCY = "cluster_provision_latency_seconds"
#: Provisioner events; label ``event`` ∈ requested/provisioned/retried/
#: failed/timed_out/warm_promoted/warm_refill/exhausted.
PROVISION_EVENTS = "cluster_provision_events_total"

#: Fixed provision-latency buckets (seconds).  Fixed — never derived
#: from observed data — so two runs bucket identically by construction.
PROVISION_BUCKETS = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0, 300.0)

# ----------------------------------------------------------------------
# fleet/ — the fleet-of-fleets controller
# ----------------------------------------------------------------------

#: Requests the session router assigned to each shard; label ``region``.
FLEET_ROUTED = "fleet_requests_routed_total"
#: Sessions completed per regional shard; label ``region``.
FLEET_COMPLETED = "fleet_sessions_completed_total"

# ----------------------------------------------------------------------
# faults/ — the injector
# ----------------------------------------------------------------------

#: Faults fired into the run; label ``kind`` (node_crash/…).
FAULTS_INJECTED = "faults_injected_total"

# ----------------------------------------------------------------------
# platform_/ — QoS accounting
# ----------------------------------------------------------------------

#: Session-seconds under degraded (open-breaker) control; label ``node``.
QOS_DEGRADED_SECONDS = "qos_degraded_seconds_total"

# ----------------------------------------------------------------------
# Span streams
# ----------------------------------------------------------------------

STREAM_SERVE = "serve"
STREAM_CLUSTER = "cluster"
STREAM_FAULTS = "faults"


def node_stream(node_id: str) -> str:
    """The span stream of one fleet node's control loop."""
    return f"node:{node_id}"


def lifecycle_span(node_id: str) -> str:
    """The span name of one node's lifecycle phases.

    Each phase (``provisioning``, ``warming``, ``reclaim-notice``) is
    recorded as a ``node.<id>.lifecycle`` span on the ``cluster`` stream
    with a ``state`` argument, so Perfetto shows a node's life as
    adjacent windows.
    """
    return f"node.{node_id}.lifecycle"
