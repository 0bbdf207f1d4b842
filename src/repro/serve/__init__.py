"""The serving subsystem: the front door between players and the fleet.

``repro.serve`` models what the paper leaves implicit — how "heavy
traffic from millions of users" reaches the distributor at all:

* :mod:`~repro.serve.gateway` — bounded per-category queues, token-bucket
  rate limiting, explicit shed/dead-letter outcomes in the telemetry
  digest;
* :mod:`~repro.serve.batching` — an Algorithm-1 pre-screen on each
  node's shared snapshot (one per node state, not per request×node);
* :mod:`~repro.serve.slo` — per-category time-in-queue percentiles;
* :mod:`~repro.serve.loadgen` — deterministic open/closed-loop request
  generation at ≥100k-request scale.

Everything runs on simulation time and seeded randomness: same seed ⇒
same queue contents, same shed set, same digest.  See ``docs/SERVE.md``.
"""

from repro import _lazy_exports

__all__ = [
    "AdmissionGateway",
    "AdmissionOutcome",
    "GatewayConfig",
    "QueuedRequest",
    "TokenBucket",
    "MicroBatcher",
    "SloTracker",
    "CategorySlo",
    "percentile_nearest_rank",
    "OpenLoopLoadGen",
    "ClosedLoopLoadGen",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "MicroBatcher": ".batching",
    "AdmissionGateway": ".gateway",
    "AdmissionOutcome": ".gateway",
    "GatewayConfig": ".gateway",
    "QueuedRequest": ".gateway",
    "TokenBucket": ".gateway",
    "ClosedLoopLoadGen": ".loadgen",
    "OpenLoopLoadGen": ".loadgen",
    "CategorySlo": ".slo",
    "SloTracker": ".slo",
    "percentile_nearest_rank": ".slo",
})
