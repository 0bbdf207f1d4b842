"""The cluster scheduler: one dispatcher, many backend servers.

The paper's Fig-1 platform is "one cloud game scheduler and multiple
cloud game backend servers"; §IV-D argues CoCG scales to such fleets
because a game's stage structure is platform-invariant — one profiling
pass serves every (heterogeneous) server after a per-platform demand
rescale.

* :class:`~repro.cluster.fleet.FleetNode` — one backend server with its
  own scheduler, telemetry and QoS tracking, optionally on a non-
  reference platform (profiles are rescaled via §IV-D).
* :class:`~repro.cluster.fleet.ClusterScheduler` — the dispatcher:
  routes each request to a node by policy (first-fit / best-fit /
  round-robin); once placed, a game never migrates (cloud games cannot
  be migrated or stopped, §I).
* :class:`~repro.cluster.provisioner.Provisioner` — the capacity plane:
  owns the node lifecycle (``REQUESTED → PROVISIONING → WARMING → UP →
  DRAINING/RECLAIM_NOTICE → DOWN``) as deterministic engine events —
  seeded provision latency, warm pools, retry/timeout on failures, and
  spot reclamation with graceful session drain.
* :class:`~repro.cluster.experiment.ColocationExperiment` — the paper's
  §V-B driver (Figs 9–13): one strategy on one node, continuous backlog.
* :class:`~repro.cluster.experiment.FleetExperiment` — the fleet-scale
  driver over Poisson arrivals, optionally replaying a
  :class:`~repro.faults.plan.FaultPlan` and running a provisioner.
  Both drivers advance sessions only through ``FleetNode.tick``.

Resilience surface: nodes carry a :class:`~repro.cluster.fleet.NodeHealth`
state consulted by every dispatch policy, rejected requests retry with
exponential backoff in a bounded queue, exhausted retries land in
:class:`~repro.cluster.fleet.DeadLetter` records, and the scheduler's
session-accountability ledger
(:meth:`~repro.cluster.fleet.ClusterScheduler.session_accounting`)
balances to zero under any fault plan.
"""

from repro import _lazy_exports

__all__ = [
    "FleetNode",
    "ClusterScheduler",
    "NodeHealth",
    "DeadLetter",
    "PendingRequest",
    "Provisioner",
    "ProvisionerConfig",
    "LifecycleEvent",
    "ColocationExperiment",
    "ExperimentResult",
    "FleetExperiment",
    "FleetResult",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ClusterScheduler": ".fleet",
    "DeadLetter": ".fleet",
    "FleetNode": ".fleet",
    "NodeHealth": ".fleet",
    "PendingRequest": ".fleet",
    "LifecycleEvent": ".provisioner",
    "Provisioner": ".provisioner",
    "ProvisionerConfig": ".provisioner",
    "ColocationExperiment": ".experiment",
    "ExperimentResult": ".experiment",
    "FleetExperiment": ".experiment",
    "FleetResult": ".experiment",
})
