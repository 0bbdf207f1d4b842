"""Fault injection and graceful degradation (see ``docs/FAULTS.md``).

:mod:`repro.faults.plan` is a leaf, and ``BreakerState`` /
``PredictorHealth`` are re-exported from :mod:`repro.core.health` (the
scheduler owns the breaker; CG017 keeps the layering acyclic).
:mod:`repro.faults.injector` / :mod:`repro.faults.chaos` import the
cluster layer, which imports the scheduler; like every public name here
they load only on first access, so reading a fault plan never imports
the cluster layer.
"""

from repro import _lazy_exports

__all__ = [
    "BreakerState",
    "PredictorHealth",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "validate_plan_payload",
    "FAULT_PRIORITY",
    "FaultInjector",
    "ChaosReport",
    "default_plan",
    "reclaim_storm_plan",
    "run_chaos",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "BreakerState": "repro.core.health",
    "PredictorHealth": "repro.core.health",
    "FaultKind": ".plan",
    "FaultPlan": ".plan",
    "FaultSpec": ".plan",
    "validate_plan_payload": ".plan",
    "FAULT_PRIORITY": ".injector",
    "FaultInjector": ".injector",
    "ChaosReport": ".chaos",
    "default_plan": ".chaos",
    "reclaim_storm_plan": ".chaos",
    "run_chaos": ".chaos",
})
