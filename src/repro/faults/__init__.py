"""Fault injection and graceful degradation (see ``docs/FAULTS.md``).

The package splits into leaves and heavy modules:

* :mod:`repro.faults.plan` is a leaf, and ``BreakerState`` /
  ``PredictorHealth`` are re-exported from :mod:`repro.core.health`
  (the scheduler owns the breaker; CG017 keeps the layering acyclic);
* :mod:`repro.faults.injector` / :mod:`repro.faults.chaos` import the
  cluster layer, which imports the scheduler — so they are exposed
  lazily here to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.core.health import BreakerState, PredictorHealth
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, validate_plan_payload

__all__ = [  # lint: disable=CG004
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

_LAZY = {
    "FAULT_PRIORITY": "repro.faults.injector",
    "FaultInjector": "repro.faults.injector",
    "ChaosReport": "repro.faults.chaos",
    "default_plan": "repro.faults.chaos",
    "reclaim_storm_plan": "repro.faults.chaos",
    "run_chaos": "repro.faults.chaos",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
