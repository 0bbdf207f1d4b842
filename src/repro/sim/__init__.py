"""Discrete-time simulation core.

* :mod:`~repro.sim.engine` — a small discrete-event scheduler (integer
  second resolution) used by the co-location experiment driver for
  arrivals, control ticks, and timers.
* :mod:`~repro.sim.telemetry` — the measurement plane: per-session
  demand/usage/allocation recording with optional sensor noise, frame
  aggregation, and utilisation totals (what GPU-Z + cgroups gave the
  paper's authors).
"""

from repro import _lazy_exports

__all__ = ["SimulationEngine", "Event", "ShardError", "ShardPlanError",
           "validate_shard_plan", "run_partitioned",
           "TelemetryRecorder"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Event": ".engine",
    "ShardError": ".engine",
    "ShardPlanError": ".engine",
    "SimulationEngine": ".engine",
    "run_partitioned": ".engine",
    "validate_shard_plan": ".engine",
    "TelemetryRecorder": ".telemetry",
})
