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
# The fork seam is bound eagerly from its stdlib-only module, so
# ``vars(repro.sim)`` holds it from the first import (a lookup of the
# module's namespace never reaches the lazy table) without loading numpy.
from repro.util.partition import ShardError, run_partitioned

__all__ = ["SimulationEngine", "Event", "ShardError", "ShardPlanError",
           "validate_shard_plan", "run_partitioned",
           "TelemetryRecorder"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Event": ".engine",
    "ShardPlanError": ".engine",
    "SimulationEngine": ".engine",
    "validate_shard_plan": ".engine",
    "TelemetryRecorder": ".telemetry",
})
