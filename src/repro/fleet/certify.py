"""Startup certification: the shard plan must match the runtime.

The analyzer (``cocg lint --shard-plan-out``) proves statically that
every admission entry point is ``shard_local`` — no cross-shard mutable
state — and writes ``shardplan.json`` as the certificate.  This module
is the runtime half: before ``cocg fleet`` / ``cocg serve`` start, the
certificate is loaded (the packaged copy by default) and checked
against the entry-point callables the deployment actually registers via
:func:`~repro.sim.engine.validate_shard_plan`.  A stale certificate —
an entry point added, renamed, or re-grouped since the last lint run —
fails fast with :class:`~repro.sim.engine.ShardPlanError` instead of
running a fleet the analysis no longer describes.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.sim.engine import validate_shard_plan

__all__ = ["runtime_entry_points", "load_certificate", "certify_runtime"]


def runtime_entry_points() -> Tuple[Callable, ...]:
    """Every entry point a fleet deployment registers.

    Imports are local so certification stays importable from the CLI
    without dragging the whole stack in at module-import time.
    """
    from repro.cluster.experiment import ColocationExperiment, FleetExperiment
    from repro.cluster.fleet import ClusterScheduler
    from repro.fleet.controller import FleetOfFleets, RegionShard
    from repro.serve.gateway import AdmissionGateway

    return (
        ColocationExperiment.run,
        FleetExperiment.run,
        ClusterScheduler.dispatch,
        ClusterScheduler.submit,
        ClusterScheduler.pump,
        AdmissionGateway.pump,
        FleetOfFleets.run,
        RegionShard.run,
    )


def load_certificate(path: Optional[Union[str, Path]] = None) -> Dict:
    """Load a shard-plan certificate (the packaged one by default).

    ``path`` overrides the packaged ``repro/shardplan.json`` — CI and
    tests point it at freshly exported or deliberately stale copies.
    Raises ``OSError`` if the file is missing and ``ValueError`` on
    malformed JSON.
    """
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = (
            resources.files("repro")
            .joinpath("shardplan.json")
            .read_text(encoding="utf-8")
        )
    plan = json.loads(text)
    if not isinstance(plan, dict):
        raise ValueError(
            f"shard-plan certificate must be a JSON object, "
            f"got {type(plan).__name__}"
        )
    return plan


def certify_runtime(path: Optional[Union[str, Path]] = None) -> Dict:
    """Prove certificate and runtime agree; returns the certificate.

    Raises :class:`~repro.sim.engine.ShardPlanError` when they do not —
    callers (the CLI) turn that into exit code 2.
    """
    plan = load_certificate(path)
    validate_shard_plan(plan, runtime_entry_points())
    return plan
