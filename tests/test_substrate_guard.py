"""Guard rail for the per-second substrate (session → telemetry → QoS).

A small fixed fleet is run once and every read-out of its measurement
plane is hashed: observed, true-demand, true-usage and allocation
series, the server-wide usage matrix, the FPS series, each session's
QoS report and the telemetry digest.  The pinned table is the output of
the code before the substrate stored its rows in flat columns; any
change to an RNG draw, a float operation order or a digest byte moves
at least one entry.

A telemetry dropout and a noise window are part of the plan so NaN rows
and the perturbation path are covered, and a small co-location run with
interference covers :class:`~repro.cluster.experiment.ColocationExperiment`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict

from repro.baselines import CoCGStrategy
from repro.faults.plan import FaultPlan
from repro.platform_.interference import InterferenceModel
from repro.trace.harness import RunConfig, build_experiment, build_profiles
from repro.cluster.experiment import ColocationExperiment

HORIZON = 240

CONFIG = RunConfig(
    games=("contra", "dota2"),
    nodes=2,
    horizon=HORIZON,
    rate_per_minute=6.0,
    players=2,
    sessions=2,
    gateway=False,
    seed=11,
)


def _series(series) -> bytes:
    return (
        series.values.tobytes()
        + repr((series.columns, series.period, series.start)).encode()
    )


def _table(telemetry, qos, horizon: int) -> Dict[str, str]:
    """sha256 (16 hex digits) of each read-out, over every session."""
    parts = {
        name: hashlib.sha256()
        for name in ("observed", "demand", "usage", "allocation",
                     "total_usage", "fps", "report", "digest")
    }
    for sid in telemetry.session_ids:
        parts["observed"].update(_series(telemetry.observed_series(sid)))
        parts["demand"].update(_series(telemetry.true_demand_series(sid)))
        parts["usage"].update(_series(telemetry.true_usage_series(sid)))
        parts["allocation"].update(_series(telemetry.allocation_series(sid)))
    for sid in qos.session_ids:
        parts["fps"].update(qos.fps_series(sid).tobytes())
        parts["report"].update(
            repr(dataclasses.astuple(qos.report(sid))).encode()
        )
    parts["total_usage"].update(telemetry.total_usage_matrix(horizon).tobytes())
    parts["digest"].update(telemetry.digest().encode())
    return {name: h.hexdigest()[:16] for name, h in parts.items()}


def fleet_tables() -> Dict[str, Dict[str, str]]:
    """The read-out table of every node of the fixed faulted fleet."""
    plan = (
        FaultPlan(seed=3)
        .telemetry_dropout(30.0, duration=60.0, rate=0.3)
        .telemetry_noise(100.0, duration=40.0, std=2.0, spike_prob=0.1)
    )
    experiment = build_experiment(CONFIG, build_profiles(CONFIG), plan=plan)
    experiment.run()
    return {
        node.node_id: _table(node.telemetry, node.qos, HORIZON)
        for node in experiment.cluster.nodes
    }


def colocation_table(profiles) -> Dict[str, str]:
    """The read-out table of a small co-location run with interference."""
    experiment = ColocationExperiment(
        profiles, CoCGStrategy(), horizon=HORIZON, seed=11,
        max_concurrent=2, interference=InterferenceModel(),
    )
    result = experiment.run()
    return _table(result.telemetry, result.qos, HORIZON)


PINNED_FLEET: Dict[str, Dict[str, str]] = {
    "node-0": {
        "observed": "f9b3cf2d4d3f5f4e",
        "demand": "7882417d5f10679a",
        "usage": "5d978c6557647b61",
        "allocation": "24855b52e57abc33",
        "total_usage": "e22e1150c1ac62df",
        "fps": "50b6a470b3c29387",
        "report": "9034691fcbcf7a91",
        "digest": "065cef18b05f27ea",
    },
    "node-1": {
        "observed": "969579fd43ace298",
        "demand": "e0d3722fd7a25cae",
        "usage": "25b6e96ea9fa021e",
        "allocation": "5c821985ae603561",
        "total_usage": "81bd02ad42abf982",
        "fps": "43852fbb295bc98f",
        "report": "2154ce7264d50cdf",
        "digest": "6d9dce6a7bf80fb4",
    },
}

PINNED_COLOCATION: Dict[str, str] = {
    "observed": "a2f96e66b6d6578a",
    "demand": "dc208f1a208bb820",
    "usage": "a3b3bca64c79de72",
    "allocation": "e08b94e3435047ce",
    "total_usage": "8d3a021828db6291",
    "fps": "eac695a24e2ae7c8",
    "report": "ac5b55b1bf924113",
    "digest": "2ac8b372282fc65f",
}


def test_fleet_substrate_read_outs_are_pinned():
    assert fleet_tables() == PINNED_FLEET


def test_colocation_substrate_read_outs_are_pinned(
    contra_profile, genshin_profile
):
    profiles = {"contra": contra_profile, "genshin": genshin_profile}
    assert colocation_table(profiles) == PINNED_COLOCATION
