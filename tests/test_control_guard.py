"""Guard rail for the control plane (admission, control cycle, grants).

The telemetry digest covers what sessions used, not what the scheduler
decided.  This guard hashes the scheduler's own record of every node of
a small fleet: each decision-log entry ``(time, session_id, action,
detail)``, each :class:`~repro.platform_.allocator.Allocator` audit
entry and the admission/rejection counters.  The pinned table is the
output of the code before the planner, predictor and budget arithmetic
were memoized and moved to plain floats; a changed ``detail`` string, a
reordered retune or a grant that differs in its last bit moves an entry.

Three runs are covered: the faulted, gateway-off fleet of
``test_substrate_guard``, the same fleet with the gateway on, and the
seed-11 ``launch-day`` corpus scenario (three saturated nodes, gateway
on), whose flash crowd keeps most control visits on the probe path.

Two runs also pin how many Algorithm-1 decisions they make
(``BatchEvaluation._decide`` calls): ``launch-day`` and the benchmark's
``fleet-n4`` (four regions of the substrate fleet, 900 s, retry-queue
dispatch).  Each node shares one snapshot per running set between the
gateway pre-screen and ``try_admit``, so a return to a snapshot per
question fails here by count.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict

import pytest

from repro.core.distributor import BatchEvaluation
from repro.faults.plan import FaultPlan
from repro.fleet import FleetOfFleets, RegionSpec
from repro.games.catalog import build_catalog
from repro.trace.corpus import ScenarioArrivals, get_scenario
from repro.trace.harness import build_experiment, build_profiles

from tests.test_substrate_guard import CONFIG


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _node_table(node) -> Dict[str, object]:
    scheduler = node.strategy.scheduler
    events = node.allocator.events
    return {
        "decisions": _digest(
            (d.time, d.session_id, d.action, d.detail)
            for d in scheduler.decision_log
        ),
        "allocator": _digest(
            (e.time, e.action, e.session_id, e.gpu_index, e.allocation.values)
            for e in events
        ),
        "admissions": scheduler.admissions,
        "rejections": scheduler.rejections,
    }


def control_experiment(*, gateway: bool):
    """The fixed fleet, built and not yet run."""
    config = dataclasses.replace(CONFIG, gateway=gateway)
    plan = None
    if not gateway:
        plan = (
            FaultPlan(seed=3)
            .telemetry_dropout(30.0, duration=60.0, rate=0.3)
            .telemetry_noise(100.0, duration=40.0, std=2.0, spike_prob=0.1)
        )
    return build_experiment(config, build_profiles(config), plan=plan)


def launch_day_experiment():
    """The fault-free ``launch-day`` corpus scenario as ``cocg corpus
    generate`` builds it, not yet run."""
    scenario = get_scenario("launch-day")
    config = scenario.config
    catalog = build_catalog()
    arrivals = ScenarioArrivals(scenario, [catalog[g] for g in config.games])
    return build_experiment(
        config, build_profiles(config, catalog), arrivals=arrivals
    )


def experiment_tables(experiment) -> Dict[str, Dict[str, object]]:
    """The control-plane table of every node of a finished run."""
    return {
        node.node_id: _node_table(node) for node in experiment.cluster.nodes
    }


def control_tables(*, gateway: bool) -> Dict[str, Dict[str, object]]:
    """The control-plane table of every node of the fixed fleet."""
    experiment = control_experiment(gateway=gateway)
    experiment.run()
    return experiment_tables(experiment)


PINNED_FAULTED: Dict[str, Dict[str, object]] = {
    "node-0": {
        "decisions": "84e9b25f6dad57b0",
        "allocator": "23a14be78f20f4dc",
        "admissions": 9,
        "rejections": 34,
    },
    "node-1": {
        "decisions": "b074491664fa1578",
        "allocator": "1fcbd5560c677548",
        "admissions": 5,
        "rejections": 35,
    },
}

PINNED_GATEWAY: Dict[str, Dict[str, object]] = {
    "node-0": {
        "decisions": "cce14926d3d9abdc",
        "allocator": "d17873b80f9aab29",
        "admissions": 9,
        "rejections": 1,
    },
    "node-1": {
        "decisions": "e0901817b9bc8f9d",
        "allocator": "f191ed3e3e5dc20d",
        "admissions": 5,
        "rejections": 0,
    },
}

PINNED_LAUNCH_DAY: Dict[str, Dict[str, object]] = {
    "node-0": {
        "decisions": "4b5dae7046ab9ec0",
        "allocator": "fe26121ffffb04b6",
        "admissions": 18,
        "rejections": 35,
    },
    "node-1": {
        "decisions": "11647e4e427595bb",
        "allocator": "8eaedc0bb8842da7",
        "admissions": 16,
        "rejections": 54,
    },
    "node-2": {
        "decisions": "f64267cc08589a80",
        "allocator": "22a8762bf5687826",
        "admissions": 18,
        "rejections": 77,
    },
}


def test_faulted_fleet_control_plane_is_pinned():
    assert control_tables(gateway=False) == PINNED_FAULTED


def test_gateway_fleet_control_plane_is_pinned():
    assert control_tables(gateway=True) == PINNED_GATEWAY


@pytest.fixture
def decisions(monkeypatch):
    """Counts ``BatchEvaluation._decide`` calls made in this process."""
    made = []
    decide = BatchEvaluation._decide

    def counted(self, *args):
        made.append(None)
        return decide(self, *args)

    monkeypatch.setattr(BatchEvaluation, "_decide", counted)
    return made


def test_launch_day_control_plane_is_pinned(decisions):
    experiment = launch_day_experiment()
    experiment.run()
    assert experiment_tables(experiment) == PINNED_LAUNCH_DAY
    assert len(decisions) == 325


def test_fleet_n4_algorithm1_decisions_are_pinned(decisions):
    fleet = FleetOfFleets(
        dataclasses.replace(CONFIG, horizon=900),
        [RegionSpec(f"r{i}") for i in range(4)],
    )
    shards = fleet.build_shards()
    # Every shard in this process, so every decision is counted.
    merged = fleet.merge({name: shards[name].run() for name in sorted(shards)})
    assert merged.merged_digest == (
        "05120f3702af7a011488b5698466d444d134db299bf97a2af383679075749f15"
    )
    assert len(decisions) == 602
