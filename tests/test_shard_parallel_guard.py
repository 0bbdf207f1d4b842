"""Guard rail for shard execution: fleet-of-fleets results are pinned.

Every value here was recorded with shards run one after another in the
calling process.  However :func:`repro.sim.run_partitioned` schedules
the shards, a fleet-of-fleets run must reproduce these values byte for
byte: the merged digest, every region digest, the re-aggregated
completions and Eq-2 throughput, and the routed request counts, at
N in {1, 2, 4, 8} in both arrival modes and under a region outage.
Recorded sub-traces must come back with identical text, and the seam
must return exactly what direct calls of its thunks return.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fleet import FleetOfFleets, RegionSpec, region_outage_plan
from repro.sim import run_partitioned
from repro.trace.harness import RunConfig

BASE = RunConfig(
    games=("contra",),
    nodes=2,
    horizon=150,
    rate_per_minute=6.0,
    seed=7,
    players=2,
    sessions=2,
    gateway=False,
)

PINS = {
    ("routed", 1): {
        "merged": "aca149c1c6b2343556e8959bfdde2b33dce6715b4b05566ced9ec433cb7940bb",
        "regions": {
            "r0": "aca149c1c6b2343556e8959bfdde2b33dce6715b4b05566ced9ec433cb7940bb",
        },
        "completed": {"contra": 2},
        "throughput": 306.0,
        "routed": {"r0": 16},
    },
    ("routed", 2): {
        "merged": "ab188fdfb55b285a94e5e6e15f89b59d1f0cc54b054ecd57ecb5986b8637df92",
        "regions": {
            "r0": "de354bfdd057122c1b13e6b3fe861bb0e726fb42e0bd77c48e2e2d195c8903e3",
            "r1": "674f69f05441a0e24f0a1c40d62fe27508b59c5d034f46dcb13672ad5ac10e84",
        },
        "completed": {"contra": 2},
        "throughput": 306.0,
        "routed": {"r0": 6, "r1": 10},
    },
    ("routed", 4): {
        "merged": "9c70d8f2f40b77a5ab7576b23570091e891a142197353a7280a6c79371f732ae",
        "regions": {
            "r0": "3fbf4fb49d737223f19a58794b19cbbb8a48a216d1f71af64b3346e216c0a907",
            "r1": "671942f9e42fb6af1d677e4ae6af0ad09470c6eecc05f12f71ad0af95535d8c1",
            "r2": "ce0c7f3ddbc5f602ce562b1d103cb5922eae739f7c13057f455ad0c3e87dce75",
            "r3": "9d32d23d2fcd2ea6ecd48aa8b61289e4817f734e02a4d2a84e4ea4dc5846c8e4",
        },
        "completed": {"contra": 2},
        "throughput": 306.0,
        "routed": {"r0": 1, "r1": 6, "r2": 2, "r3": 7},
    },
    ("routed", 8): {
        "merged": "9f3cb15adbcbac6de729c171a3267239518f5d8e7186f1ec0283aec363f2c2a4",
        "regions": {
            "r0": "b220c4c63aacd43e3ae370aeb3ca2c6389d40e41e46c08517b8d11ee5f7aca38",
            "r1": "0b4555c140d25eb0d4b18c4e822323874cdb88d884776ad22f26b4df64f48da1",
            "r2": "35a24e6df8578f7bf7e55980faf6e9bbc4cd24ad4b4655ebf796a3485b67ff71",
            "r3": "e0d15b9216dad329f01601fa8cce89eebb2e2e61ccac976da1ac654a58631f0a",
            "r4": "cedae14ab2bb9526292c4e551ab73c46e372e3b36f54a793f7e4f981693713bd",
            "r5": "d1326b059a2ceaa3fab0909ed4335e951588fbee559fd8d977028b3843be508c",
            "r6": "8a416529536b6e457c7e07f1a965ff0663fe416536ab03ae3e8d6d11e5bf0e3b",
            "r7": "640d82d5562a84e08a349bc95bfb24b22019618ff5ad7c3f3f78a3ffe23c45e1",
        },
        "completed": {"contra": 2},
        "throughput": 306.0,
        "routed": {
            "r0": 0, "r1": 3, "r2": 1, "r3": 5,
            "r4": 2, "r5": 2, "r6": 2, "r7": 1,
        },
    },
    ("regional", 1): {
        "merged": "9b81b2d373584acb96e10ad1ea6270616a98ea20ab8a9bc4f84f21458941bcdb",
        "regions": {
            "r0": "9b81b2d373584acb96e10ad1ea6270616a98ea20ab8a9bc4f84f21458941bcdb",
        },
        "completed": {},
        "throughput": 0.0,
        "routed": {"r0": 14},
    },
    ("regional", 2): {
        "merged": "fc0eba90bfdec6f499c98c5e367d41015e9c2dc0a6198df276fd848a45d512e6",
        "regions": {
            "r0": "6485398d547221d6709fd1bfa8e84ab9d530d8fc01d993ba9dd01ce5e049c194",
            "r1": "75e4fe16cef2098dc8d17a55a0f003078e42b135c93dee313b473a5a6bd26356",
        },
        "completed": {"contra": 1},
        "throughput": 153.0,
        "routed": {"r0": 14, "r1": 22},
    },
    ("regional", 4): {
        "merged": "e0bb56be5ba89c7285e57a153ee8f3b1059b0ce6d2f83927bb9075fcf8895f22",
        "regions": {
            "r0": "6485398d547221d6709fd1bfa8e84ab9d530d8fc01d993ba9dd01ce5e049c194",
            "r1": "75e4fe16cef2098dc8d17a55a0f003078e42b135c93dee313b473a5a6bd26356",
            "r2": "d39ff28c0bab16844cb5354511511ed2909ed6bf4ac16f120f51789eb521c0d0",
            "r3": "ca0f66518533841d9a5a0c22919b6c7aaf2532531e92efcd0b24e2a5cef7646d",
        },
        "completed": {"contra": 3},
        "throughput": 459.0,
        "routed": {"r0": 14, "r1": 22, "r2": 17, "r3": 13},
    },
    ("regional", 8): {
        "merged": "521fd5d64fb63812425435df52da6fa8eb8ce44324480708d68ed45b2ef37929",
        "regions": {
            "r0": "6485398d547221d6709fd1bfa8e84ab9d530d8fc01d993ba9dd01ce5e049c194",
            "r1": "75e4fe16cef2098dc8d17a55a0f003078e42b135c93dee313b473a5a6bd26356",
            "r2": "d39ff28c0bab16844cb5354511511ed2909ed6bf4ac16f120f51789eb521c0d0",
            "r3": "ca0f66518533841d9a5a0c22919b6c7aaf2532531e92efcd0b24e2a5cef7646d",
            "r4": "bdfae928dcea0c45a08f393a81000a35d0e960942bda628a51538b1f09cf6796",
            "r5": "0f4f6bc11449a25f10bb1356dfa0d5d50fa7a786041a68887ab27d4fced4449b",
            "r6": "ed8af18e883bb52421493bb168439a03c8d511c6eb8a266de47ef5c12fe669f6",
            "r7": "4bbff9783c1e0d83786daf360a47875d867e0d5718d81172dd6a120444950096",
        },
        "completed": {"contra": 8},
        "throughput": 1224.0,
        "routed": {
            "r0": 14, "r1": 22, "r2": 17, "r3": 13,
            "r4": 13, "r5": 14, "r6": 23, "r7": 11,
        },
    },
    ("outage", 3): {
        "merged": "2aafad758fbf2e39f4b1071948cd58ea0d7ef7faaadeda98177e80601aa0c0f6",
        "regions": {
            "r0": "7b611da9350d8a02b0311fd7f96c10fcef1eb08472582a3e4fdfb1194cea72f5",
            "r1": "e76cb022f9f3e2e3617b06387ec4f55f1e93cea6e785e8a0d961d59ea52c0099",
            "r2": "d41215e42e7088c53d3c54e0aa210f289359342793cb140a9311f46e80792eb9",
        },
        "completed": {"contra": 1},
        "throughput": 153.0,
        "routed": {"r0": 3, "r1": 8, "r2": 5},
    },
}

#: sha256 of each region's recorded sub-trace text (2 regions, routed).
RECORDED = {
    "r0": "3ce1b37f6de526c7ac123ce766894c6e80f6b6aa253ff315b4e2d74ebd751dd8",
    "r1": "34bc4613643e140595edfe7669574ff15809e0f22b4030d25aeacc8ef52d2380",
}


def _regions(n):
    return [RegionSpec(f"r{i}") for i in range(n)]


def _summary(result):
    return {
        "merged": result.merged_digest,
        "regions": result.region_digests,
        "completed": result.completed_runs,
        "throughput": result.throughput,
        "routed": result.requests_routed,
    }


@pytest.mark.parametrize("mode", ["routed", "regional"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_fleet_results_pinned(mode, n):
    result = FleetOfFleets(BASE, _regions(n), arrival_mode=mode).run()
    assert _summary(result) == PINS[(mode, n)]


def test_region_outage_pinned():
    plan = region_outage_plan("r1", BASE.nodes, 30.0, recover_after=60.0)
    specs = [RegionSpec("r0"), RegionSpec("r1", fault_plan=plan), RegionSpec("r2")]
    result = FleetOfFleets(BASE, specs).run()
    assert _summary(result) == PINS[("outage", 3)]


def test_recorded_subtraces_pinned():
    result = FleetOfFleets(
        BASE, _regions(2), record=True, scenario="fleet-test"
    ).run()
    texts = {
        name: hashlib.sha256(
            outcome.recorder.document.dumps().encode()
        ).hexdigest()
        for name, outcome in sorted(result.regions.items())
    }
    assert texts == RECORDED


@pytest.mark.parametrize("n", [2, 4])
def test_seam_equals_direct_calls(n):
    """The seam returns what calling each thunk in sorted order returns."""
    fleet = FleetOfFleets(BASE, _regions(n), record=True)
    shards = fleet.build_shards()
    direct = {name: shards[name].run() for name in sorted(shards)}
    seam = run_partitioned({name: shards[name].run for name in shards})
    assert list(seam) == sorted(shards)
    for name in sorted(shards):
        assert seam[name].name == direct[name].name
        assert seam[name].digest == direct[name].digest
        assert seam[name].result.completed_runs == direct[name].result.completed_runs
        assert (
            seam[name].recorder.document.dumps()
            == direct[name].recorder.document.dumps()
        )
    assert fleet.merge(seam).merged_digest == fleet.merge(direct).merged_digest
