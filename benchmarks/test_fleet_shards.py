"""Fleet-of-fleets scaling bench: shard throughput and merge overhead.

Runs the same base configuration as a fleet of N ∈ {1, 2, 4, 8}
regional shards, timing the partitioned regional execution separately
from the cross-shard merge.  Each N runs twice: through the
``run_partitioned`` seam (forked workers, one per usable CPU) and as
the sequential reference, direct calls of every shard thunk in sorted
order.  Claims checked:

* the ``@shard_merge_point`` aggregation is cheap: merge wall time is
  **< 10 %** of the total at every N;
* the seam and the sequential reference give the same merged digest at
  every N;
* every N produces a non-empty merged digest, and the per-N digests
  are mutually distinct (regions really change the partition);
* sessions complete at every N (the shards do real scheduling work).

Timings land in ``BENCH_fleet.json`` (the CI ``fleet-smoke`` artifact):
simulated node-seconds per wall second for the seam and for the
sequential reference, the seam's IPC seconds, sessions/sec and
requests/sec per N, plus the merge fraction.  IPC seconds time the seam
over thunks that only return the already-computed outcomes: fork,
pickle, pipe read, unpickle and reap, with no simulation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.fleet import FleetOfFleets, RegionSpec
from repro.sim import run_partitioned
from repro.trace.harness import RunConfig

SEED = 11
SHARD_COUNTS = (1, 2, 4, 8)
MAX_MERGE_FRACTION = 0.10
REPEATS = 3

CONFIG = RunConfig(
    games=("contra", "dota2"),
    nodes=2,
    horizon=900,
    rate_per_minute=6.0,
    seed=SEED,
    players=2,
    sessions=2,
    gateway=False,
)


def _fastest(thunk):
    """``(fastest wall seconds of REPEATS calls, the last result)``.

    On a shared host one slow repeat says more about the neighbours
    than about the seam.
    """
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = thunk()
        best = min(best, time.perf_counter() - t0)
    return best, out


def measure(n: int) -> dict:
    """One fleet-of-fleets run at N shards, run and merge timed apart."""
    fleet = FleetOfFleets(
        CONFIG, [RegionSpec(f"r{i}") for i in range(n)]
    )
    shards = fleet.build_shards()  # profile training kept out of timings
    names = sorted(shards)
    # One untimed pass fills the shared profiles' predictor memo, so the
    # seam and the sequential reference below start equally warm.
    for name in names:
        shards[name].run()
    node_seconds = sum(
        shards[name].config.nodes * shards[name].config.horizon
        for name in names
    )
    run_seconds, outcomes = _fastest(
        lambda: run_partitioned({name: shards[name].run for name in names})
    )
    t1 = time.perf_counter()
    result = fleet.merge(outcomes)
    merge_seconds = time.perf_counter() - t1
    sequential_seconds, sequential = _fastest(
        lambda: {name: shards[name].run() for name in names}
    )
    ipc_seconds, _ = _fastest(lambda: run_partitioned(
        {name: (lambda out=outcomes[name]: out) for name in names}
    ))
    total = run_seconds + merge_seconds
    sessions = sum(result.completed_runs.values())
    requests = sum(result.requests_routed.values())
    return {
        "regions": n,
        "sessions": sessions,
        "requests": requests,
        "node_seconds": node_seconds,
        "run_seconds": round(run_seconds, 4),
        "sequential_seconds": round(sequential_seconds, 4),
        "ipc_seconds": round(ipc_seconds, 4),
        "node_s_per_s": round(node_seconds / run_seconds, 1),
        "sequential_node_s_per_s": round(
            node_seconds / sequential_seconds, 1
        ),
        "merge_seconds": round(merge_seconds, 4),
        "merge_fraction": round(merge_seconds / total, 4),
        "sessions_per_second": round(sessions / total, 2),
        "requests_per_second": round(requests / total, 2),
        "merged_digest": result.merged_digest,
        "sequential_merged_digest": fleet.merge(sequential).merged_digest,
    }


def test_fleet_shard_scaling():
    rows = [measure(n) for n in SHARD_COUNTS]

    stats = {
        "config": CONFIG.to_dict(),
        "shards": rows,
    }
    Path("BENCH_fleet.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    header = (f"{'N':>2} {'requests':>8} {'sessions':>8} "
              f"{'run s':>7} {'seq s':>7} {'ipc s':>7} "
              f"{'node-s/s':>9} {'seq node-s/s':>12} "
              f"{'merge s':>8} {'merge %':>8} {'sess/s':>7}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['regions']:>2} {row['requests']:>8} "
              f"{row['sessions']:>8} {row['run_seconds']:>7.2f} "
              f"{row['sequential_seconds']:>7.2f} "
              f"{row['ipc_seconds']:>7.4f} "
              f"{row['node_s_per_s']:>9.0f} "
              f"{row['sequential_node_s_per_s']:>12.0f} "
              f"{row['merge_seconds']:>8.4f} "
              f"{row['merge_fraction']:>7.1%} "
              f"{row['sessions_per_second']:>7.1f}")

    for row in rows:
        assert row["merge_fraction"] < MAX_MERGE_FRACTION, (
            f"N={row['regions']}: merge took {row['merge_fraction']:.1%} "
            f"of the run (bar: {MAX_MERGE_FRACTION:.0%})"
        )
        assert row["merged_digest"]
        assert row["merged_digest"] == row["sequential_merged_digest"], (
            f"N={row['regions']}: the seam and the sequential reference "
            f"disagree"
        )
        assert row["sessions"] > 0, f"N={row['regions']}: nothing completed"
    digests = [row["merged_digest"] for row in rows]
    assert len(set(digests)) == len(digests), (
        "different shard counts must partition the fleet differently"
    )
