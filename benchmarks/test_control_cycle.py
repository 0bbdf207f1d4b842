"""Control-cycle benchmark: what one 5-second detection cycle costs.

Runs the seed-11 ``launch-day`` corpus scenario (three saturated nodes,
gateway on) with timing wrappers around the control cycle's units:

* a **visit** — one session's stage judgment and ceiling decision
  (``CoCGScheduler._control_session``);
* a **judgment** — one ``StagePredictor.judge`` call (a visit computes
  one only where its verdict reads it: every loading visit and every
  unpinned execution visit, but a pinned window only when its GPU
  usage has fallen far below the grant);
* a **grant** — one clamped cgroup retune of
  ``Allocator.retune_all_clamped`` (timed per call, divided by the
  grants in it).

``BENCH_control.json`` gets the counts, the median µs per visit and per
grant, and control's share of the run's wall time (medians over
``RUNS`` runs).  The counts are deterministic; the run's control tables
must equal the ``PINNED_LAUNCH_DAY`` guard.  No wall-time bound is
asserted: timings carry the wrappers' own overhead and the host's noise.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.core.predictor import StagePredictor
from repro.core.scheduler import CoCGScheduler
from repro.platform_.allocator import Allocator
from tests.test_control_guard import (
    PINNED_LAUNCH_DAY,
    experiment_tables,
    launch_day_experiment,
)

__all__ = ["test_control_cycle"]

RUNS = 3


def _timed_run(monkeypatch) -> Dict[str, object]:
    """One launch-day run under the timing wrappers."""
    visits: List[float] = []
    grants: List[float] = []
    counts = {"judgments": 0, "grants": 0}
    control_s = [0.0]
    control = CoCGScheduler.control
    visit = CoCGScheduler._control_session
    judge = StagePredictor.judge
    retune_all = Allocator.retune_all_clamped

    def timed_control(self, *args, **kwargs):
        t0 = time.perf_counter()
        control(self, *args, **kwargs)
        control_s[0] += time.perf_counter() - t0

    def timed_visit(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return visit(self, *args, **kwargs)
        finally:
            visits.append(time.perf_counter() - t0)

    def counted_judge(self, *args, **kwargs):
        counts["judgments"] += 1
        return judge(self, *args, **kwargs)

    def timed_retune_all(self, batch, **kwargs):
        batch = list(batch)
        t0 = time.perf_counter()
        retune_all(self, batch, **kwargs)
        if batch:
            grants.append((time.perf_counter() - t0) / len(batch))
            counts["grants"] += len(batch)

    experiment = launch_day_experiment()
    with monkeypatch.context() as patch:
        patch.setattr(CoCGScheduler, "control", timed_control)
        patch.setattr(CoCGScheduler, "_control_session", timed_visit)
        patch.setattr(StagePredictor, "judge", counted_judge)
        patch.setattr(Allocator, "retune_all_clamped", timed_retune_all)
        t0 = time.perf_counter()
        experiment.run()
        run_s = time.perf_counter() - t0
    nodes = experiment.cluster.nodes
    decisions = [d for n in nodes for d in n.strategy.scheduler.decision_log]
    return {
        "tables": experiment_tables(experiment),
        "counts": {
            "cycles": sum(len(n.strategy.scheduler.cycles) for n in nodes),
            "visits": len(visits),
            "probes": sum(d.action == "probe" for d in decisions),
            "judgments": counts["judgments"],
            "grants": counts["grants"],
        },
        "visit_us": statistics.median(visits) * 1e6,
        "grant_us": statistics.median(grants) * 1e6,
        "control_share": control_s[0] / run_s,
        "run_s": run_s,
    }


def test_control_cycle(monkeypatch):
    runs = [_timed_run(monkeypatch) for _ in range(RUNS)]
    for run in runs:
        assert run["tables"] == PINNED_LAUNCH_DAY
        assert run["counts"] == runs[0]["counts"]
    counts = runs[0]["counts"]
    # A visit judges at most once (a degraded one not at all).
    assert counts["judgments"] <= counts["visits"]
    stats = {
        "scenario": "launch-day",
        "seed": 11,
        "runs": RUNS,
        **counts,
        "median_us_per_visit": round(
            statistics.median(r["visit_us"] for r in runs), 2),
        "median_us_per_grant": round(
            statistics.median(r["grant_us"] for r in runs), 2),
        "control_share_of_run": round(
            statistics.median(r["control_share"] for r in runs), 4),
        "run_s": round(statistics.median(r["run_s"] for r in runs), 4),
    }
    Path("BENCH_control.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nvisits {counts['visits']:,}, probes {counts['probes']:,}, "
          f"judgments {counts['judgments']:,}, grants {counts['grants']:,}")
    print(f"median {stats['median_us_per_visit']:.2f} us/visit, "
          f"{stats['median_us_per_grant']:.2f} us/grant, "
          f"control {stats['control_share_of_run']:.1%} of the run")
