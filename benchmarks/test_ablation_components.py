"""Component ablations — what each CoCG design choice buys.

DESIGN.md §5 calls out the choices worth ablating; this bench runs the
Fig-9 pair (Genshin + DOTA2, where loading-time stealing is active)
with individual components disabled:

* **full** — the complete system;
* **no-regulator** — loading-time stealing and length-aware request
  picking off (§IV-C2);
* **no-redundancy** — the Eq-1 callback margin off (§IV-B2);
* **slow-detector** — 10 s detection interval instead of 5 s;
* **reactive** — no prediction at all (the paper's "improved version",
  included as the floor).
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis.report import format_table
from repro.baselines import CoCGStrategy, ReactiveStrategy
from repro.core.regulator import RegulatorConfig
from repro.core.scheduler import CoCGConfig
from repro.cluster.experiment import ColocationExperiment

HORIZON = 5400
PAIR = ("genshin", "dota2")  # the Fig-9 pair, where time stealing is active


def _variants():
    return [
        ("full", CoCGStrategy()),
        (
            "no-regulator",
            CoCGStrategy(config=CoCGConfig(regulator=RegulatorConfig(enabled=False))),
        ),
        ("no-redundancy", CoCGStrategy(config=CoCGConfig(use_redundancy=False))),
        ("slow-detector", CoCGStrategy(config=CoCGConfig(detect_interval=10))),
        ("reactive", ReactiveStrategy()),
    ]


def test_component_ablations(profiles, benchmark):
    pair = {g: profiles[g] for g in PAIR}
    results = {}
    holds = {}
    for label, strat in _variants():
        results[label] = ColocationExperiment(
            pair, strat, horizon=HORIZON, seed=42
        ).run()
        if hasattr(strat, "scheduler") and strat.scheduler is not None:
            holds[label] = strat.scheduler.regulator.holds_started
    # Shared-resource interference substrate (GAugur/Bubble-Up style):
    # same system, contentious hardware.
    from repro.platform_.interference import InterferenceModel

    interfered = CoCGStrategy()
    results["full+interference"] = ColocationExperiment(
        pair, interfered, horizon=HORIZON, seed=42,
        interference=InterferenceModel(intensity=0.08),
    ).run()
    holds["full+interference"] = interfered.scheduler.regulator.holds_started

    rows = []
    for label, r in results.items():
        fob = np.nanmean(list(r.fraction_of_best.values()))
        rows.append([
            label,
            r.throughput,
            r.completed_runs[PAIR[0]],
            r.completed_runs[PAIR[1]],
            fob * 100,
            r.colocated_seconds,
            holds.get(label, "-"),
        ])
    print_block(
        format_table(
            ["variant", "T (Eq 2)", f"runs {PAIR[0]}", f"runs {PAIR[1]}",
             "% of best FPS", "coloc s", "holds"],
            rows,
            title="Ablations on Genshin + DOTA2 (the Fig-9 pair)",
        )
    )

    full = results["full"]
    # The full system beats the prediction-free floor clearly.
    assert full.throughput > 1.2 * results["reactive"].throughput

    # Every CoCG variant still co-locates (prediction is the key enabler;
    # the other components refine QoS/efficiency).
    for label in ("full", "no-regulator", "no-redundancy", "slow-detector"):
        assert results[label].colocated_seconds > 1000, label

    # The full system's QoS is at least as good as the slow detector's
    # (a 10 s interval doubles every transition's starvation window).
    fob_full = np.nanmean(list(full.fraction_of_best.values()))
    fob_slow = np.nanmean(list(results["slow-detector"].fraction_of_best.values()))
    assert fob_full >= fob_slow - 0.03

    # Interference costs some QoS but the system keeps working.
    fob_interf = np.nanmean(
        list(results["full+interference"].fraction_of_best.values())
    )
    assert fob_interf <= fob_full + 0.01
    assert results["full+interference"].throughput > 0.8 * full.throughput

    # Cap discipline holds in every variant.
    for label, r in results.items():
        assert r.over_cap_seconds == 0, label

    def short_ablation():
        return ColocationExperiment(
            pair,
            CoCGStrategy(config=CoCGConfig(use_redundancy=False)),
            horizon=300,
            seed=2,
        ).run()

    benchmark.pedantic(short_ablation, rounds=3, iterations=1)
