"""Fig 11 — two-hour co-location throughput across strategies.

The paper runs three game pairs for two hours each under VBP, GAugur and
CoCG, counting completed runs and computing the Eq-2 throughput
``T = Σ N_i · S_i``.  The published regimes:

* **DOTA2 + Devil May Cry** — peak sums far exceed the budget: only CoCG
  co-locates them, "other solutions can only be executed individually";
* **CSGO + Genshin** — long game + short game: CoCG inserts Genshin runs
  between CSGO's peaks, "a significant increase in the number of runs of
  Genshin Impact";
* **Genshin + Contra** — light pair: "all three schemes have good
  performance";
* overall, CoCG's throughput is 23.7 % above the others.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_block
from repro.analysis.report import format_table
from repro.baselines import CoCGStrategy, GAugurStrategy, ReactiveStrategy, VBPStrategy
from repro.cluster.experiment import ColocationExperiment

HORIZON = 7200  # the paper's two hours
PAIRS = [
    ("dota2", "devil_may_cry"),
    ("csgo", "genshin"),
    ("genshin", "contra"),
]


def _strategies():
    return [CoCGStrategy(), ReactiveStrategy(), GAugurStrategy(), VBPStrategy()]


@pytest.fixture(scope="module")
def fig11_results(profiles):
    results = {}
    for a, b in PAIRS:
        pair_profiles = {a: profiles[a], b: profiles[b]}
        for strat in _strategies():
            r = ColocationExperiment(
                pair_profiles, strat, horizon=HORIZON, seed=42
            ).run()
            results[(a, b, r.strategy)] = r
    return results


def test_fig11_throughput_table(fig11_results, profiles, benchmark):
    rows = []
    totals = {}
    for a, b in PAIRS:
        for strat in ("cocg", "reactive", "gaugur", "vbp"):
            r = fig11_results[(a, b, strat)]
            rows.append([
                f"{a}+{b}", strat, r.completed_runs[a], r.completed_runs[b],
                r.throughput, r.colocated_seconds,
            ])
            totals[strat] = totals.get(strat, 0.0) + r.throughput
    improvement_static = totals["cocg"] / max(totals["gaugur"], totals["vbp"]) - 1
    improvement_reactive = totals["cocg"] / totals["reactive"] - 1
    summary = format_table(
        ["strategy", "total T (game-s)"],
        [[k, v] for k, v in sorted(totals.items(), key=lambda x: -x[1])],
        title="Eq-2 throughput totals over the three pairs",
    )
    print_block(
        format_table(
            ["pair", "strategy", "runs A", "runs B", "T (Eq 2)", "coloc s"],
            rows,
            title="Fig 11: 2-hour co-location throughput",
        )
        + "\n\n"
        + summary
        + f"\n\nCoCG vs best static baseline: {improvement_static:+.1%}"
        + f"\nCoCG vs reactive (improved):  {improvement_reactive:+.1%}"
        + "\n(paper: +23.7 % overall)"
    )

    # Regime 1: only CoCG co-locates DOTA2 + DMC; the static baselines
    # "can only be executed individually" — they alternate the two games
    # with zero co-located time.
    hard = [(s, fig11_results[("dota2", "devil_may_cry", s)]) for s in
            ("gaugur", "vbp")]
    for s, r in hard:
        assert r.colocated_seconds == 0, s
    cocg_hard = fig11_results[("dota2", "devil_may_cry", "cocg")]
    assert cocg_hard.colocated_seconds > 3600
    assert cocg_hard.completed_runs["devil_may_cry"] >= 10
    assert cocg_hard.throughput > 1.4 * max(
        fig11_results[("dota2", "devil_may_cry", s)].throughput
        for s in ("gaugur", "vbp")
    )

    # Regime 2: CoCG inserts many Genshin runs next to CSGO ("a
    # significant increase in the number of runs of Genshin Impact").
    cocg_ins = fig11_results[("csgo", "genshin", "cocg")]
    static_ins = max(
        fig11_results[("csgo", "genshin", s)].completed_runs["genshin"]
        for s in ("gaugur", "vbp")
    )
    assert cocg_ins.completed_runs["genshin"] >= static_ins + 8
    for s in ("gaugur", "vbp"):
        assert fig11_results[("csgo", "genshin", s)].colocated_seconds == 0, s

    # Regime 3: the light pair is close across strategies (within 15 %).
    light = [fig11_results[("genshin", "contra", s)].throughput
             for s in ("cocg", "gaugur", "vbp")]
    assert max(light) / min(light) < 1.15

    # Overall: CoCG improves over every alternative — roughly the
    # paper's +23.7 % against the static schemes, and a smaller but real
    # margin over the stage-aware reactive scheme.
    assert improvement_static > 0.15
    assert improvement_reactive > 0.04

    # Cap discipline throughout.
    for r in fig11_results.values():
        assert r.over_cap_seconds == 0

    # Timed portion: one short co-location slice.
    pair_profiles = {"genshin": profiles["genshin"], "contra": profiles["contra"]}

    def short_run():
        return ColocationExperiment(
            pair_profiles, CoCGStrategy(), horizon=300, seed=1
        ).run()

    benchmark.pedantic(short_run, rounds=3, iterations=1)


def test_fig11_qos_stays_acceptable(fig11_results, benchmark):
    """§IV-D: co-location under CoCG keeps degradation tolerable."""
    for a, b in PAIRS:
        r = fig11_results[(a, b, "cocg")]
        for game, frac in r.fraction_of_best.items():
            if not np.isnan(frac):
                assert frac > 0.7, (a, b, game, frac)

    r = fig11_results[PAIRS[0] + ("cocg",)]
    benchmark(lambda: r.qos.overall_fraction_of_best())
