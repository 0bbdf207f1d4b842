"""Fig 10 & §V-B1 — stage-predictive allocation versus max reservation.

The paper allocates Genshin per predicted stage and reports that the
ceilings "basically cover the actual resources consumed" while saving
27.3 % versus always reserving the 65 % maximum; across the five games
the average saving is 17.5 %.  We reproduce the per-game savings table
and the coverage claim, plus the Fig-10 robustness anecdote: transient
misjudgments are rolled back by the rehearsal callback.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis.report import format_table
from repro.analysis.savings import allocation_savings
from repro.baselines import CoCGStrategy
from repro.cluster.experiment import ColocationExperiment

HORIZON = 2400


def _run_single(profiles, game):
    strat = CoCGStrategy()
    result = ColocationExperiment(
        {game: profiles[game]}, strat, horizon=HORIZON, seed=17
    ).run()
    return strat, result


def test_fig10_per_game_savings(profiles, benchmark):
    rows = []
    savings_list = []
    transients = 0
    for game in ("genshin", "dota2", "csgo", "devil_may_cry", "contra"):
        strat, result = _run_single(profiles, game)
        telemetry = result.telemetry
        static = profiles[game].library.max_peak().array
        total_saving = []
        coverage = []
        for sid in telemetry.session_ids:
            alloc = telemetry.allocation_series(sid)
            demand = telemetry.true_demand_series(sid)
            s = allocation_savings(alloc, demand, static)
            total_saving.append(s.savings_fraction)
            coverage.append(s.coverage)
        for ctl in strat.scheduler.sessions.values():
            transients += ctl.adjuster.transients_reverted
        saving = float(np.mean(total_saving))
        rows.append([game, float(static.max()), saving * 100, float(np.mean(coverage)) * 100])
        savings_list.append(saving)

    avg = float(np.mean(savings_list)) * 100
    rows.append(["AVERAGE (paper: 17.5 %)", "", avg, ""])
    print_block(
        format_table(
            ["game", "static max %", "saving vs max %", "demand covered %"],
            rows,
            title="Fig 10 / §V-B1: stage-predictive allocation savings",
        )
    )

    # Shape claims: every multi-stage game saves versus max reservation
    # (Contra's two stages cost nearly the same, so it has nothing to
    # save — the flat line of the paper's own Fig-14 discussion); the
    # average saving is double-digit (paper: 17.5 %); coverage stays
    # high (paper: "basically cover the actual resources consumed").
    genshin_s, dota2_s, csgo_s, dmc_s, contra_s = savings_list
    for s in (genshin_s, dota2_s, csgo_s, dmc_s):
        assert s > 0.08, savings_list
    assert contra_s > -0.05
    assert 10 <= avg <= 35
    assert all(row[3] == "" or row[3] > 65 for row in rows)

    # Genshin-specific: the paper's headline 27.3 % saving.
    assert 18 <= genshin_s * 100 <= 38

    strat, result = _run_single(profiles, "genshin")
    telemetry = result.telemetry
    sid = telemetry.session_ids[0]
    benchmark(lambda: telemetry.allocation_series(sid))
