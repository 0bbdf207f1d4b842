"""Fig 13 — FPS of co-located games: CoCG versus GAugur.

The paper's protocol "covered all 4 games as much as possible" (CSGO,
Genshin, DOTA2, Devil May Cry co-located on one server) and measures
each game's FPS relative to the best it can reach per stage: CoCG ≈
78 % of best, GAugur ≈ 43 %, with Genshin/DMC's frame locks honoured.

GAugur's deficit comes from its *fixed* per-game limit: hosting four
games it divides the budget into static shares
(``max_share=0.24``), starving every peak stage.  CoCG instead keeps
co-location within what its stage predictions can serve (its admission
control is part of the system) and reallocates stage by stage — the two
§IV-C2 regulator strategies the paper credits for the gap.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis.report import format_table
from repro.baselines import CoCGStrategy, GAugurStrategy
from repro.core.scheduler import CoCGConfig
from repro.platform_.qos import FpsModel
from repro.platform_.resources import ResourceVector
from repro.cluster.experiment import ColocationExperiment

GAMES = ("csgo", "genshin", "dota2", "devil_may_cry")
HORIZON = 7200


def test_fig13_fraction_of_best_fps(profiles, benchmark):
    pool = {g: profiles[g] for g in GAMES}
    rows = []
    means = {}
    locked_mean_fps = {}
    for strat in (
        CoCGStrategy(config=CoCGConfig(overshoot_tolerance=5.0)),
        GAugurStrategy(max_share=0.24),
    ):
        r = ColocationExperiment(pool, strat, horizon=HORIZON, seed=7).run()
        fracs = []
        for game in GAMES:
            frac = r.fraction_of_best[game]
            if np.isnan(frac):
                rows.append([strat.name, game, "not hosted", ""])
                continue
            fracs.append(frac)
            rows.append([strat.name, game, frac * 100,
                         r.violation_fraction[game] * 100])
            if strat.name == "cocg" and game in ("genshin", "devil_may_cry"):
                fps = [
                    r.qos.report(sid).mean_fps
                    for sid in r.qos.session_ids
                    if sid.startswith(f"{game}-r")
                ]
                locked_mean_fps[game] = float(np.mean(fps))
        means[strat.name] = float(np.mean(fracs))

    print_block(
        format_table(
            ["strategy", "game", "% of best FPS", "% time < 30 FPS"],
            rows,
            title="Fig 13: FPS of co-located games (4-game protocol)",
        )
        + f"\n\nmean fraction of best:  CoCG {means['cocg']*100:.1f} %  |  "
        + f"GAugur {means['gaugur']*100:.1f} %   (paper: 78 % vs 43 %)"
    )

    # The paper's ordering and rough magnitudes.
    assert means["cocg"] > 0.70
    assert means["gaugur"] < 0.60
    assert means["cocg"] - means["gaugur"] > 0.20

    # Locked titles stay playable under CoCG: mean FPS above the 30-FPS
    # floor for the 60-lock games the paper calls out.
    for game, fps in locked_mean_fps.items():
        assert fps > 30, (game, fps)

    model = FpsModel()
    demand = ResourceVector(cpu=40, gpu=60)
    allocation = ResourceVector(cpu=35, gpu=50)
    benchmark(lambda: model.fps(90, demand, allocation, frame_lock=60))
