"""Fig 9 — co-location of Genshin Impact and DOTA2 under CoCG.

The paper's trace shows the two games' combined utilization staying
below the 95 % cap while each reaches its own peak at different times,
with the regulator stretching a Genshin loading screen (≈ 15 s) when
DOTA2 peaks.  We run the same pair under CoCG and verify the trace-level
claims: cap respected, both games reach real peaks, peaks staggered, and
loading holds actually used.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis.report import format_series, format_table
from repro.baselines import CoCGStrategy
from repro.cluster.experiment import ColocationExperiment

HORIZON = 2400


def test_fig09_genshin_dota2_trace(profiles, benchmark):
    pair = {k: profiles[k] for k in ("genshin", "dota2")}
    strat = CoCGStrategy()
    result = ColocationExperiment(pair, strat, horizon=HORIZON, seed=42).run()

    total_gpu = result.total_usage[:, 1]
    # 60-second means for the printed series (the figure's time axis).
    window = 60
    coarse = total_gpu[: len(total_gpu) // window * window].reshape(-1, window).mean(1)

    per_game_peak = {}
    for name in pair:
        peaks = []
        for sid in result.telemetry.session_ids:
            if sid.startswith(f"{name}-r"):
                peaks.append(result.telemetry.true_usage_series(sid).peak()[1])
        per_game_peak[name] = max(peaks)

    scheduler = strat.scheduler
    rows = [
        ["combined GPU peak (cap 95)", float(result.peak_total_usage[1])],
        ["genshin max GPU usage", per_game_peak["genshin"]],
        ["dota2 max GPU usage", per_game_peak["dota2"]],
        ["co-located seconds", result.colocated_seconds],
        ["seconds over cap", result.over_cap_seconds],
        ["loading holds (time stealing)", scheduler.regulator.holds_started],
        ["total stolen loading seconds", scheduler.regulator.hold_seconds_total],
    ]
    # The paper narrates Fig 9 as five periods of staggering decisions;
    # our scheduler's decision log tells the same story.
    story = [
        d for d in scheduler.decision_log
        if d.action in ("hold", "stage-end", "callback", "transient-revert")
    ]
    story_lines = [
        f"  t={d.time:6.0f}  {d.session_id:14}  {d.action:16} {d.detail[:48]}"
        for d in story[:16]
    ]
    print_block(
        format_table(["metric", "value"], rows, title="Fig 9: Genshin + DOTA2 under CoCG")
        + "\n\n"
        + format_series("combined GPU utilization (60 s means)", coarse)
        + "\n\nscheduler decisions (first 16 staggering events):\n"
        + "\n".join(story_lines)
    )

    # The paper's claims, at trace level:
    assert result.over_cap_seconds == 0
    assert result.peak_total_usage[1] <= 95 + 1e-6
    # Both games genuinely reach their high stages while co-located …
    assert per_game_peak["genshin"] > 55
    assert per_game_peak["dota2"] > 35
    # … yet their peak sum exceeds the cap, so the peaks must have been
    # staggered in time (the whole point of the figure).
    assert per_game_peak["genshin"] + per_game_peak["dota2"] > 95
    assert result.colocated_seconds > 0.5 * HORIZON
    # Time stealing fired at least once over the window.
    assert scheduler.regulator.holds_started >= 1

    def one_control_cycle():
        strat.control(HORIZON, result.telemetry)

    benchmark(one_control_cycle)
