"""Cloud-game workload substrate.

The paper runs five real titles (DOTA2, CSGO, Genshin Impact, Devil May
Cry, Contra) on a physical testbed.  CoCG never inspects the games
themselves — its input is the multi-dimensional resource time series plus
the stage structure induced by scene loading.  This package provides a
generative model with the same statistical structure:

* :mod:`~repro.games.spec` — frame clusters, stages (loading/execution),
  scripts, and whole-game specifications;
* :mod:`~repro.games.category` — the Fig-7 game-category quadrants;
* :mod:`~repro.games.player` — the user-influence model (stay-duration
  variance, task-order permutation, transient bursts);
* :mod:`~repro.games.session` — the runtime stage machine producing
  1-second demand samples, with allocation-dependent loading progress;
* :mod:`~repro.games.catalog` — the five paper games with the Table-I
  scripts;
* :mod:`~repro.games.tracegen` — offline trace/corpus generation for
  profiling and predictor training.
"""

from repro import _lazy_exports

__all__ = [
    "ClusterSpec",
    "StageSpec",
    "StageKind",
    "ScriptSpec",
    "GameSpec",
    "GameCategory",
    "PlayerModel",
    "GameSession",
    "SessionTick",
    "build_catalog",
    "dota2",
    "csgo",
    "genshin_impact",
    "devil_may_cry",
    "contra",
    "generate_trace",
    "generate_corpus",
    "TraceBundle",
    "GroundTruth",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ClusterSpec": ".spec",
    "GameSpec": ".spec",
    "ScriptSpec": ".spec",
    "StageKind": ".spec",
    "StageSpec": ".spec",
    "GameCategory": ".category",
    "PlayerModel": ".player",
    "GameSession": ".session",
    "SessionTick": ".session",
    "build_catalog": ".catalog",
    "contra": ".catalog",
    "csgo": ".catalog",
    "devil_may_cry": ".catalog",
    "dota2": ".catalog",
    "genshin_impact": ".catalog",
    "GroundTruth": ".tracegen",
    "TraceBundle": ".tracegen",
    "generate_trace": ".tracegen",
    "generate_corpus": ".tracegen",
})
