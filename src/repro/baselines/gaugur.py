"""GAugur-like baseline (Li et al., HPDC'19; paper §V-B2).

GAugur profiles games offline, predicts whether two games can be
co-located, and "assigns a fixed resource limit to each game through
machine learning algorithms".  Our reproduction keeps both behaviours:

* the **fixed limit** interpolates between the game's mean and peak
  demand (``mean + α·(peak − mean)``) — the per-game budget its model
  deems sufficient *on average*;
* the **co-location test** admits a game only when the fixed limits of
  every hosted game sum within the budget.

Because the limit never adapts to the current stage, peak stages run
starved (the Fig-13 effect: ≈ 43 % of best FPS) while quiet stages waste
their reservation — precisely the game-grained inefficiency CoCG
removes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import SchedulingStrategy, SessionFactory
from repro.core.pipeline import GameProfile
from repro.games.session import GameSession
from repro.platform_.resources import ResourceVector
from repro.util.validation import check_fraction

__all__ = ["GAugurStrategy"]


class GAugurStrategy(SchedulingStrategy):
    """Fixed ML-profiled limits with pairwise co-location prediction.

    Parameters
    ----------
    alpha:
        Position of the fixed limit between mean (0) and peak (1)
        demand.  0.5 matches GAugur's reported average-sufficiency
        operating point.
    max_share:
        Optional clamp of the fixed limit to this fraction of the
        budget.  This is GAugur's *overcommitted* operating mode — when
        the operator forces co-location (the paper's Fig-13 protocol
        "covered all 4 games as much as possible"), GAugur divides the
        budget into fixed shares; peak stages then run starved, which is
        exactly the ≈43 %-of-best FPS the paper measures.
    """

    name = "gaugur"

    def __init__(self, *, alpha: float = 0.5, max_share: float | None = None):
        super().__init__()
        check_fraction("alpha", alpha)
        if max_share is not None:
            check_fraction("max_share", max_share, inclusive=False)
        self.alpha = float(alpha)
        self.max_share = max_share

    # ------------------------------------------------------------------
    def fixed_limit(self, profile: GameProfile) -> ResourceVector:
        """The per-game budget GAugur's model assigns for the whole run."""
        lib = profile.library
        types = lib.execution_types or lib.stage_types
        weights = np.array([lib.stats(t).total_frames for t in types], dtype=float)
        means = np.stack([lib.stats(t).mean for t in types])
        weights = weights / max(weights.sum(), 1e-9)
        mean = (weights[:, None] * means).sum(axis=0)
        peak = lib.max_peak().array
        limit = mean + self.alpha * (peak - mean)
        if self.max_share is not None and self.allocator is not None:
            budget = self.allocator.capped_capacity(0).array
            limit = np.minimum(limit, self.max_share * budget)
        return ResourceVector.from_array(limit).clip(0.0, 100.0)

    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Admit iff the fixed limits of every hosted game still fit."""
        self._require_attached()
        limit = self.fixed_limit(self.profile_of(game))
        return self._admit(self._place(session_id, limit, time=time), make_session)
