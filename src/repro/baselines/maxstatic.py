"""The modest baseline: whole-run maximum reservation.

"The modest way is to default that each cloud game consumes the same
resources from the start of the operation to the end of the application
and allocate them based on this" (§V-A).  Every game is reserved at its
profiled peak for its entire run; admission succeeds only when that peak
fits in what is left.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import SchedulingStrategy, SessionFactory
from repro.core.allocation import AllocationPlanner
from repro.games.session import GameSession

__all__ = ["MaxStaticStrategy"]


class MaxStaticStrategy(SchedulingStrategy):
    """Reserve the whole-game peak, never retune."""

    name = "max-static"

    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Admit iff the whole-game peak fits under the cap."""
        planner = AllocationPlanner(self.profile_of(game).library, accuracy=1.0)
        placed = self._place(session_id, planner.peak_plan(), time=time)
        return self._admit(placed, make_session)
