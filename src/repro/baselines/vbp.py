"""Vector bin packing (paper §V-B2).

"VBP assumes that the game can run normally at 90 % of its maximum
resource consumption.  At the same time, an application can be assigned
to a server only when the server's remaining resources are higher than
the peak of the application."  The reservation is therefore fixed at
0.9 × peak, and admission tests the *full* peak against the remaining
(uncapped) hardware resources — the classic conservative vector packing
rule.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import SchedulingStrategy, SessionFactory
from repro.core.allocation import AllocationPlanner
from repro.games.session import GameSession
from repro.util.validation import check_fraction

__all__ = ["VBPStrategy"]


class VBPStrategy(SchedulingStrategy):
    """Fixed 0.9×peak reservation with peak-fit admission.

    Parameters
    ----------
    run_fraction:
        The "can run normally at" fraction (paper: 0.9).
    """

    name = "vbp"

    def __init__(self, *, run_fraction: float = 0.9):
        super().__init__()
        check_fraction("run_fraction", run_fraction, inclusive=False)
        self.run_fraction = float(run_fraction)

    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Admit iff the full peak fits the remaining hardware; reserve
        0.9×peak."""
        allocator = self._require_attached()
        planner = AllocationPlanner(self.profile_of(game).library, accuracy=1.0)
        peak = planner.peak_plan()
        # Admission: the full peak must fit in the remaining hardware.
        gpu_index = allocator.gpu_order()[0]
        placed = peak.fits_within(
            allocator.server.available(gpu_index)
        ) and self._place(session_id, peak * self.run_fraction, time=time)
        return self._admit(placed, make_session)
