"""The paper's "improved version": stage-aware but purely reactive.

"The second scheme perceives that each game has different resource
consumption stages at runtime but does not predict the next stage at the
time of scheduling, and only redeploys the resource usage based on the
current operation" (§V-A).

Every detection tick, the ceiling follows the last observed usage window
with a multiplicative margin.  The scheme saves resources during quiet
stages, but every stage *transition* starves the game for up to one
detection interval (demand jumps before the ceiling follows), and
admission can only reason about the present.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import SchedulingStrategy, SessionFactory
from repro.core.allocation import AllocationPlanner
from repro.games.session import GameSession
from repro.platform_.resources import ResourceVector
from repro.sim.telemetry import TelemetryRecorder
from repro.util.validation import check_nonnegative

__all__ = ["ReactiveStrategy"]


class ReactiveStrategy(SchedulingStrategy):
    """Usage-following ceilings, no prediction.

    Parameters
    ----------
    margin:
        Multiplicative headroom over observed usage (default 0.15).
    floor:
        Minimum ceiling in percent per dimension, so a fully idle window
        cannot strangle the session.
    """

    name = "reactive"

    def __init__(self, *, margin: float = 0.15, floor: float = 8.0):
        super().__init__()
        check_nonnegative("margin", margin)
        check_nonnegative("floor", floor)
        self.margin = float(margin)
        self.floor = float(floor)
        self._hosted: Dict[str, GameSession] = {}

    # ------------------------------------------------------------------
    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Myopic admission: the entry footprint must fit *right now*."""
        allocator = self._require_attached()
        planner = AllocationPlanner(self.profile_of(game).library, accuracy=1.0)
        entry = planner.for_loading()
        # Admission looks only at the present: current reservations plus
        # the newcomer's entry footprint must fit.
        gpu_index = allocator.gpu_order()[0]
        session = self._admit(
            allocator.can_place(entry, gpu_index)
            and self._place(session_id, entry, time=time, gpu_index=gpu_index),
            make_session,
        )
        if session is not None:
            self._hosted[session_id] = session
        return session

    def release(self, session_id: str, *, time: float) -> None:
        """Release a finished session."""
        self._hosted.pop(session_id, None)
        super().release(session_id, time=time)

    def control(self, time: float, telemetry: TelemetryRecorder) -> None:
        """Follow each session's observed usage with a margin."""
        allocator = self._require_attached()
        for sid in list(self._hosted):
            window = telemetry.observed_window(sid, self.detect_interval)
            if window is None:
                continue
            target = np.maximum(window * (1.0 + self.margin), self.floor)
            allocator.retune_clamped(
                sid, ResourceVector.from_array(np.clip(target, 0, 100)), time=time
            )
