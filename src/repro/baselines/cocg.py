"""CoCG as a pluggable strategy (thin adapter over the core scheduler)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines.base import SchedulingStrategy, SessionFactory
from repro.core.pipeline import GameProfile
from repro.core.scheduler import CoCGConfig, CoCGScheduler
from repro.games.session import GameSession
from repro.platform_.resources import ResourceVector
from repro.platform_.allocator import Allocator
from repro.sim.telemetry import TelemetryRecorder

__all__ = ["CoCGStrategy"]


class CoCGStrategy(SchedulingStrategy):
    """The paper's system behind the common strategy interface.

    Parameters
    ----------
    config:
        Scheduler configuration (defaults = the paper's settings).
    """

    name = "cocg"

    def __init__(self, *, config: Optional[CoCGConfig] = None):
        super().__init__()
        self.config = config
        self.scheduler: Optional[CoCGScheduler] = None

    def attach(self, allocator: Allocator, profiles: Dict[str, GameProfile]) -> None:
        """Bind to a server and build the underlying CoCG scheduler."""
        super().attach(allocator, profiles)
        self.scheduler = CoCGScheduler(allocator, config=self.config)

    def _require_scheduler(self) -> CoCGScheduler:
        if self.scheduler is None:
            raise RuntimeError("CoCGStrategy is not attached")
        return self.scheduler

    # ------------------------------------------------------------------
    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Algorithm-1 admission through the core scheduler."""
        scheduler = self._require_scheduler()
        decision = scheduler.try_admit(
            session_id, self.profile_of(game), make_session, time=time
        )
        if not decision.admitted:
            self.rejections += 1
            return None
        self.admissions += 1
        return scheduler.sessions[session_id].session

    def release(self, session_id: str, *, time: float) -> None:
        """Release a finished session."""
        self._require_scheduler().release(session_id, time=time)

    def control(self, time: float, telemetry: TelemetryRecorder) -> None:
        """Run the 5-second CoCG control cycle."""
        self._require_scheduler().control(time, telemetry)

    def degraded_sessions(self) -> Sequence[str]:
        """Sessions whose predictor circuit breaker is open."""
        return self._require_scheduler().degraded_sessions()

    def order_requests(self, pending: list) -> list:
        """§IV-C2 "distinguish game length": prefer a short game when the
        server is near a long game's peak window, a long game otherwise."""
        scheduler = self._require_scheduler()
        current = ResourceVector.zeros()
        for placement in scheduler.allocator.server.placements.values():
            current = current + placement.allocation
        ordered = list(pending)
        idx = scheduler.regulator.pick_request(
            ordered, current, long_term_of=lambda r: r.long_term
        )
        if idx is None or idx == 0:
            return ordered
        return [ordered[idx]] + ordered[:idx] + ordered[idx + 1 :]

    @property
    def detect_interval(self) -> int:
        """The configured detection period."""
        cfg = self.config if self.config is not None else CoCGConfig()
        return cfg.detect_interval
