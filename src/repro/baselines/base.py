"""The strategy interface the experiment driver schedules through.

A strategy owns admission (may this game join the server?), allocation
(what ceiling does each hosted session get right now?), and the periodic
control reaction to telemetry.  It mutates the server exclusively through
the :class:`~repro.platform_.allocator.Allocator` it is attached to, so
capacity conservation is enforced uniformly across strategies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.core.pipeline import GameProfile
from repro.games.session import GameSession
from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.resources import ResourceVector
from repro.platform_.server import Placement
from repro.sim.telemetry import TelemetryRecorder

__all__ = ["SchedulingStrategy", "SessionFactory"]

#: Builds the session a request launches; called only once it is admitted.
SessionFactory = Callable[[], GameSession]


class SchedulingStrategy(ABC):
    """Base class for scheduling strategies.

    Lifecycle: :meth:`attach` once, then per simulated run —
    :meth:`try_admit` when a request is pending, :meth:`control` every
    detection interval, :meth:`release` on completion.
    """

    #: Human-readable strategy name (used in benchmark tables).
    name: str = "strategy"

    def __init__(self) -> None:
        self.allocator: Optional[Allocator] = None
        self.profiles: Dict[str, GameProfile] = {}
        self.admissions = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    def attach(self, allocator: Allocator, profiles: Dict[str, GameProfile]) -> None:
        """Bind to a server and the offline game profiles."""
        self.allocator = allocator
        self.profiles = dict(profiles)

    def _require_attached(self) -> Allocator:
        if self.allocator is None:
            raise RuntimeError(f"{type(self).__name__} is not attached to a server")
        return self.allocator

    def profile_of(self, game: str) -> GameProfile:
        """The offline profile of a game."""
        try:
            return self.profiles[game]
        except KeyError:
            raise KeyError(
                f"no profile for game {game!r}; have {sorted(self.profiles)}"
            ) from None

    # ------------------------------------------------------------------
    @abstractmethod
    def try_admit(
        self, session_id: str, game: str, make_session: SessionFactory, *, time: float
    ) -> Optional[GameSession]:
        """Admission test for a session of ``game`` named ``session_id``.

        On admission the strategy places ``session_id`` and returns the
        session ``make_session()`` builds; on refusal it returns ``None``
        and never calls ``make_session``.
        """

    def _admit(self, placed: bool, make_session: SessionFactory) -> Optional[GameSession]:
        """Count the verdict; build the session only on a yes."""
        if not placed:
            self.rejections += 1
            return None
        self.admissions += 1
        return make_session()

    def _place(
        self, session_id: str, ceiling: ResourceVector, *, time: float,
        gpu_index: Optional[int] = None,
    ) -> bool:
        """Place ``ceiling``; False when the allocator refuses it."""
        try:
            self._require_attached().place(
                session_id, ceiling, gpu_index=gpu_index, time=time
            )
        except AllocationError:
            return False
        return True

    def release(self, session_id: str, *, time: float) -> None:
        """Free a finished session's reservation."""
        self._require_attached().release(session_id, time=time)

    def control(self, time: float, telemetry: TelemetryRecorder) -> None:
        """Periodic reaction to telemetry (static strategies do nothing)."""

    @property
    def placements(self) -> Mapping[str, Placement]:
        """Hosted sessions' placements: the server's read-only live view."""
        return self._require_attached().server.placements

    def allocation_of(self, session_id: str) -> ResourceVector:
        """Current ceiling of a hosted session."""
        return self.placements[session_id].allocation

    def degraded_sessions(self) -> Sequence[str]:
        """Sessions running in degraded (fault-fallback) mode.

        Static strategies have no degraded mode; CoCG reports sessions
        whose predictor circuit breaker is open.
        """
        return ()

    def order_requests(self, pending: list) -> list:
        """Order pending requests before admission attempts.

        The default is the driver's fair rotation; CoCG overrides this
        with the regulator's §IV-C2 length-aware policy (prefer short
        games when headroom is tight).
        """
        return pending

    @property
    def detect_interval(self) -> int:
        """Seconds between :meth:`control` invocations."""
        return 5
