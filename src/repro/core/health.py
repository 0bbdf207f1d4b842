"""Predictor health: a consecutive-failure circuit breaker.

The CoCG control loop leans on a trained model every 5 seconds; a broken
backend must not turn every tick into an exception storm.
:class:`PredictorHealth` implements the classic three-state breaker over
*simulation* time (no wall clock):

* **closed** — the model chain is trusted and used normally;
* **open** — after ``threshold`` consecutive chain failures the breaker
  trips: the scheduler stops calling the models, serves stage-history
  priors, and drops the session into reactive (usage-following)
  allocation — CoCG degrades into the paper's "improved" baseline
  instead of crashing the tick;
* **half-open** — once ``cooldown`` seconds have passed the next call is
  allowed through as a probe; success re-closes the breaker, failure
  re-opens it and restarts the cooldown.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["BreakerState", "PredictorHealth"]


class BreakerState(Enum):
    """Circuit-breaker state."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class PredictorHealth:
    """Consecutive-failure circuit breaker with cooldown re-probe.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip the breaker open.
    cooldown:
        Simulation seconds an open breaker waits before permitting a
        half-open probe.
    """

    def __init__(self, *, threshold: int = 3, cooldown: float = 60.0):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self.consecutive_failures = 0
        self.total_failures = 0
        self.total_successes = 0
        self.open_count = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current breaker state."""
        return self._state

    def allow(self, now: float) -> bool:
        """Whether a model call may be attempted at sim-time ``now``.

        An open breaker transitions to half-open (and answers True) once
        the cooldown has elapsed; the caller's next
        :meth:`record_success`/:meth:`record_failure` settles the probe.
        """
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if now >= self._opened_at + self.cooldown:
                self._state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_success(self) -> None:
        """A model call succeeded; close the breaker."""
        self.total_successes += 1
        self.consecutive_failures = 0
        self._state = BreakerState.CLOSED

    def record_failure(self, now: float) -> None:
        """A model call (or probe) failed at sim-time ``now``."""
        self.total_failures += 1
        self.consecutive_failures += 1
        tripped = (
            self._state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.threshold
        )
        if tripped:
            self._state = BreakerState.OPEN
            self._opened_at = float(now)
            self.open_count += 1
            self.consecutive_failures = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictorHealth(state={self._state.value!r}, "
            f"failures={self.total_failures}, opens={self.open_count})"
        )
