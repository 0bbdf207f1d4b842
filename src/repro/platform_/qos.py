"""FPS model and QoS accounting.

The paper measures cloud-game QoS in FPS (§V-C2): 30 FPS is the floor an
average player tolerates, 60 FPS is ideal, and some titles lock their
frame rate to 30/60.  When a game's resource ceiling falls below its
demand, frames drop — the FPS model turns (demand, allocation) into a
frame rate:

    fps = nominal_fps · min_i(allocation_i / demand_i, 1)^γ

clipped at the title's frame lock.  γ (default 1.5) captures that
rendering pipelines degrade super-linearly once starved: a 20 % resource
deficit costs more than 20 % of frames (frame pacing, pipeline stalls).

:class:`QoSTracker` accumulates per-second FPS samples for many sessions
and produces the paper's metrics: QoS-violation time (fps < 30),
performance-loss fraction (the < 5 % criterion of §IV-D), and
fraction-of-best FPS (the y-axis of Fig 13).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.platform_.resources import ResourceVector
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["FpsModel", "QoSReport", "QoSTracker"]


def _fps_columns() -> Tuple[array, array]:
    """One session's empty (fps, best fps) columns."""
    return array("d"), array("d")


@dataclass
class FpsModel:
    """Maps (demand, allocation) to frames per second.

    Parameters
    ----------
    gamma:
        Starvation exponent (≥ 1); 1 makes FPS proportional to the
        binding satisfaction ratio.
    qos_floor_fps:
        FPS below which a second counts as a QoS violation (paper: 30).
    ideal_fps:
        The "ideal performance" mark (paper: 60); only used in reports.
    """

    gamma: float = 1.5
    qos_floor_fps: float = 30.0
    ideal_fps: float = 60.0

    def __post_init__(self) -> None:
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        check_positive("qos_floor_fps", self.qos_floor_fps)
        check_positive("ideal_fps", self.ideal_fps)

    def satisfaction(
        self, demand: ResourceVector, allocation: ResourceVector
    ) -> float:
        """Binding supply ratio ``min_i(alloc_i/demand_i)`` clipped to [0, 1].

        Dimensions with zero demand never bind.
        """
        # numpy's min-reduction and clip, tie rule on signed zeros included.
        binding = None
        for a, d in zip(allocation.values, demand.values):
            if d > 1e-9:
                r = a / d
                if binding is None or not binding < r:
                    binding = r
        if binding is None:
            return 1.0
        binding = 0.0 if binding < 0.0 else binding
        return 1.0 if binding > 1.0 else binding

    def fps(
        self,
        nominal_fps: float,
        demand: ResourceVector,
        allocation: ResourceVector,
        *,
        frame_lock: Optional[float] = None,
    ) -> float:
        """Achieved FPS for one second of play.

        Parameters
        ----------
        nominal_fps:
            FPS the stage reaches with all demanded resources granted.
        frame_lock:
            Manufacturer frame cap (30/60) or ``None`` for uncapped.
        """
        check_positive("nominal_fps", nominal_fps)
        s = self.satisfaction(demand, allocation)
        fps = nominal_fps * s**self.gamma
        if frame_lock is not None:
            fps = min(fps, float(frame_lock))
        return float(fps)

    def best_fps(self, nominal_fps: float, *, frame_lock: Optional[float] = None) -> float:
        """FPS with fully satisfied demand (the Fig-13 'best performance')."""
        if frame_lock is not None:
            return float(min(nominal_fps, frame_lock))
        return float(nominal_fps)


@dataclass
class QoSReport:
    """Aggregated QoS metrics for one session.

    ``degraded_seconds`` counts seconds the scheduler spent in degraded
    (open-breaker, reactive-allocation) mode for this session — zero in
    a fault-free run.
    """

    session_id: str
    seconds: int
    mean_fps: float
    violation_seconds: int
    violation_fraction: float
    fraction_of_best: float
    min_fps: float
    degraded_seconds: int = 0

    def meets_paper_tolerance(self, tolerance: float = 0.05) -> bool:
        """The §IV-D criterion: degradation for < 5 % of the total time."""
        return self.violation_fraction < tolerance


class QoSTracker:
    """Accumulates per-second FPS samples per session.

    The tracker also stores, per sample, the *best achievable* FPS of the
    stage the session was in, so fraction-of-best (Fig 13) is computed
    against the right per-stage ceiling rather than a global 60.
    """

    def __init__(self, model: Optional[FpsModel] = None):
        self.model = model if model is not None else FpsModel()
        #: Per session: the (fps, best fps) columns, one entry per second.
        self._columns: Dict[str, Tuple[array, array]] = defaultdict(_fps_columns)
        self._degraded: Dict[str, int] = {}
        #: Simulation time of the latest :meth:`note_degraded` (``None``
        #: before any).
        self.last_degraded: Optional[float] = None

    def note_degraded(
        self, session_id: str, *, time: float, seconds: int = 1
    ) -> None:
        """Count ``seconds`` of degraded-mode operation for a session,
        ending at simulation ``time``."""
        check_nonnegative("seconds", seconds)
        self._degraded[session_id] = (
            self._degraded.get(session_id, 0) + int(seconds)
        )
        self.last_degraded = float(time)

    def degraded_seconds(self, session_id: str) -> int:
        """Seconds the session spent under degraded (reactive) control."""
        return self._degraded.get(session_id, 0)

    def total_degraded_seconds(self) -> int:
        """Degraded-mode seconds summed over every session."""
        return sum(self._degraded.values())

    def record(self, session_id: str, fps: float, best_fps: float) -> None:
        """Record one second of play."""
        check_nonnegative("fps", fps)
        check_positive("best_fps", best_fps)
        fps_column, best_column = self._columns[session_id]
        fps_column.append(float(fps))
        best_column.append(float(best_fps))

    def record_second(
        self,
        session_id: str,
        nominal_fps: float,
        demand: ResourceVector,
        allocation: ResourceVector,
        *,
        frame_lock: Optional[float] = None,
    ) -> float:
        """Evaluate the FPS model for one second and record it (game specs
        validate ``nominal_fps``/``frame_lock``, so nothing is re-checked)."""
        model = self.model
        best = float(nominal_fps)
        fps = nominal_fps * model.satisfaction(demand, allocation) ** model.gamma
        if frame_lock is not None:
            lock = float(frame_lock)
            fps = min(fps, lock)
            best = min(best, lock)
        fps_column, best_column = self._columns[session_id]
        fps_column.append(fps)
        best_column.append(best)
        return float(fps)

    # ------------------------------------------------------------------
    @property
    def session_ids(self) -> List[str]:
        """Sessions with at least one FPS sample."""
        return list(self._columns)

    def fps_series(self, session_id: str) -> np.ndarray:
        """Recorded per-second FPS for one session."""
        columns = self._columns.get(session_id)
        return np.array(columns[0] if columns is not None else (), dtype=float)

    def report(self, session_id: str) -> QoSReport:
        """Aggregate one session's samples into a :class:`QoSReport`."""
        fps = self.fps_series(session_id)
        if fps.size == 0:
            raise KeyError(f"no samples recorded for session {session_id!r}")
        best = np.array(self._columns[session_id][1], dtype=float)
        violations = int(np.sum(fps < self.model.qos_floor_fps))
        return QoSReport(
            session_id=session_id,
            seconds=int(fps.size),
            mean_fps=float(fps.mean()),
            violation_seconds=violations,
            violation_fraction=float(violations / fps.size),
            fraction_of_best=float(np.mean(fps / best)),
            min_fps=float(fps.min()),
            degraded_seconds=self._degraded.get(session_id, 0),
        )

    def overall_fraction_of_best(self) -> float:
        """Time-weighted fraction-of-best across every session (Fig 13)."""
        num = 0.0
        den = 0
        for fps_column, best_column in self._columns.values():
            fps = np.array(fps_column)
            num += float(np.sum(fps / np.array(best_column)))
            den += fps.size
        if den == 0:
            raise RuntimeError("no samples recorded")
        return num / den
