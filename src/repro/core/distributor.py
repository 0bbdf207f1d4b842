"""The game distributor — Algorithm 1 (paper §IV-C1).

Decides whether a pending game may join a server that is already running
games.  The test follows the paper's pseudocode:

1. group the running tasks by (stage, cluster) and sum their current
   consumption; if the sum plus the newcomer's entry consumption already
   fits, admit;
2. otherwise roll the predictors forward ``horizon`` iterations
   (``N = Total.iteration``), take the maximum predicted co-consumption
   ``M``, and admit only when ``M + Consumption_{S_i}`` stays within the
   capacity.

The newcomer's entry consumption is its boot-loading plan — games always
start by loading (cheap on the GPU), which is what makes fine-grained
admission so much more permissive than whole-game peak reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.platform_.resources import Floats4, ResourceVector, _wrap
from repro.util.effects import effects

__all__ = [
    "RunningTaskView",
    "AdmissionDecision",
    "BatchEvaluation",
    "Distributor",
]


class RunningTaskView(Protocol):
    """What the distributor needs to know about one running session."""

    @property
    def current_allocation(self) -> ResourceVector:
        """The task's current ceiling."""
        ...

    def predicted_peaks(self, horizon: int) -> List[ResourceVector]:
        """Predicted per-step allocation peaks for the next stages."""
        ...


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    admitted:
        The Algorithm-1 ``P``.
    reason:
        Human-readable explanation.
    predicted_peak:
        The co-consumption ``M`` + newcomer that was tested (if any).
    """

    admitted: bool
    reason: str
    predicted_peak: Optional[ResourceVector] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.admitted


class BatchEvaluation:
    """One shared Algorithm-1 pass over a *fixed* running set.

    The expensive inputs of Algorithm 1 — the running tasks' summed
    current consumption and their rolled-forward worst co-consumption
    ``M`` — depend only on the running set, not on the newcomer.  A
    batch evaluation computes each of them at most once (``M`` lazily:
    only when some candidate survives the current-fit check) and then
    answers any number of candidate ``(entry, steady)`` pairs, instead
    of re-rolling every task's predictor per request × node.

    Against a fixed snapshot a decision is a pure function of the
    candidate's terms, so each distinct ``(entry, steady)`` pair is
    decided once; every call still counts in
    :attr:`Distributor.verdicts`.

    The snapshot is only valid while the running set and its control
    state are unchanged: ``CoCGScheduler.admission_batch`` keeps one
    and drops it on every admission, release and control cycle, then
    begins a new one via :meth:`Distributor.begin_batch` on the next
    question.  Decisions are byte-identical to
    per-candidate :meth:`Distributor.can_admit` calls — the sequential
    path delegates here with a single-use batch.
    """

    def __init__(self, distributor: "Distributor", running: Sequence[RunningTaskView]):
        self._distributor = distributor
        self._running: List[RunningTaskView] = list(running)
        self._current: Optional[ResourceVector] = None
        self._worst: Optional[ResourceVector] = None
        self._decided: Dict[Tuple[Floats4, Floats4], AdmissionDecision] = {}

    # ------------------------------------------------------------------
    @effects(hot_path=True)
    def _current_sum(self) -> ResourceVector:
        """Lines 3-9: the running tasks' summed current consumption.

        Loading tasks count at their compressible (time-stealable)
        footprint when the view provides one.
        """
        if self._current is None:
            current = [0.0, 0.0, 0.0, 0.0]
            for task in self._running:
                min_alloc = getattr(task, "min_allocation", None)
                alloc = min_alloc() if callable(min_alloc) else task.current_allocation
                current = [c + a for c, a in zip(current, alloc.values)]
            self._current = _wrap(tuple(current))
        return self._current

    @effects(hot_path=True)
    def _worst_coconsumption(self) -> ResourceVector:
        """Lines 10-25: the max predicted co-consumption ``M``.

        Computed once per batch; each task's rollout is a single
        ``predicted_peaks(horizon)`` call shared by every candidate.  The
        per-step sums (from ``+0.0``, in task order) and the running
        element-wise max are the vector algebra on plain floats.
        """
        if self._worst is None:
            horizon = self._distributor.horizon
            per_task_peaks: List[List[ResourceVector]] = [
                task.predicted_peaks(horizon) for task in self._running
            ]
            worst = [0.0, 0.0, 0.0, 0.0]
            for step in range(horizon):
                total = [0.0, 0.0, 0.0, 0.0]
                for peaks in per_task_peaks:
                    if peaks:
                        peak = peaks[min(step, len(peaks) - 1)].values
                        total = [t + p for t, p in zip(total, peak)]
                worst = [w if w > t else t for w, t in zip(worst, total)]
            self._worst = _wrap(tuple(worst))
        return self._worst

    # ------------------------------------------------------------------
    @effects(hot_path=True)
    def evaluate(
        self,
        entry_consumption: ResourceVector,
        steady_peak: ResourceVector,
    ) -> AdmissionDecision:
        """Algorithm 1 for one candidate against the shared snapshot."""
        key = (entry_consumption.values, steady_peak.values)
        decision = self._decided.get(key)
        if decision is None:
            decision = self._decided[key] = self._decide(entry_consumption, steady_peak)
        self._distributor.verdicts[decision.admitted] += 1
        return decision

    @effects(hot_path=True)
    def _decide(
        self,
        entry_consumption: ResourceVector,
        steady_peak: ResourceVector,
    ) -> AdmissionDecision:
        d = self._distributor
        current = self._current_sum()
        if not (current + entry_consumption).fits_within(d.capacity):
            return AdmissionDecision(
                False,
                "current co-consumption leaves no room even to boot",
                predicted_peak=current + entry_consumption,
            )

        if not self._running:
            ok = steady_peak.fits_within(d.peak_limit)
            return AdmissionDecision(
                ok,
                "empty server" if ok else "game exceeds server capacity alone",
                predicted_peak=steady_peak,
            )

        predicted = self._worst_coconsumption() + steady_peak
        if predicted.fits_within(d.peak_limit):
            return AdmissionDecision(
                True, "predicted co-consumption fits", predicted_peak=predicted
            )
        return AdmissionDecision(
            False,
            "predicted stage peaks collide beyond tolerance",
            predicted_peak=predicted,
        )


class Distributor:
    """Algorithm-1 admission control.

    Parameters
    ----------
    capacity:
        The scheduler's budget vector (capacity × utilisation cap).
    horizon:
        Prediction iterations ``N`` rolled forward per running task.
    overshoot_tolerance:
        Fractional overshoot of the *predicted* peak that is still
        admitted (§IV-D: players tolerate brief degradation; static
        policies use 0).
    """

    def __init__(
        self,
        capacity: ResourceVector,
        *,
        horizon: int = 3,
        overshoot_tolerance: float = 0.0,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if overshoot_tolerance < 0:
            raise ValueError(
                f"overshoot_tolerance must be >= 0, got {overshoot_tolerance}"
            )
        self.capacity = capacity
        self.horizon = int(horizon)
        self.overshoot_tolerance = float(overshoot_tolerance)
        #: What a predicted peak may reach: capacity × (1 + tolerance).
        self.peak_limit = capacity * (1.0 + self.overshoot_tolerance)
        #: Algorithm-1 verdicts so far, by outcome (``True`` = admit).
        self.verdicts: Dict[bool, int] = {True: 0, False: 0}
        #: Shared evaluation passes opened (:meth:`begin_batch`).
        self.batches = 0

    # ------------------------------------------------------------------
    @effects(hot_path=True)
    def can_admit(
        self,
        entry_consumption: ResourceVector,
        steady_peak: ResourceVector,
        running: Sequence[RunningTaskView],
    ) -> AdmissionDecision:
        """Algorithm 1.

        Parameters
        ----------
        entry_consumption:
            The newcomer's consumption when it starts (boot loading).
        steady_peak:
            The newcomer's typical execution-stage peak — used against
            the *predicted* co-consumption so a game is only admitted
            where it can actually play, not merely boot.
        running:
            Views of the tasks already on the server.
        """
        # A single-candidate batch: decisions are identical to the batch
        # path *by construction*, not by parallel maintenance.
        return self.begin_batch(running).evaluate(entry_consumption, steady_peak)

    # ------------------------------------------------------------------
    @effects(hot_path=True)
    def begin_batch(self, running: Sequence[RunningTaskView]) -> BatchEvaluation:
        """Open a shared evaluation pass over a fixed running set.

        The returned :class:`BatchEvaluation` answers many candidates
        with at most one ``predicted_peaks`` rollout per running task.
        Discard it as soon as the running set changes.
        """
        self.batches += 1
        return BatchEvaluation(self, running)
