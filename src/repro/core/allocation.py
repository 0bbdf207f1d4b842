"""Stage-wise allocation planning.

Turns a predicted stage type into the cgroup ceiling to grant: the
type's observed peak demand, plus the Eq-1 redundancy margin scaled by
the predictor's accuracy, plus the streaming encoder's CPU overhead.
Loading stages get their own (CPU-heavy) plan, with a throttled variant
the regulator uses for time stealing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Optional

from repro.core.adjustment import redundancy_allocation
from repro.core.stages import StageLibrary, StageTypeId
from repro.platform_.resources import ResourceVector
from repro.util.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.streaming.encoder import EncoderModel

__all__ = ["AllocationPlanner"]


class AllocationPlanner:
    """Plans ceilings for one game.

    Parameters
    ----------
    library:
        The game's stage library.
    accuracy:
        Predictor accuracy ``P`` used in the Eq-1 margin.
    encoder:
        Optional streaming encoder whose CPU overhead is charged to the
        session (at the game's nominal streamed FPS).
    stream_fps:
        FPS assumed for the encoder overhead.
    headroom:
        Small multiplicative cushion on top of observed peaks (sensor
        noise guard).
    """

    def __init__(
        self,
        library: StageLibrary,
        *,
        accuracy: float = 0.9,
        encoder: Optional[EncoderModel] = None,
        stream_fps: float = 60.0,
        headroom: float = 0.03,
    ):
        check_fraction("accuracy", accuracy)
        check_fraction("headroom", headroom)
        self.library = library
        self.accuracy = float(accuracy)
        self.encoder = encoder
        self.stream_fps = float(stream_fps)
        self.headroom = float(headroom)
        #: Plans already computed, keyed by ``(type, redundancy)`` or by
        #: ``"loading"``, ``("throttled", fraction)`` and ``"peak"``.  Each
        #: plan is a pure function of the (frozen) library and the fields
        #: above; :meth:`set_accuracy` clears the table.
        self._plans: Dict[Hashable, ResourceVector] = {}

    def set_accuracy(self, accuracy: float) -> None:
        """Update ``P`` (after a model replacement or online estimate)."""
        check_fraction("accuracy", accuracy)
        self.accuracy = float(accuracy)
        self._plans.clear()

    # ------------------------------------------------------------------
    def _encoder_overhead(self) -> ResourceVector:
        if self.encoder is None:
            return ResourceVector.zeros()
        return ResourceVector(cpu=self.encoder.cpu_overhead(self.stream_fps))

    def for_execution(
        self, type_id: StageTypeId, *, redundancy: bool = True
    ) -> ResourceVector:
        """Ceiling for an execution stage of the given type."""
        key = (type_id, redundancy)
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        plan = self.library.peak_of(type_id) * (1.0 + self.headroom)
        if redundancy:
            plan = plan + redundancy_allocation(self.accuracy, self.library.max_peak())
        plan = (plan + self._encoder_overhead()).clip(0.0, 100.0)
        self._plans[key] = plan
        return plan

    def for_loading(self) -> ResourceVector:
        """Full-speed ceiling for a loading stage.

        The GPU component carries extra headroom (×1.3 + 2): a genuine
        loading screen renders almost nothing, so its GPU usage floats
        well below this ceiling — while a *started* execution stage pins
        it immediately.  That gap is the scheduler's loading-exit signal
        even when the new stage's demand is clipped.
        """
        cached = self._plans.get("loading")
        if cached is not None:
            return cached
        plan = self.library.peak_of(self.library.loading_type) * (1.0 + self.headroom)
        cpu, gpu, gpu_mem, ram = plan.values
        plan = ResourceVector(cpu=cpu, gpu=gpu * 1.3 + 2.0, gpu_mem=gpu_mem, ram=ram)
        plan = (plan + self._encoder_overhead()).clip(0.0, 100.0)
        self._plans["loading"] = plan
        return plan

    def throttled_loading(self, fraction: float) -> ResourceVector:
        """Time-stealing ceiling: loading CPU cut to ``fraction``.

        Loading progress is CPU-rate-bound, so granting ``fraction`` of
        the loading CPU stretches the stage by ``1/fraction`` — the
        §IV-C2 "extend loading time" lever.
        """
        check_fraction("fraction", fraction)
        key = ("throttled", fraction)
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        full = self.for_loading()
        plan = ResourceVector(
            cpu=full.cpu * max(fraction, 0.05),
            gpu=full.gpu,
            gpu_mem=full.gpu_mem,
            ram=full.ram,
        )
        self._plans[key] = plan
        return plan

    def peak_plan(self) -> ResourceVector:
        """Whole-game peak ceiling (what static baselines reserve)."""
        cached = self._plans.get("peak")
        if cached is not None:
            return cached
        plan = self.library.max_peak() * (1.0 + self.headroom)
        plan = (plan + self._encoder_overhead()).clip(0.0, 100.0)
        self._plans["peak"] = plan
        return plan
