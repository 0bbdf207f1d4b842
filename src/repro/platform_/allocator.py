"""cgroup-like allocation front end with audit trail.

:class:`Allocator` wraps a :class:`~repro.platform_.server.Server` and is
the only object the schedulers mutate.  It adds:

* a *utilisation cap* — the scheduler-level budget (95 % in the paper's
  Fig 9) kept below the hard hardware capacity;
* an audit log of every grant/retune/release, which the benchmarks use
  to reconstruct allocation timelines;
* conservation checking (the property the tests assert: the sum of
  ceilings never exceeds the cap on any dimension at any time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.platform_.resources import Floats4, ResourceVector, _wrap
from repro.platform_.server import CapacityError, Placement, Server
from repro.util.validation import check_fraction

__all__ = ["AllocationError", "AllocationEvent", "Allocator"]


class AllocationError(RuntimeError):
    """An allocation request that cannot be honoured under the cap."""


@dataclass(frozen=True)
class AllocationEvent:
    """One entry of the audit trail."""

    time: float
    action: str  # "place" | "retune" | "release"
    session_id: str
    gpu_index: int
    allocation: ResourceVector


class Allocator:
    """Capped allocation manager over one server.

    Parameters
    ----------
    server:
        The managed server.
    utilization_cap:
        Fraction of hardware capacity the allocator will hand out
        (default 0.95, the paper's Fig-9 upper limit).
    """

    def __init__(self, server: Server, *, utilization_cap: float = 0.95):
        check_fraction("utilization_cap", utilization_cap, inclusive=False)
        self.server = server
        self.utilization_cap = float(utilization_cap)
        self.events: List[AllocationEvent] = []

    # ------------------------------------------------------------------
    def capped_capacity(self, gpu_index: int) -> ResourceVector:
        """Capacity × cap, as seen by a session on ``gpu_index``."""
        return self.server.capacity_vector(gpu_index) * self.utilization_cap

    def _budget(self, gpu_index: int, held: Optional[ResourceVector] = None) -> List[float]:
        """``(capacity × cap − used).clip(0)`` in floats, then ``(… + held).clip(0)``;
        ``used`` is ``c − (c − total)`` over the server's current totals."""
        cpu, ram, devices = self.server._totals()
        cap = self.utilization_cap
        out = [max(c * cap - (c - (c - t)), 0.0) for c, t in zip(
            self.server.capacity_vector(gpu_index).values, (cpu, *devices[gpu_index], ram))]
        return out if held is None else [max(x + h, 0.0) for x, h in zip(out, held.values)]

    def capped_available(self, gpu_index: int) -> ResourceVector:
        """Remaining budget under the cap for a new session on ``gpu_index``."""
        return _wrap(tuple(self._budget(gpu_index)))

    def can_place(self, allocation: ResourceVector, gpu_index: int) -> bool:
        """Admission test under the cap."""
        return allocation.fits_within(self.capped_available(gpu_index))

    # ------------------------------------------------------------------
    def place(
        self,
        session_id: str,
        allocation: ResourceVector,
        *,
        gpu_index: Optional[int] = None,
        time: float = 0.0,
    ) -> Placement:
        """Admit a session; picks the least-loaded GPU when none is given.

        Raises
        ------
        AllocationError
            When the allocation does not fit under the cap on any
            admissible GPU.
        """
        candidates = (
            [gpu_index] if gpu_index is not None else self.gpu_order()
        )
        for gi in candidates:
            if self.can_place(allocation, gi):
                placement = self.server.place(session_id, gi, allocation)
                self._audit(time, "place", placement, allocation)
                return placement
        raise AllocationError(
            f"cannot place {session_id!r} with {allocation} under "
            f"{self.utilization_cap:.0%} cap"
        )

    def retune(
        self, session_id: str, allocation: ResourceVector, *, time: float = 0.0
    ) -> None:
        """Change a hosted session's ceiling, enforcing the cap.

        Raises
        ------
        AllocationError
            When the new ceiling would push any dimension over the cap.
        """
        placement = self._placement(session_id)
        budget = _wrap(tuple(self._budget(placement.gpu_index, placement.allocation)))
        if not allocation.fits_within(budget):
            raise AllocationError(
                f"retune of {session_id!r} to {allocation} exceeds the "
                f"{self.utilization_cap:.0%} cap (budget {budget})"
            )
        try:
            self.server.set_allocation(session_id, allocation)
        except CapacityError as exc:  # pragma: no cover - cap < capacity
            raise AllocationError(str(exc)) from exc
        self._audit(time, "retune", placement, allocation)

    def retune_clamped(
        self, session_id: str, allocation: ResourceVector, *, time: float = 0.0
    ) -> ResourceVector:
        """Retune, clamping the request into the available budget.

        Returns the allocation actually granted.  This is what the
        regulator uses when it *shrinks* a session to resolve a spike —
        shrinking must never fail.  The one-grant :meth:`retune_all_clamped`.
        """
        self.retune_all_clamped([(session_id, allocation.values)], time=time)
        return self._placement(session_id).allocation

    def retune_all_clamped(self, grants: Iterable[Tuple[str, Floats4]], *,
                           time: float = 0.0) -> None:
        """Clamp and apply ``(session_id, ceiling)`` grants in order.  Each
        grant's budget (:meth:`_budget`, inline over capacities read once
        per call) reads the totals the previous grant's capacity check
        summed; a refused grant raises ``CapacityError`` rolled back, with
        the earlier grants kept."""
        server = self.server
        cap = self.utilization_cap
        cpu_cap, ram_cap = server.cpu_capacity, server.ram_capacity
        devices = [(g.gpu_capacity, g.gpu_mem_capacity) for g in server.gpus]
        totals = server._totals()
        for session_id, ceiling in grants:
            placement = self._placement(session_id)
            gi = placement.gpu_index
            gpu_cap, mem_cap = devices[gi]
            cpu, ram, used = totals
            gpu, mem = used[gi]
            h0, h1, h2, h3 = placement.allocation.values
            a0, a1, a2, a3 = ceiling
            b0 = max(max(cpu_cap * cap - (cpu_cap - (cpu_cap - cpu)), 0.0) + h0, 0.0)
            b1 = max(max(gpu_cap * cap - (gpu_cap - (gpu_cap - gpu)), 0.0) + h1, 0.0)
            b2 = max(max(mem_cap * cap - (mem_cap - (mem_cap - mem)), 0.0) + h2, 0.0)
            b3 = max(max(ram_cap * cap - (ram_cap - (ram_cap - ram)), 0.0) + h3, 0.0)
            granted = _wrap((max(a0 if a0 < b0 else b0, 0.0), max(a1 if a1 < b1 else b1, 0.0),
                             max(a2 if a2 < b2 else b2, 0.0), max(a3 if a3 < b3 else b3, 0.0)))
            totals = server.set_allocation(session_id, granted)
            self._audit(time, "retune", placement, granted)

    def release(self, session_id: str, *, time: float = 0.0) -> None:
        """Remove a session and free its reservation."""
        placement = self.server.remove(session_id)
        self._audit(time, "release", placement, ResourceVector.zeros())

    def _audit(
        self, time: float, action: str, placement: Placement, allocation: ResourceVector
    ) -> None:
        self.events.append(AllocationEvent(
            time, action, placement.session_id, placement.gpu_index, allocation
        ))

    # ------------------------------------------------------------------
    def gpu_order(self) -> List[int]:
        """GPUs by descending remaining core capacity."""
        slack = [
            (self.server.available(i).gpu, i) for i in range(self.server.n_gpus)
        ]
        slack.sort(reverse=True)
        return [i for _, i in slack]

    def allocation_of(self, session_id: str) -> ResourceVector:
        """Current ceiling of a hosted session."""
        return self._placement(session_id).allocation

    def _placement(self, session_id: str) -> Placement:
        placement = self.server.placements.get(session_id)
        if placement is None:
            raise KeyError(f"session {session_id!r} is not placed")
        return placement
