"""Server model: CPU/RAM host capacity plus discrete GPUs.

The paper's testbed is a 4-core i7 with two GTX-2080 GPUs; each game is
deployed on exactly one GPU (§IV-C: "each game is deployed on a single
GPU device rather than across multiple GPUs").  The server therefore
tracks host-wide CPU/RAM and per-GPU GPU/GPU-memory allocations
separately — co-location pressure on the CPU is global, on the GPU it is
per-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.platform_.resources import CPU, GPU, ResourceVector
from repro.util.validation import check_positive

__all__ = ["GPUDevice", "Placement", "Server", "CapacityError"]

#: Summed ceilings: cpu, ram, and ``[gpu, gpu_mem]`` per device.
Totals = Tuple[float, float, List[List[float]]]


class CapacityError(ValueError):
    """Raised when an operation would exceed server capacity."""


@dataclass
class GPUDevice:
    """One discrete GPU with its own core and memory capacity (percent)."""

    gpu_capacity: float = 100.0
    gpu_mem_capacity: float = 100.0
    name: str = "gpu"

    def __post_init__(self) -> None:
        check_positive("gpu_capacity", self.gpu_capacity)
        check_positive("gpu_mem_capacity", self.gpu_mem_capacity)


@dataclass
class Placement:
    """A session hosted on a server: which GPU it is pinned to and the
    cgroup-like ceiling currently granted to it."""

    session_id: str
    gpu_index: int
    allocation: ResourceVector


class Server:
    """A cloud-game backend server.

    Parameters
    ----------
    server_id:
        Unique name.
    cpu_capacity, ram_capacity:
        Host-wide capacities in percent (default 100).
    gpus:
        GPU devices; default two identical 100 %/100 % devices (matching
        the paper's dual-GTX-2080 host).

    Notes
    -----
    * Placement is *admission*: :meth:`place` reserves an allocation and
      raises :class:`CapacityError` when the reservation does not fit.
    * :meth:`set_allocation` retunes a hosted session's ceiling (what the
      scheduler does every 5-second control tick).
    * ``Server`` does not model *usage* — that is telemetry, produced by
      the simulation from sessions' demand and their ceilings.
    """

    def __init__(
        self,
        server_id: str,
        *,
        cpu_capacity: float = 100.0,
        ram_capacity: float = 100.0,
        gpus: Optional[Iterable[GPUDevice]] = None,
    ):
        check_positive("cpu_capacity", cpu_capacity)
        check_positive("ram_capacity", ram_capacity)
        self.server_id = str(server_id)
        self.cpu_capacity = float(cpu_capacity)
        self.ram_capacity = float(ram_capacity)
        self.gpus: List[GPUDevice] = list(gpus) if gpus is not None else [
            GPUDevice(name="gpu0"),
            GPUDevice(name="gpu1"),
        ]
        if not self.gpus:
            raise ValueError("a server needs at least one GPU")
        self._placements: Dict[str, Placement] = {}
        self._view: Mapping[str, Placement] = MappingProxyType(self._placements)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        """Number of GPU devices."""
        return len(self.gpus)

    @property
    def placements(self) -> Mapping[str, Placement]:
        """Read-only live view of hosted sessions (no copy)."""
        return self._view

    @property
    def session_ids(self) -> List[str]:
        """Hosted session ids."""
        return list(self._placements)

    def capacity_vector(self, gpu_index: int) -> ResourceVector:
        """Capacity as seen by a session pinned to ``gpu_index``."""
        gpu = self._gpu(gpu_index)
        return ResourceVector(
            cpu=self.cpu_capacity,
            gpu=gpu.gpu_capacity,
            gpu_mem=gpu.gpu_mem_capacity,
            ram=self.ram_capacity,
        )

    def _gpu(self, gpu_index: int) -> GPUDevice:
        if not (0 <= gpu_index < len(self.gpus)):
            raise IndexError(
                f"gpu_index {gpu_index} out of range for {len(self.gpus)} GPUs"
            )
        return self.gpus[gpu_index]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _totals(self) -> Totals:
        """Summed cpu and ram ceilings, and ``[gpu, gpu_mem]`` per device:
        one pass in placement order from 0, equal to ``sum()`` bit for bit."""
        cpu = ram = 0
        devices: List[List[float]] = [[0, 0] for _ in self.gpus]
        for p in self._placements.values():
            c, g, m, r = p.allocation.values
            cpu += c
            ram += r
            dev = devices[p.gpu_index]
            dev[0] += g
            dev[1] += m
        return cpu, ram, devices

    def allocated_host(self) -> np.ndarray:
        """Summed (cpu, ram) allocation over all sessions."""
        cpu, ram, _ = self._totals()
        return np.array([cpu, ram])

    def allocated_gpu(self, gpu_index: int) -> np.ndarray:
        """Summed (gpu, gpu_mem) allocation on one device."""
        self._gpu(gpu_index)
        return np.array(self._totals()[2][gpu_index])

    def available(self, gpu_index: int) -> ResourceVector:
        """Remaining capacity for a new session pinned to ``gpu_index``."""
        gpu = self._gpu(gpu_index)
        cpu, ram, devices = self._totals()
        dev_gpu, dev_mem = devices[gpu_index]
        return ResourceVector(
            cpu=self.cpu_capacity - cpu,
            gpu=gpu.gpu_capacity - dev_gpu,
            gpu_mem=gpu.gpu_mem_capacity - dev_mem,
            ram=self.ram_capacity - ram,
        )

    def headroom_fraction(self) -> float:
        """Smallest relative slack across host dims and all GPU dims."""
        cpu, ram, devices = self._totals()
        fracs = [1.0 - cpu / self.cpu_capacity, 1.0 - ram / self.ram_capacity]
        for gpu, (dev_gpu, dev_mem) in zip(self.gpus, devices):
            fracs.append(1.0 - dev_gpu / gpu.gpu_capacity)
            fracs.append(1.0 - dev_mem / gpu.gpu_mem_capacity)
        return float(min(fracs))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fits(self, allocation: ResourceVector, gpu_index: int) -> bool:
        """Whether a new allocation on ``gpu_index`` would fit."""
        return allocation.fits_within(self.available(gpu_index))

    def place(
        self, session_id: str, gpu_index: int, allocation: ResourceVector
    ) -> Placement:
        """Admit a session with an initial allocation.

        Raises
        ------
        CapacityError
            If the allocation does not fit on the host or the device.
        ValueError
            If the session is already placed or the allocation is negative.
        """
        if session_id in self._placements:
            raise ValueError(f"session {session_id!r} is already placed")
        if not allocation.is_nonnegative():
            raise ValueError(f"allocation must be non-negative, got {allocation}")
        if not self.fits(allocation, gpu_index):
            raise CapacityError(
                f"allocation {allocation} does not fit on {self.server_id}/gpu{gpu_index} "
                f"(available {self.available(gpu_index)})"
            )
        placement = Placement(session_id, int(gpu_index), allocation)
        self._placements[session_id] = placement
        return placement

    def set_allocation(self, session_id: str, allocation: ResourceVector) -> Totals:
        """Retune a hosted session's ceiling (cgroup update).

        The new allocation must keep the server within capacity.  Returns
        the :meth:`_totals` that check summed.
        """
        placement = self._require(session_id)
        if not allocation.is_nonnegative():
            raise ValueError(f"allocation must be non-negative, got {allocation}")
        old = placement.allocation
        placement.allocation = allocation
        totals = self._totals()
        if self._overcommitted(totals):
            placement.allocation = old
            raise CapacityError(
                f"allocation {allocation} for {session_id!r} exceeds capacity"
            )
        return totals

    def _overcommitted(self, totals: Totals) -> bool:
        """Whether ceilings summing to ``totals`` exceed the host or any device."""
        cpu, ram, devices = totals
        if cpu > self.cpu_capacity + 1e-9 or ram > self.ram_capacity + 1e-9:
            return True
        for g, (dev_gpu, dev_mem) in zip(self.gpus, devices):
            if dev_gpu > g.gpu_capacity + 1e-9 or dev_mem > g.gpu_mem_capacity + 1e-9:
                return True
        return False

    def remove(self, session_id: str) -> Placement:
        """Release a session's reservation."""
        placement = self._require(session_id)
        del self._placements[session_id]
        return placement

    def _require(self, session_id: str) -> Placement:
        try:
            return self._placements[session_id]
        except KeyError:
            raise KeyError(f"session {session_id!r} is not placed on {self.server_id}") from None

    def __repr__(self) -> str:
        return (
            f"Server({self.server_id!r}, sessions={len(self._placements)}, "
            f"gpus={len(self.gpus)})"
        )
