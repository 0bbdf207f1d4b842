"""The measurement plane: what the scheduler can actually see.

The real system observes per-process CPU via cgroups and GPU counters
via GPU-Z — noisy, ceiling-clipped *usage*, never the game's latent
demand.  :class:`TelemetryRecorder` enforces that separation: the
simulation records (demand, allocation) pairs, and consumers read
noise-perturbed usage ``min(demand, allocation) + ε``.  Ground-truth
demand stays available for evaluation but is marked as such.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.platform_.resources import DIMENSIONS, N_DIMS, ResourceVector, _wrap
from repro.util.rng import Seed, as_rng
from repro.util.timeseries import ResourceSeries
from repro.util.validation import check_fraction, check_nonnegative

__all__ = [
    "FaultEvent",
    "GatewayEvent",
    "TelemetryPerturbation",
    "TelemetryRecorder",
]

#: Stored in place of a sample lost to a dropout fault.
_DROPPED_ROW = (math.nan,) * N_DIMS

#: Sensor-noise draws taken from the generator at a time (64 samples).
_NOISE_BLOCK = 64 * N_DIMS


@dataclass(frozen=True)
class FaultEvent:
    """One fault (or fault-handling) event, as seen by the data plane."""

    time: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class GatewayEvent:
    """One admission-gateway outcome (see :mod:`repro.serve.gateway`).

    ``outcome`` is the gateway's verdict (``admitted`` / ``queued`` /
    ``shed`` / ``dead-lettered``); ``category`` the request's game
    category; ``node`` the node an admitted request landed on (empty
    otherwise).  Gateway events are part of
    :meth:`TelemetryRecorder.digest` so shed/queue decisions are
    replay-checked exactly like usage; the digest hashes ``time``,
    ``outcome``, ``category`` and ``detail``, which already names the
    request and node.
    """

    time: float
    outcome: str
    category: str
    request_id: int
    detail: str = ""
    node: str = ""


class TelemetryPerturbation:
    """A windowed measurement fault applied to matching samples.

    Installed by :class:`~repro.faults.injector.FaultInjector`; carries
    its own seeded generator so the perturbed samples are a pure
    function of ``(plan seed, fault index, record order)``.

    Parameters
    ----------
    kind:
        ``"dropout"`` (samples vanish with probability ``rate``) or
        ``"noise"`` (extra Gaussian noise ``std`` plus optional spikes).
    start / end:
        Active window ``[start, end)`` in simulation seconds.
    session / node:
        Targeting: ``session`` is a session-id prefix, ``node`` matches
        the ``…@<node>`` suffix of cluster session ids; ``"*"`` = all.
    """

    def __init__(
        self,
        *,
        kind: str,
        start: float,
        end: float = math.inf,
        rate: float = 1.0,
        std: float = 0.0,
        spike_prob: float = 0.0,
        spike_scale: float = 25.0,
        session: str = "*",
        node: str = "*",
        seed: Seed = 0,
    ):
        if kind not in ("dropout", "noise"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        check_nonnegative("start", start)
        check_fraction("rate", rate)
        check_nonnegative("std", std)
        check_fraction("spike_prob", spike_prob)
        self.kind = kind
        self.start = float(start)
        self.end = float(end)
        self.rate = float(rate)
        self.std = float(std)
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)
        self.session = session
        self.node = node
        self._rng = as_rng(seed)
        self.hits = 0  # samples this perturbation actually touched

    def applies(self, time: float, session_id: str) -> bool:
        """Whether a sample at ``time`` for ``session_id`` is in scope."""
        if not (self.start <= time < self.end):
            return False
        if self.session != "*" and not session_id.startswith(self.session):
            return False
        if self.node != "*" and not session_id.endswith(f"@{self.node}"):
            return False
        return True

    def apply(self, observed: np.ndarray) -> Optional[np.ndarray]:
        """Perturb one in-scope sample; ``None`` = the sample is dropped."""
        if self.kind == "dropout":
            if self._rng.random() < self.rate:
                self.hits += 1
                return None
            return observed
        perturbed = observed
        if self.std > 0:
            perturbed = perturbed + self._rng.normal(
                scale=self.std, size=N_DIMS
            )
            self.hits += 1
        if self.spike_prob > 0 and self._rng.random() < self.spike_prob:
            dim = int(self._rng.integers(N_DIMS))
            spiked = perturbed.copy()
            spiked[dim] += self.spike_scale
            perturbed = spiked
            self.hits += 1
        return perturbed


class _Columns:
    """One session's telemetry columns: per second, one time and flag and
    4 floats each of demand, allocation and observed usage."""

    __slots__ = ("times", "valid", "demand", "allocation", "observed")

    def __init__(self) -> None:
        self.times = array("q")
        self.valid: List[bool] = []
        self.demand = array("d")
        self.allocation = array("d")
        self.observed = array("d")


def _matrix(column: array) -> np.ndarray:
    """A fresh ``(n, 4)`` copy of a flat float column (never a view: a
    view would pin the column's buffer and forbid further appends)."""
    return np.array(column).reshape(-1, N_DIMS)


def _usage(cols: _Columns) -> np.ndarray:
    """True usage rows: demand ∧ allocation (``np.minimum`` keeps the
    second operand on ties, like :meth:`ResourceVector.minimum`)."""
    return np.minimum(_matrix(cols.demand), _matrix(cols.allocation))


class TelemetryRecorder:
    """Accumulates per-session usage and serves it back as time series.

    Parameters
    ----------
    noise_std:
        Standard deviation (percentage points) of the additive sensor
        noise applied to *observed* usage.  Ground-truth series are not
        perturbed.
    seed:
        Noise stream seed.
    """

    def __init__(self, *, noise_std: float = 0.8, seed: Seed = 0):
        check_nonnegative("noise_std", noise_std)
        self.noise_std = float(noise_std)
        self._rng = as_rng(seed)
        #: The current block of scaled noise draws and the next unused one.
        self._noise: List[float] = []
        self._noise_at = 0
        self._columns: Dict[str, _Columns] = defaultdict(_Columns)
        self._perturbations: List[TelemetryPerturbation] = []
        self.fault_events: List[FaultEvent] = []
        self.gateway_events: List[GatewayEvent] = []
        self.dropped_samples = 0

    # ------------------------------------------------------------------
    def add_perturbation(self, perturbation: TelemetryPerturbation) -> None:
        """Install a measurement fault (see :class:`TelemetryPerturbation`)."""
        self._perturbations.append(perturbation)

    def record_fault_event(
        self, time: float, kind: str, detail: str = ""
    ) -> None:
        """Append one fault event to the run's fault log."""
        self.fault_events.append(FaultEvent(float(time), kind, detail))

    def record_gateway_event(
        self,
        time: float,
        outcome: str,
        category: str,
        detail: str = "",
        *,
        request_id: int,
        node: str = "",
    ) -> None:
        """Append one admission-gateway outcome to the run's log."""
        self.gateway_events.append(GatewayEvent(
            float(time), outcome, category, int(request_id), detail, node
        ))

    # ------------------------------------------------------------------
    def record(
        self,
        time: int,
        session_id: str,
        demand: ResourceVector,
        allocation: ResourceVector,
    ) -> ResourceVector:
        """Record one second; returns the *observed* (noisy) usage.

        Active perturbations apply in installation order; a dropped
        sample is stored as a NaN row (masked out of
        :meth:`observed_window`) and the clean observation is returned —
        the sensor failed, not the game.
        """
        cols = self._columns[session_id]
        d, a = demand.values, allocation.values
        cols.times.append(int(time))
        cols.demand.extend(d)
        cols.allocation.extend(a)
        # ``demand.minimum(allocation)``: on a tie numpy keeps the allocation.
        (d0, d1, d2, d3), (a0, a1, a2, a3) = d, a
        u0, u1, u2, u3 = (d0 if d0 < a0 else a0, d1 if d1 < a1 else a1,
                          d2 if d2 < a2 else a2, d3 if d3 < a3 else a3)
        noisy = self.noise_std > 0
        if noisy:
            # ``normal(scale=noise_std, size=4)`` per sample, bit for bit:
            # numpy forms each draw as ``0.0 + noise_std * z``.
            i = self._noise_at
            noise = self._noise
            if i == len(noise):
                z = self._rng.standard_normal(_NOISE_BLOCK)
                self._noise = noise = (0.0 + self.noise_std * z).tolist()
                i = 0
            self._noise_at = i + N_DIMS
            u0, u1, u2, u3 = (u0 + noise[i], u1 + noise[i + 1],
                              u2 + noise[i + 2], u3 + noise[i + 3])
        # ``.clip(0, 100)``; with noise the observation is the clipped
        # sum, without it the unclipped minimum.
        row = (100.0 if u0 > 100.0 else 0.0 if u0 < 0.0 else u0,
               100.0 if u1 > 100.0 else 0.0 if u1 < 0.0 else u1,
               100.0 if u2 > 100.0 else 0.0 if u2 < 0.0 else u2,
               100.0 if u3 > 100.0 else 0.0 if u3 < 0.0 else u3)
        observed = _wrap(row if noisy else (u0, u1, u2, u3))
        # Perturbations work on arrays; most samples meet none of them.
        perturbed: Optional[np.ndarray] = None
        valid = True
        for pert in self._perturbations:
            if not pert.applies(time, session_id):
                continue
            perturbed = pert.apply(observed.array if perturbed is None else perturbed)
            if perturbed is None:
                valid = False
                break
        if not valid:
            self.dropped_samples += 1
            row = _DROPPED_ROW
        elif perturbed is not None:
            row = np.clip(perturbed, 0.0, 100.0).tolist()
        cols.observed.extend(row)
        cols.valid.append(valid)
        return observed

    # ------------------------------------------------------------------
    @property
    def session_ids(self) -> List[str]:
        """Sessions with at least one recorded sample."""
        return list(self._columns)

    def _require(self, session_id: str) -> _Columns:
        cols = self._columns.get(session_id)
        if cols is None:
            raise KeyError(f"no telemetry for session {session_id!r}")
        return cols

    def _series(
        self, session_id: str, read: Callable[[_Columns], np.ndarray]
    ) -> ResourceSeries:
        cols = self._require(session_id)
        return ResourceSeries(
            read(cols), DIMENSIONS, period=1.0, start=float(cols.times[0])
        )

    def observed_series(self, session_id: str) -> ResourceSeries:
        """Noisy usage telemetry of one session (what the profiler sees).

        Samples lost to a dropout fault appear as NaN rows.
        """
        return self._series(session_id, lambda cols: _matrix(cols.observed))

    def observed_window(
        self, session_id: str, seconds: int
    ) -> Optional[np.ndarray]:
        """Mean observed usage over the last ``seconds`` samples.

        Returns ``None`` when fewer samples exist (a frame needs a full
        window) or when every sample in the window was dropped; samples
        lost to a dropout fault are masked out of the mean.  The kept
        rows are summed in row order from ``+0.0`` and divided once,
        which is ``np.mean(kept, axis=0)`` bit for bit.
        """
        if seconds < 1:
            raise ValueError(f"seconds must be >= 1, got {seconds}")
        cols = self._columns.get(session_id)
        if cols is None or len(cols.valid) < seconds:
            return None
        rows = cols.observed[-seconds * N_DIMS:]
        c = g = m = r = 0.0  # numpy's reduction starts at +0.0
        kept = 0
        for j, ok in enumerate(cols.valid[-seconds:]):
            if ok:
                j *= N_DIMS
                c += rows[j]
                g += rows[j + 1]
                m += rows[j + 2]
                r += rows[j + 3]
                kept += 1
        if not kept:
            return None
        return np.array([c / kept, g / kept, m / kept, r / kept])

    def valid_fraction(self, session_id: str) -> float:
        """Fraction of a session's samples that survived dropout."""
        flags = self._require(session_id).valid
        return float(sum(flags)) / len(flags)

    def true_demand_series(self, session_id: str) -> ResourceSeries:
        """Ground-truth demand (evaluation only — invisible in a real
        deployment)."""
        return self._series(session_id, lambda cols: _matrix(cols.demand))

    def true_usage_series(self, session_id: str) -> ResourceSeries:
        """Ground-truth clipped usage (demand ∧ allocation, no noise)."""
        return self._series(session_id, _usage)

    def allocation_series(self, session_id: str) -> ResourceSeries:
        """Granted ceilings over time (the Fig-10 'allocated' line)."""
        return self._series(session_id, lambda cols: _matrix(cols.allocation))

    # ------------------------------------------------------------------
    def total_usage_matrix(self, horizon: int) -> np.ndarray:
        """Server-wide true usage summed over sessions, shape ``(horizon, 4)``.

        Seconds with no running session contribute zero.
        """
        total = np.zeros((int(horizon), N_DIMS))
        times, rows = [], []
        for cols in self._columns.values():
            t = np.array(cols.times, dtype=np.int64)
            keep = (t >= 0) & (t < horizon)
            times.append(t[keep])
            rows.append(_usage(cols)[keep])
        if times:
            # ``add.at`` accumulates in row order: session by session,
            # each in time order, like a row-by-row loop.
            np.add.at(total, np.concatenate(times), np.concatenate(rows))
        return total

    def peak_total_usage(self, horizon: int) -> np.ndarray:
        """Per-dimension max of the summed usage (Fig-9's headline)."""
        return self.total_usage_matrix(horizon).max(axis=0)

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every observed sample, valid flag and fault event.

        Two runs with the same seeds and the same
        :class:`~repro.faults.plan.FaultPlan` must produce byte-identical
        digests — the replay property the chaos CI job asserts.  Dropped
        samples hash as a sentinel so dropout placement is covered too.
        """
        h = hashlib.sha256()
        for sid in sorted(self._columns):
            cols = self._columns[sid]
            h.update(sid.encode())
            h.update(np.array(cols.times, dtype=np.int64).tobytes())
            valid = np.asarray(cols.valid, dtype=np.bool_)
            h.update(valid.tobytes())
            rounded = np.round(_matrix(cols.observed), 6)
            if valid.all():
                # sha256 streams: the whole C-ordered matrix hashes as
                # its rows one after another.
                h.update(rounded.tobytes())
            else:
                for row, ok in zip(rounded, cols.valid):
                    h.update(row.tobytes() if ok else b"<dropped>")
        for ev in self.fault_events:
            h.update(f"{ev.time:.6f}|{ev.kind}|{ev.detail}\n".encode())
        # Gateway outcomes extend the digest without perturbing it for
        # runs that have none (the pre-serve digests stay valid).
        for gev in self.gateway_events:
            h.update(
                f"gw|{gev.time:.6f}|{gev.outcome}|{gev.category}|"
                f"{gev.detail}\n".encode()
            )
        return h.hexdigest()
