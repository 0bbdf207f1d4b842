"""Deterministic VM lifecycle: provisioning, warm pools, spot reclaim.

The paper's evaluation assumes a fixed fleet; ROADMAP item 1 makes
capacity itself dynamic.  :class:`Provisioner` owns the full node
lifecycle as simulation-engine events::

    REQUESTED → PROVISIONING → WARMING → UP → DRAINING/RECLAIM_NOTICE → DOWN

* **Seeded provision latency** — each request's boot time is drawn from
  a per-request stream (``derive_seed(seed, "prov", node_id, attempt)``),
  so the same seed provisions the same capacity at the same instants.
* **Warm pool** — ``warm_pool_size`` standby :class:`FleetNode`\\ s are
  pre-booted at attach time and kept ``warming`` (non-candidates for
  dispatch); when the UP count falls below ``target_up`` the maintenance
  loop promotes a standby instead of waiting out a cold boot.
* **Failures, retries, timeouts** — a provision attempt inside an
  injected failure window retries with capped exponential backoff up to
  ``max_retries``; a request that cannot become ready within
  ``timeout`` seconds of being requested is timed out.  Every terminal
  outcome is an explicit counter and lifecycle event — capacity is
  never silently lost any more than sessions are.
* **Spot reclamation** — :meth:`reclaim` serves a notice window during
  which the node leaves dispatch rotation but keeps its sessions
  (:meth:`ClusterScheduler.begin_reclaim`); at expiry the capacity is
  taken away and every surviving session is requeued through the
  bounded-retry path or dead-lettered with the explicit ``"reclaim"``
  reason (:meth:`ClusterScheduler.finish_reclaim`).

Every lifecycle event lands in :attr:`events` and is hashed by
:meth:`digest`, which :class:`~repro.cluster.experiment.FleetExperiment`
folds into the fleet digest — same seed + same fault plan ⇒
byte-identical capacity history.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.fleet import ClusterScheduler, FleetNode, NodeHealth
from repro.sim.engine import SimulationEngine
from repro.util.rng import Seed, as_rng, derive_seed
from repro.util.validation import check_nonnegative

__all__ = [
    "LIFECYCLE_PRIORITY",
    "ProvisionerConfig",
    "LifecycleEvent",
    "Provisioner",
]

#: Engine priority of lifecycle events — after fault events (−100),
#: before same-second request submission (−30), control, dispatch and
#: tick, so capacity changes are visible to everything else at that
#: second.
LIFECYCLE_PRIORITY = -50


@dataclass(frozen=True)
class ProvisionerConfig:
    """Provisioner tuning.

    Parameters
    ----------
    warm_pool_size:
        Ready standbys the maintenance loop keeps pre-booted beyond the
        UP target (0 = cold boots only).
    target_up:
        UP nodes the provisioner maintains; ``None`` = the cluster's UP
        count when the provisioner attaches.
    latency_base / latency_jitter:
        Provision latency is ``base + Exponential(jitter)`` seconds,
        drawn from the request's own seeded stream (``jitter=0`` makes
        boots take exactly ``base`` seconds).
    warming_seconds:
        Time a freshly provisioned node spends booting game images
        before it is a promotable standby.
    max_retries:
        Provision attempts beyond the first that a request survives.
    retry_base / retry_factor / retry_cap:
        Exponential backoff between failed attempts:
        ``min(cap, base · factor^(k−1))``.
    timeout:
        Seconds after which an unfinished request is abandoned
        (``timed_out``), whatever its retry budget says.
    check_interval:
        Maintenance-loop period (promotion + refill decisions).
    max_pending:
        Bound on in-flight provision requests; excess demand is
        explicitly ``rejected`` (counted), never queued silently.
    node_prefix:
        Ids of provisioned nodes: ``<prefix><index>``.
    """

    warm_pool_size: int = 1
    target_up: Optional[int] = None
    latency_base: float = 15.0
    latency_jitter: float = 10.0
    warming_seconds: float = 5.0
    max_retries: int = 3
    retry_base: float = 5.0
    retry_factor: float = 2.0
    retry_cap: float = 60.0
    timeout: float = 300.0
    check_interval: float = 5.0
    max_pending: int = 32
    node_prefix: str = "spot-"

    def __post_init__(self) -> None:
        if self.warm_pool_size < 0:
            raise ValueError(
                f"warm_pool_size must be >= 0, got {self.warm_pool_size}"
            )
        if self.target_up is not None and self.target_up < 0:
            raise ValueError(f"target_up must be >= 0, got {self.target_up}")
        check_nonnegative("latency_base", self.latency_base)
        check_nonnegative("latency_jitter", self.latency_jitter)
        check_nonnegative("warming_seconds", self.warming_seconds)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_base < 0 or self.retry_factor < 1 or self.retry_cap < 0:
            raise ValueError(
                "retry backoff needs base >= 0, factor >= 1, cap >= 0; got "
                f"{self.retry_base}, {self.retry_factor}, {self.retry_cap}"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.check_interval <= 0:
            raise ValueError(
                f"check_interval must be > 0, got {self.check_interval}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


@dataclass(frozen=True)
class LifecycleEvent:
    """One capacity-plane transition (hashed into the fleet digest)."""

    time: float
    node: str
    state: str  # requested/provisioning/retry/stalled/failed/timed-out/
    #            warming/warm/up/withdrawn/reclaim-notice/reclaimed/rejected
    detail: str = ""


@dataclass
class _ProvisionRequest:
    """In-flight boot: retry state plus the hard deadline."""

    node_id: str
    requested_at: float
    deadline: float
    attempts: int = 0


class Provisioner:
    """Owns the VM lifecycle for one cluster, on simulation time.

    Parameters
    ----------
    cluster:
        The fleet to grow/shrink.  The provisioner registers itself as
        ``cluster.provisioner`` and takes over ``capacity_target``.
    node_factory:
        ``node_factory(node_id) -> FleetNode`` — builds one backend
        node (strategy, profiles, platform, seed).  Called for warm-pool
        pre-boots and every successful provision.
    config:
        Latency/pool/retry tuning (:class:`ProvisionerConfig`).
    seed:
        Root of every provision-latency stream.
    """

    #: Lifecycle event state -> the counter it counts toward
    #: (``warming`` and ``reclaimed`` count toward none).
    COUNTED = {
        "requested": "requested",
        "warm": "provisioned",
        "retry": "retried",
        "stalled": "stalled",
        "failed": "failed",
        "timed-out": "timed_out",
        "rejected": "rejected",
        "up": "warm_promoted",
        "withdrawn": "withdrawn",
        "reclaim-notice": "reclaimed",
    }

    def __init__(
        self,
        cluster: ClusterScheduler,
        node_factory: Callable[[str], FleetNode],
        *,
        config: Optional[ProvisionerConfig] = None,
        seed: Seed = 0,
    ):
        self.cluster = cluster
        self.node_factory = node_factory
        self.config = config if config is not None else ProvisionerConfig()
        self._seed = seed if isinstance(seed, int) else 0
        self.engine: Optional[SimulationEngine] = None
        self.target_up = (
            self.config.target_up
            if self.config.target_up is not None
            else cluster.up_count
        )
        cluster.provisioner = self
        cluster.capacity_target = self.target_up
        self.events: List[LifecycleEvent] = []
        self._next_index = 0
        self._pending: List[_ProvisionRequest] = []
        self._ready: List[str] = []  # promotable standby node ids, FIFO
        self._fail_windows: List[Tuple[float, float]] = []
        self._stall_windows: List[Tuple[float, float, float]] = []
        self._exhaust_until = -math.inf

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _event(self, time: float, node: str, state: str, detail: str = "") -> None:
        self.events.append(LifecycleEvent(float(time), node, state, detail))

    @property
    def counts(self) -> Dict[str, int]:
        """Lifecycle counters, counted from :attr:`events`."""
        out = dict.fromkeys(self.COUNTED.values(), 0)
        for ev in self.events:
            if ev.state in self.COUNTED:
                out[self.COUNTED[ev.state]] += 1
        return out

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------
    def attach(self, engine: SimulationEngine) -> None:
        """Bind to the run's engine; call once, before the run starts.

        Pre-boots the warm pool at the engine's current time and starts
        the maintenance loop (promotion + refill every
        ``check_interval`` seconds, at :data:`LIFECYCLE_PRIORITY`).
        """
        if self.engine is not None:
            raise RuntimeError("provisioner is already attached")
        self.engine = engine
        now = engine.now
        for _ in range(self.config.warm_pool_size):
            self._boot_standby(now)
        engine.every(
            self.config.check_interval,
            self._maintain,
            priority=LIFECYCLE_PRIORITY,
            start_delay=0.0,
        )

    def _boot_standby(self, time: float) -> str:
        """Materialise one pre-booted standby (skips the boot latency)."""
        node_id = self._new_node_id()
        node = self.node_factory(node_id)
        node.warm(time)
        self.cluster.add_node(node)
        self._ready.append(node_id)
        self._event(time, node_id, "warm", "pre-booted standby")
        return node_id

    def _new_node_id(self) -> str:
        node_id = f"{self.config.node_prefix}{self._next_index}"
        self._next_index += 1
        return node_id

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def latency(self, node_id: str, attempt: int) -> float:
        """Boot time of one provision attempt: a pure function of the
        seed, the node id and the attempt number."""
        rng = as_rng(derive_seed(self._seed, "prov", node_id, str(attempt)))
        jitter = (
            float(rng.exponential(self.config.latency_jitter))
            if self.config.latency_jitter > 0
            else 0.0
        )
        return self.config.latency_base + jitter

    def request_node(self, time: float) -> Optional[str]:
        """Ask the platform for one new node; returns its id.

        Returns ``None`` (and counts a ``rejected`` event) when
        ``max_pending`` requests are already in flight — explicit
        backpressure, not a silent queue.
        """
        if self.engine is None:
            raise RuntimeError("provisioner is not attached to an engine")
        if len(self._pending) >= self.config.max_pending:
            self._event(time, "-", "rejected", "max_pending in flight")
            return None
        node_id = self._new_node_id()
        req = _ProvisionRequest(
            node_id,
            requested_at=float(time),
            deadline=float(time) + self.config.timeout,
        )
        self._pending.append(req)
        latency = self.latency(node_id, 0)
        self._event(time, node_id, "requested", f"eta {latency:.1f}s")
        self.engine.at(
            time + latency,
            lambda e, r=req: self._complete(e, r),
            priority=LIFECYCLE_PRIORITY,
        )
        return node_id

    def retry_backoff(self, attempts: int) -> float:
        """Delay before the next attempt after ``attempts`` failed ones."""
        return min(
            self.config.retry_cap,
            self.config.retry_base * self.config.retry_factor ** (attempts - 1),
        )

    def _in_fail_window(self, time: float) -> bool:
        return any(start <= time < end for start, end in self._fail_windows)

    def stall_at(self, time: float) -> float:
        """Stall an injected window imposes on a completion at ``time``."""
        for start, end, stall in self._stall_windows:
            if start <= time < end:
                return stall
        return 0.0

    def _complete(self, engine: SimulationEngine, req: _ProvisionRequest) -> None:
        now = engine.now
        if now > req.deadline + 1e-9:
            self._finish_request(req)
            self._event(now, req.node_id, "timed-out",
                        f"after {now - req.requested_at:.0f}s")
            return
        stall = self.stall_at(now)
        if stall > 0:
            self._event(now, req.node_id, "stalled", f"+{stall:.0f}s")
            engine.at(
                now + stall,
                lambda e, r=req: self._complete(e, r),
                priority=LIFECYCLE_PRIORITY,
            )
            return
        if self._in_fail_window(now):
            req.attempts += 1
            if req.attempts > self.config.max_retries:
                self._finish_request(req)
                self._event(now, req.node_id, "failed",
                            f"{req.attempts} attempts")
                return
            backoff = self.retry_backoff(req.attempts)
            latency = self.latency(req.node_id, req.attempts)
            self._event(now, req.node_id, "retry",
                        f"attempt {req.attempts}, backoff {backoff:.0f}s")
            engine.at(
                now + backoff + latency,
                lambda e, r=req: self._complete(e, r),
                priority=LIFECYCLE_PRIORITY,
            )
            return
        # Success: the VM exists; it warms before it is promotable.
        node = self.node_factory(req.node_id)
        node.warm(now)
        self.cluster.add_node(node)
        self._event(now, req.node_id, "warming",
                    f"ready in {self.config.warming_seconds:.0f}s")
        engine.at(
            now + self.config.warming_seconds,
            lambda e, r=req: self._warmed(e, r),
            priority=LIFECYCLE_PRIORITY,
        )

    def _warmed(self, engine: SimulationEngine, req: _ProvisionRequest) -> None:
        now = engine.now
        self._finish_request(req)
        self._ready.append(req.node_id)
        self._event(now, req.node_id, "warm",
                    f"boot took {now - req.requested_at:.1f}s")

    def _finish_request(self, req: _ProvisionRequest) -> None:
        self._pending = [r for r in self._pending if r is not req]

    # ------------------------------------------------------------------
    # Maintenance: promotion + refill
    # ------------------------------------------------------------------
    def _maintain(self, engine: SimulationEngine) -> None:
        now = engine.now
        # Promote ready standbys while the fleet is under target.
        while self.cluster.up_count < self.target_up and self._ready:
            node_id = self._ready.pop(0)
            self.cluster.node(node_id).promote(now)
            self._event(now, node_id, "up", "promoted from warm pool")
        # Refill: keep shortfall + warm-pool buffer covered by
        # ready-or-in-flight capacity (unless the pool is exhausted).
        if now < self._exhaust_until:
            return
        shortfall = max(0, self.target_up - self.cluster.up_count)
        want = shortfall + self.config.warm_pool_size
        have = len(self._ready) + len(self._pending)
        for _ in range(max(0, want - have)):
            if self.request_node(now) is None:
                break

    # ------------------------------------------------------------------
    # Fault surface (driven by the FaultInjector)
    # ------------------------------------------------------------------
    def inject_provision_fail(self, start: float, end: float) -> None:
        """Provision completions inside ``[start, end)`` fail (retry)."""
        self._fail_windows.append((float(start), float(end)))

    def inject_provision_stall(
        self, start: float, end: float, stall: float
    ) -> None:
        """Provision completions inside ``[start, end)`` stall ``stall`` s."""
        self._stall_windows.append((float(start), float(end), float(stall)))

    def exhaust_warm_pool(self, time: float, *, duration: float) -> int:
        """The platform takes every ready standby away for ``duration`` s.

        Models a capacity crunch: standbys are withdrawn (``down``, an
        explicit lifecycle event each) and refills are suppressed until
        ``time + duration``.  Returns the number withdrawn.
        """
        withdrawn = list(self._ready)
        self._ready.clear()
        for node_id in withdrawn:
            node = self.cluster.node(node_id)
            node.transition(
                NodeHealth.DOWN, time, "warm-pool-exhaust", node_id
            )
            self._event(time, node_id, "withdrawn", "warm pool exhausted")
        self._exhaust_until = max(self._exhaust_until, float(time) + duration)
        return len(withdrawn)

    def reclaim(
        self,
        node_id: str,
        time: float,
        *,
        notice: float,
        requeue: bool = True,
        fault_index: Optional[int] = None,
    ) -> bool:
        """Spot-reclaim one node: notice window, then graceful drain.

        Wraps :meth:`ClusterScheduler.begin_reclaim` /
        :meth:`~ClusterScheduler.finish_reclaim` with lifecycle events;
        the maintenance loop replaces the lost capacity (promoting a
        warm standby when one is ready).
        """
        if self.engine is None:
            raise RuntimeError("provisioner is not attached to an engine")
        if not self.cluster.begin_reclaim(
            node_id, time, notice=notice, fault_index=fault_index
        ):
            return False
        self._ready = [n for n in self._ready if n != node_id]
        self._event(time, node_id, "reclaim-notice", f"notice {notice:.0f}s")

        def finish(engine: SimulationEngine) -> None:
            killed = self.cluster.finish_reclaim(
                node_id, engine.now, requeue=requeue, fault_index=fault_index
            )
            self._event(
                engine.now, node_id, "reclaimed",
                f"{len(killed)} sessions displaced",
            )

        self.engine.at(time + notice, finish, priority=LIFECYCLE_PRIORITY)
        return True

    # ------------------------------------------------------------------
    def pending_states(self) -> Dict[str, str]:
        """Lifecycle state of every in-flight provision request.

        These node ids precede their :class:`FleetNode` objects (the
        request phase), so they never appear in the cluster's node list;
        :meth:`ClusterScheduler.node` merges them into its KeyError
        listing so a miss on a still-booting node is diagnosable.
        """
        return {req.node_id: "provisioning" for req in self._pending}

    @property
    def pending_count(self) -> int:
        """Provision requests currently in flight."""
        return len(self._pending)

    @property
    def ready_count(self) -> int:
        """Standbys warmed and promotable right now."""
        return len(self._ready)

    def stats(self) -> Dict[str, int]:
        """Lifecycle counters plus live pool state (benchmark artifact)."""
        out = dict(sorted(self.counts.items()))
        out["pending"] = self.pending_count
        out["ready"] = self.ready_count
        out["events"] = len(self.events)
        return out

    def digest(self) -> str:
        """SHA-256 over every lifecycle event (fleet-digest component)."""
        h = hashlib.sha256()
        for ev in self.events:
            h.update(
                f"{ev.time:.6f}|{ev.node}|{ev.state}|{ev.detail}\n".encode()
            )
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Provisioner(up={self.cluster.up_count}/{self.target_up}, "
            f"ready={self.ready_count}, pending={self.pending_count})"
        )
