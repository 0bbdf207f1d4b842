"""Fleet nodes and the cluster-level dispatcher.

A :class:`FleetNode` bundles everything one backend server needs: the
server model, its capped allocator, a scheduling strategy (CoCG or any
baseline), telemetry, and QoS tracking.  Nodes may sit on different
platforms — the §IV-D migration rule rescales each game profile once per
platform, keeping the trained predictors.

:class:`ClusterScheduler` is the front door: it receives launch requests
and routes each to a node.  Placement is final (cloud games cannot be
migrated, §I), so the dispatch policy is the only fleet-level decision:

* ``first-fit`` — first node whose admission test passes (fast, the
  OnLive-style policy the related work describes);
* ``best-fit`` — among admitting nodes, the one with the *least*
  headroom after placement (bin-packing pressure, consolidates load);
* ``round-robin`` — rotate the starting node (load spreading).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple


from repro.baselines.base import SchedulingStrategy
from repro.core.pipeline import GameProfile
from repro.games.session import GameSession
from repro.obs.naming import (
    CLUSTER_DISPATCH,
    CLUSTER_LIFECYCLE,
    CLUSTER_PUMP_ROUNDS,
    STREAM_CLUSTER,
    lifecycle_span,
)
from repro.obs.observer import Observer
from repro.platform_.allocator import Allocator
from repro.platform_.profile import PlatformProfile, REFERENCE_PLATFORM
from repro.platform_.qos import QoSTracker
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder
from repro.util.effects import shard_entry
from repro.util.rng import Seed, derive_seed
from repro.util.validation import check_in
from repro.workloads.requests import GameRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve imports cluster)
    from repro.serve.gateway import AdmissionGateway, AdmissionOutcome

__all__ = [
    "NodeHealth",
    "DeadLetter",
    "PendingRequest",
    "FleetNode",
    "ClusterScheduler",
    "dispatch_order",
]


class NodeHealth(Enum):
    """Dispatch-visible node lifecycle state.

    Only ``up`` admits new sessions.  ``warming`` is a provisioned
    standby that has not joined dispatch yet; ``draining`` and
    ``reclaim-notice`` keep their sessions but admit nothing (the latter
    is a spot node living out its reclamation notice window); ``down``
    has lost capacity and sessions alike.  The request-phase states
    (``requested``/``provisioning``) live in
    :class:`~repro.cluster.provisioner.Provisioner` — they precede the
    node object itself.
    """

    WARMING = "warming"
    UP = "up"
    DRAINING = "draining"
    RECLAIM_NOTICE = "reclaim-notice"
    DOWN = "down"


@dataclass(frozen=True)
class DeadLetter:
    """A request the cluster gave up on (with why and when).

    ``fault_index`` is the position of the originating fault in the
    replayed :class:`~repro.faults.plan.FaultPlan` (``scheduled()``
    order) when a fault displaced the request — ``None`` for organic
    dead letters (overflow, patience, retries without a fault cause).
    """

    request: GameRequest
    time: float
    attempts: int
    reason: str
    fault_index: Optional[int] = None


@dataclass
class PendingRequest:
    """A queued request with its retry state.

    ``attempts`` counts failed dispatch rounds; ``incarnation`` counts
    crash-requeues (it suffixes the session id so a restarted run never
    collides with its dead predecessor's telemetry); ``fault_index``
    remembers which fault displaced the request so a later dead letter
    stays attributable.
    """

    request: GameRequest
    attempts: int = 0
    incarnation: int = 0
    next_try: float = 0.0
    fault_index: Optional[int] = None


class FleetNode:
    """One backend server and its local control plane.

    Parameters
    ----------
    node_id:
        Unique node name.
    strategy:
        The node's scheduling strategy (each node owns its own instance).
    profiles:
        Reference-platform game profiles; rescaled to this node's
        platform automatically (§IV-D).
    platform:
        The node's hardware class.
    server:
        Optional explicit server model; default one-GPU node.
    utilization_cap:
        Allocator budget fraction.
    seed:
        Telemetry-noise seed.
    """

    def __init__(
        self,
        node_id: str,
        strategy: SchedulingStrategy,
        profiles: Dict[str, GameProfile],
        *,
        platform: PlatformProfile = REFERENCE_PLATFORM,
        server: Optional[Server] = None,
        utilization_cap: float = 0.95,
        seed: Seed = 0,
    ):
        self.node_id = str(node_id)
        self.platform = platform
        self.server = (
            server if server is not None else Server(node_id, gpus=[GPUDevice()])
        )
        self.allocator = Allocator(self.server, utilization_cap=utilization_cap)
        if platform is not REFERENCE_PLATFORM:
            profiles = {
                name: profile.rescaled(platform)
                for name, profile in sorted(profiles.items())
            }
        # Canonical key order: profile dicts arrive in caller-dependent
        # order, and every downstream scan (strategy attach, telemetry,
        # fault matching) must not inherit it.
        self.profiles = dict(sorted(profiles.items()))
        self.strategy = strategy
        self.strategy.attach(self.allocator, self.profiles)
        self.telemetry = TelemetryRecorder(seed=derive_seed(seed, "tel", node_id))
        self.qos = QoSTracker()
        self.sessions: Dict[str, GameSession] = {}
        self.requests: Dict[str, GameRequest] = {}
        self.completed: Dict[str, int] = {}
        self.health = NodeHealth.UP
        #: ``(t, session, stage, start, end)`` per completed stage, in
        #: completion order: ``start``/``end`` are session-elapsed
        #: seconds, ``t`` the simulation second it was observed at.
        self.stage_log: List[Tuple[int, str, str, int, int]] = []
        self.obs: Optional[Observer] = None
        self._c_lifecycle = None

    # ------------------------------------------------------------------
    def attach_observer(self, obs: Observer) -> None:
        """Wire this node's control plane into a shared observer.

        Forwards to the QoS tracker (degraded-seconds counter) and, when
        the strategy exposes a CoCG scheduler, to the scheduler
        (decision counters, control spans) and its distributor
        (Algorithm-1 counters).  Lifecycle transitions additionally land
        in ``cluster_lifecycle_transitions_total{state}``.
        """
        self.obs = obs
        self._c_lifecycle = obs.counter(
            CLUSTER_LIFECYCLE,
            "Node lifecycle transitions by resulting state.",
            ("state",),
        )
        self.qos.attach_observer(obs, node=self.node_id)
        sched = getattr(self.strategy, "scheduler", None)
        if sched is not None and hasattr(sched, "attach_observer"):
            sched.attach_observer(obs, node=self.node_id)
            distributor = getattr(sched, "distributor", None)
            if distributor is not None and hasattr(
                distributor, "attach_observer"
            ):
                distributor.attach_observer(obs)

    # ------------------------------------------------------------------
    def try_admit(
        self,
        request: GameRequest,
        *,
        time: float,
        seed: int,
        incarnation: int = 0,
    ) -> bool:
        """Instantiate the request's session *on this node's platform*
        and offer it to the local strategy.

        ``incarnation > 0`` marks a crash-requeued relaunch; it suffixes
        the session id so the restart never aliases the dead run's
        telemetry and QoS history.
        """
        run = f"r{request.request_id}" + (
            f".{incarnation}" if incarnation else ""
        )
        session = GameSession(
            request.spec,
            request.script,
            player=request.player,
            seed=seed,
            platform=self.platform,
            session_id=f"{request.spec.name}-{run}@{self.node_id}",
        )
        if self.strategy.try_admit(session, time=time):
            self.sessions[session.session_id] = session
            self.requests[session.session_id] = request
            return True
        return False

    def tick(self, t: int) -> None:
        """Advance every hosted session one second."""
        degraded = set(self.strategy.degraded_sessions())
        allocation_of = self.strategy.allocation_of
        record = self.telemetry.record
        record_second = self.qos.record_second
        for sid, session in list(self.sessions.items()):
            allocation = allocation_of(sid)
            tick = session.advance(allocation)
            record(t, sid, tick.demand, allocation)
            record_second(
                sid, tick.nominal_fps, tick.demand, allocation,
                frame_lock=tick.frame_lock,
            )
            if degraded and sid in degraded:
                self.qos.note_degraded(sid)
            if tick.stage_completed:
                # The session just appended (stage, start, end) to its
                # history.
                self.stage_log.append((t, sid, *session.history[-1]))
            if tick.finished:
                self.strategy.release(sid, time=t)
                self.completed[session.spec.name] = (
                    self.completed.get(session.spec.name, 0) + 1
                )
                del self.sessions[sid]
                self.requests.pop(sid, None)

    def control(self, t: float) -> None:
        """Run the node's periodic control loop."""
        self.strategy.control(t, self.telemetry)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def kill_matching(
        self,
        time: float,
        *,
        session: str = "*",
        limit: Optional[int] = None,
    ) -> List[Tuple[str, GameRequest]]:
        """Kill hosted sessions whose id starts with ``session``.

        Returns the ``(session_id, originating request)`` pairs, in
        admission order, so the cluster can requeue them.
        """
        killed: List[Tuple[str, GameRequest]] = []
        for sid in list(self.sessions):
            if session != "*" and not sid.startswith(session):
                continue
            if limit is not None and len(killed) >= limit:
                break
            self.strategy.release(sid, time=time)
            request = self.requests.pop(sid)
            del self.sessions[sid]
            killed.append((sid, request))
            self.telemetry.record_fault_event(time, "session-kill", sid)
        return killed

    def transition(
        self, health: NodeHealth, time: float, kind: str, detail: str = ""
    ) -> None:
        """The single lifecycle-transition point.

        Records the transition as a telemetry fault event (so it enters
        the fleet digest) and, when observed, counts it in
        ``cluster_lifecycle_transitions_total{state}``.
        """
        self.health = health
        self.telemetry.record_fault_event(time, kind, detail or self.node_id)
        if self._c_lifecycle is not None:
            self.obs.tick(time)
            self._c_lifecycle.labels(state=health.value).inc(time=time)

    def crash(self, time: float) -> List[Tuple[str, GameRequest]]:
        """Take the node ``down``; every hosted session dies."""
        self.health = NodeHealth.DOWN  # before the kill: no re-admission
        killed = self.kill_matching(time)
        self.transition(
            NodeHealth.DOWN, time, "node-crash",
            f"{self.node_id}: {len(killed)} sessions killed",
        )
        return killed

    def recover(self, time: float) -> None:
        """Bring the node back to ``up``."""
        self.transition(NodeHealth.UP, time, "node-recover")

    def drain(self, time: float) -> None:
        """Stop admitting; keep running sessions."""
        self.transition(NodeHealth.DRAINING, time, "node-drain")

    def warm(self, time: float) -> None:
        """Mark the node a pre-booted standby (no dispatch yet)."""
        self.transition(NodeHealth.WARMING, time, "node-warming")

    def promote(self, time: float) -> None:
        """Bring a warm standby into dispatch rotation."""
        self.transition(NodeHealth.UP, time, "node-up")

    def reclaim_notice(self, time: float, *, notice: float) -> None:
        """Start the spot-reclamation notice window.

        The node keeps running its sessions but admits nothing; after
        ``notice`` seconds the platform takes the capacity away
        (:meth:`ClusterScheduler.finish_reclaim`).
        """
        self.transition(
            NodeHealth.RECLAIM_NOTICE, time, "reclaim-notice",
            f"{self.node_id}: down in {notice:.0f}s",
        )

    # ------------------------------------------------------------------
    def headroom(self) -> float:
        """Relative slack of the tightest dimension (0 = full)."""
        return self.server.headroom_fraction()

    @property
    def n_running(self) -> int:
        """Sessions currently hosted on this node."""
        return len(self.sessions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetNode({self.node_id!r}, platform={self.platform.name!r}, "
            f"running={self.n_running})"
        )


def dispatch_order(
    nodes: Sequence[FleetNode],
    policy: str,
    *,
    rr_offset: int = 0,
) -> List[FleetNode]:
    """The single candidate-order/tie-break policy of the fleet.

    Both direct dispatch (:meth:`ClusterScheduler.dispatch`) and the
    serve-layer micro-batcher order candidates through this function, so
    the two paths always agree on where a request lands:

    * ``first-fit`` — healthy nodes in construction order;
    * ``best-fit`` — healthy nodes by ``(headroom, node id)``: fullest
      first, with the node id as a deterministic tie-break when two
      nodes report identical headroom;
    * ``round-robin`` — the healthy list rotated by ``rr_offset``.

    "Healthy" is exactly :attr:`NodeHealth.UP` — a ``warming`` standby,
    a ``draining`` node, a spot node under ``reclaim-notice`` and a
    ``down`` node are all non-candidates in every policy.
    """
    up = [n for n in nodes if n.health is NodeHealth.UP]
    if policy == "round-robin":
        if not up:
            return []
        k = rr_offset % len(up)
        return up[k:] + up[:k]
    if policy == "best-fit":
        # Try the fullest nodes first: consolidates games so empty
        # nodes stay empty (bin-packing pressure).
        return sorted(up, key=lambda n: (n.headroom(), n.node_id))
    return up  # first-fit


class ClusterScheduler:
    """The Fig-1 cloud-game scheduler: routes requests across nodes.

    Parameters
    ----------
    nodes:
        The fleet.
    policy:
        ``"first-fit"``, ``"best-fit"`` or ``"round-robin"``.
    max_retries:
        Dispatch rounds a queued request survives before it is
        dead-lettered.
    queue_limit:
        Bound on the retry queue; overflow dead-letters immediately.
    backoff_base / backoff_factor / backoff_cap:
        Exponential retry backoff: the ``k``-th failed attempt waits
        ``min(cap, base · factor^(k-1))`` seconds.
    """

    POLICIES = ("first-fit", "best-fit", "round-robin")

    def __init__(
        self,
        nodes: Sequence[FleetNode],
        *,
        policy: str = "first-fit",
        max_retries: int = 25,
        queue_limit: int = 512,
        backoff_base: float = 5.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 60.0,
    ):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {ids}")
        check_in("policy", policy, self.POLICIES)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if backoff_base < 0 or backoff_factor < 1 or backoff_cap < 0:
            raise ValueError(
                "backoff needs base >= 0, factor >= 1, cap >= 0; got "
                f"{backoff_base}, {backoff_factor}, {backoff_cap}"
            )
        self.nodes: List[FleetNode] = list(nodes)
        self.policy = policy
        self.max_retries = int(max_retries)
        self.queue_limit = int(queue_limit)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap = float(backoff_cap)
        self._rr = 0
        self._queue: List[PendingRequest] = []  # lint: disable=CG009 - bounded by queue_limit in submit()
        self.gateway: Optional["AdmissionGateway"] = None
        self.provisioner = None  # set by Provisioner.attach_cluster
        self._incarnations: Dict[int, int] = {}
        self.dead_letters: List[DeadLetter] = []
        self.dispatched = 0
        self.deferred = 0
        self.requeues = 0
        self.requeue_dupes = 0
        self.evictions = 0
        self.abandoned = 0
        self.reclaimed_nodes = 0
        #: Capacity the fleet is *supposed* to hold (UP nodes).  The
        #: backpressure coupling in the gateway compares the live UP
        #: count against this; a provisioner overrides it with its
        #: ``target_up``.
        self.capacity_target = len(self.nodes)
        self.obs: Optional[Observer] = None
        self._c_dispatched = None
        self._c_deferred = None
        self._c_pump_rounds = None

    # ------------------------------------------------------------------
    def attach_observer(self, obs: Observer) -> None:
        """Wire the fleet into a shared observer.

        Registers the cluster dispatch counters and forwards to every
        node (QoS, CoCG scheduler, distributor) and, when a gateway is
        already attached without its own observer, to the gateway.  The
        plain-int ``dispatched``/``deferred`` attributes stay
        authoritative; the registry mirrors them so ``metrics.prom``
        tells the same story.
        """
        self.obs = obs
        dispatch = obs.counter(
            CLUSTER_DISPATCH,
            "Fleet dispatch attempts by outcome.",
            ("outcome",),
        )
        self._c_dispatched = dispatch.labels(outcome="dispatched")
        self._c_deferred = dispatch.labels(outcome="deferred")
        self._c_pump_rounds = obs.counter(
            CLUSTER_PUMP_ROUNDS,
            "Retry-queue pump rounds (the non-gateway path).",
        )
        for node in self.nodes:
            node.attach_observer(obs)
        if self.gateway is not None and self.gateway.obs is None:
            self.gateway.attach_observer(obs)

    def note_dispatch(self, outcome: str, *, time: float) -> None:
        """Count one dispatch attempt (``dispatched`` or ``deferred``).

        The single accounting point for both dispatch paths — direct
        :meth:`dispatch` and the serve-layer micro-batcher — so the ints
        and the registry can never drift apart.
        """
        if outcome == "dispatched":
            self.dispatched += 1
            child = self._c_dispatched
        else:
            self.deferred += 1
            child = self._c_deferred
        if child is not None:
            child.inc(time=time)

    def attach_gateway(self, gateway: "AdmissionGateway") -> None:
        """Front this cluster with a serve-layer admission gateway.

        Once attached, :meth:`submit` and :meth:`pump` route through the
        gateway: requests land in its per-category bounded queues under
        token-bucket rate limiting, and overload is *shed* (an explicit
        outcome in gateway telemetry) instead of silently dead-lettered
        by the retry queue.  Detach by setting :attr:`gateway` to None.
        The cluster's observer, when attached, is forwarded to a gateway
        that has none of its own.
        """
        self.gateway = gateway
        if self.obs is not None and gateway.obs is None:
            gateway.attach_observer(self.obs)

    def add_node(self, node: FleetNode) -> None:
        """Grow the fleet by one node (a provisioned/warm standby).

        The node joins in whatever lifecycle state it carries — a
        ``warming`` standby is a non-candidate until promoted.  Does not
        move :attr:`capacity_target`; elasticity is about *reaching* the
        target, not inflating it.
        """
        if any(n.node_id == node.node_id for n in self.nodes):
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes.append(node)
        if self.obs is not None:
            node.attach_observer(self.obs)

    def node(self, node_id: str) -> FleetNode:
        """Look a node up by id.

        The error message lists every known node *with its lifecycle
        state* — sorted by id, and including the provisioner's in-flight
        request-phase entries (``requested``/``provisioning``), which
        precede the node object itself — so a miss during an elastic run
        shows at a glance whether the node was reclaimed, still booting,
        or never existed.
        """
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        states = {n.node_id: n.health.value for n in self.nodes}
        if self.provisioner is not None:
            for nid, state in self.provisioner.pending_states().items():
                states.setdefault(nid, state)
        known = ", ".join(
            f"{nid}={state}" for nid, state in sorted(states.items())
        )
        raise KeyError(f"no node {node_id!r}; known nodes: {{{known}}}")

    @shard_entry("region:fleet")
    def dispatch(
        self,
        request: GameRequest,
        *,
        time: float,
        seed: int,
        incarnation: int = 0,
    ) -> Optional[FleetNode]:
        """Place one request; returns the hosting node or ``None``.

        A ``None`` means every *healthy* node's admission test rejected
        the game right now — the request should be retried later.
        """
        order = self.candidate_order(request)
        for node in order:
            if node.try_admit(
                request, time=time, seed=seed, incarnation=incarnation
            ):
                self.note_dispatch("dispatched", time=time)
                return node
        self.note_dispatch("deferred", time=time)
        return None

    def candidate_order(self, request: GameRequest) -> List[FleetNode]:
        """Nodes to try for one request, via :func:`dispatch_order`.

        Round-robin advances the rotation cursor per call, so asking for
        an order *is* taking a dispatch turn (exactly what
        :meth:`dispatch` and the serve-layer batcher both do).
        """
        offset = self._rr
        if self.policy == "round-robin":
            self._rr += 1
        return dispatch_order(self.nodes, self.policy, rr_offset=offset)

    # ------------------------------------------------------------------
    # The retry queue
    # ------------------------------------------------------------------
    def backoff(self, attempts: int) -> float:
        """Retry delay after ``attempts`` failed dispatch rounds."""
        if attempts < 1:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempts - 1),
        )

    @shard_entry("region:fleet")
    def submit(
        self,
        request: GameRequest,
        *,
        time: float,
        incarnation: int = 0,
        fault_index: Optional[int] = None,
    ) -> bool:
        """Queue a request for dispatch; False = dead-lettered/shed.

        With a gateway attached the request goes through admission
        control instead: it is queued per category (True) or shed
        (False) according to the gateway's bounds.  ``fault_index``
        (retry-queue path) attributes any later dead letter to the
        fault that displaced the request.
        """
        if self.gateway is not None:
            outcome: "AdmissionOutcome" = self.gateway.offer(
                request, time=time, incarnation=incarnation
            )
            return outcome.accepted
        if len(self._queue) >= self.queue_limit:
            self.dead_letters.append(
                DeadLetter(
                    request, float(time), 0, "queue overflow",
                    fault_index=fault_index,
                )
            )
            return False
        self._queue.append(
            PendingRequest(
                request, incarnation=incarnation, next_try=float(time),
                fault_index=fault_index,
            )
        )
        return True

    @shard_entry("region:fleet")
    def pump(self, time: float, seed_for) -> List[GameRequest]:
        """One dispatch round over the due part of the retry queue.

        ``seed_for(request, incarnation)`` supplies the session seed.
        Returns the requests that started; the rest back off
        exponentially until ``max_retries``, then dead-letter.

        With a gateway attached the round is the gateway's instead:
        micro-batched dispatch over its rate-limited queues.
        """
        if self.gateway is not None:
            return self.gateway.pump(time, seed_for)
        if self.obs is not None:
            self.obs.tick(time)
            self._c_pump_rounds.inc(time=time)
            with self.obs.span("cluster.pump", time, stream=STREAM_CLUSTER) as s:
                started = self._pump_retry_queue(time, seed_for)
                s.args["started"] = len(started)
            return started
        return self._pump_retry_queue(time, seed_for)

    def _pump_retry_queue(self, time: float, seed_for) -> List[GameRequest]:
        started: List[GameRequest] = []
        remaining: List[PendingRequest] = []
        for entry in self._queue:
            if entry.next_try > time + 1e-9:
                remaining.append(entry)
                continue
            node = self.dispatch(
                entry.request,
                time=time,
                seed=seed_for(entry.request, entry.incarnation),
                incarnation=entry.incarnation,
            )
            if node is not None:
                started.append(entry.request)
                continue
            entry.attempts += 1
            if entry.attempts > self.max_retries:
                self.dead_letters.append(
                    DeadLetter(
                        entry.request, float(time), entry.attempts,
                        "retries exhausted", fault_index=entry.fault_index,
                    )
                )
            else:
                entry.next_try = time + self.backoff(entry.attempts)
                remaining.append(entry)
        self._queue = remaining
        return started

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (retry queue, or gateway queues)."""
        if self.gateway is not None:
            return self.gateway.depth + len(self._queue)
        return len(self._queue)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def _is_pending(self, request_id: int) -> bool:
        """Whether a request already waits in the retry queue/gateway."""
        if any(e.request.request_id == request_id for e in self._queue):
            return True
        return self.gateway is not None and self.gateway.has_pending(
            request_id
        )

    def _requeue(
        self,
        request: GameRequest,
        time: float,
        *,
        fault_index: Optional[int] = None,
    ) -> None:
        rid = request.request_id
        if self._is_pending(rid):
            # A drain/reclaim kill racing an active retry backoff must
            # not enqueue the same request twice; the averted duplicate
            # stays visible in the accounting.
            self.requeue_dupes += 1
            return
        self._incarnations[rid] = self._incarnations.get(rid, 0) + 1
        self.requeues += 1
        self.submit(
            request,
            time=time,
            incarnation=self._incarnations[rid],
            fault_index=fault_index,
        )

    def crash_node(
        self,
        node_id: str,
        time: float,
        *,
        requeue: bool = True,
        fault_index: Optional[int] = None,
    ) -> List[str]:
        """Kill a node; returns the displaced session ids.

        Displaced requests re-enter the retry queue (``requeue=True``)
        or vanish (players abandon — counted in :attr:`abandoned`).
        """
        node = self.node(node_id)
        if node.health is NodeHealth.DOWN:
            return []
        killed = node.crash(time)
        self.evictions += len(killed)
        if requeue:
            for _sid, request in killed:
                self._requeue(request, time, fault_index=fault_index)
        else:
            self.abandoned += len(killed)
        return [sid for sid, _ in killed]

    def recover_node(self, node_id: str, time: float) -> None:
        """Bring a node back into dispatch rotation."""
        self.node(node_id).recover(time)

    def drain_node(self, node_id: str, time: float) -> None:
        """Take a node out of dispatch rotation, keeping its sessions."""
        self.node(node_id).drain(time)

    def begin_reclaim(
        self,
        node_id: str,
        time: float,
        *,
        notice: float,
        fault_index: Optional[int] = None,
    ) -> bool:
        """Serve a spot-reclamation notice on a node.

        The node enters ``reclaim-notice``: it leaves dispatch rotation
        immediately but keeps running its sessions for the ``notice``
        window (sessions that finish in time simply complete).  Returns
        False when the node is already down/warming (nothing to
        reclaim).  :meth:`finish_reclaim` takes the capacity away.
        """
        node = self.node(node_id)
        if node.health in (NodeHealth.DOWN, NodeHealth.WARMING):
            return False
        node.reclaim_notice(time, notice=notice)
        if self.obs is not None:
            self.obs.record_span(
                lifecycle_span(node_id), time, time + notice,
                stream=STREAM_CLUSTER, state="reclaim-notice",
                fault_index=-1 if fault_index is None else fault_index,
            )
        return True

    def finish_reclaim(
        self,
        node_id: str,
        time: float,
        *,
        requeue: bool = True,
        fault_index: Optional[int] = None,
    ) -> List[str]:
        """Take a reclaimed node's capacity away (notice expired).

        Sessions still alive are *never silently lost*: each displaced
        request re-enters the bounded retry path (``requeue=True``) or
        is dead-lettered with the explicit reason ``"reclaim"`` —
        unlike a crash, a reclamation is an accountable platform
        decision, so an abandon outcome does not exist here.
        """
        node = self.node(node_id)
        if node.health is NodeHealth.DOWN:
            return []
        node.health = NodeHealth.DOWN  # no re-admission during the kill
        killed = node.kill_matching(time)
        node.transition(
            NodeHealth.DOWN, time, "node-reclaimed",
            f"{node.node_id}: {len(killed)} sessions displaced",
        )
        self.evictions += len(killed)
        self.reclaimed_nodes += 1
        for _sid, request in killed:
            if requeue:
                self._requeue(request, time, fault_index=fault_index)
            else:
                self.dead_letters.append(DeadLetter(
                    request, float(time), 0, "reclaim",
                    fault_index=fault_index,
                ))
        return [sid for sid, _ in killed]

    def kill_session(
        self,
        time: float,
        *,
        node: str = "*",
        session: str = "*",
        requeue: bool = True,
        fault_index: Optional[int] = None,
    ) -> Optional[str]:
        """Kill the first matching session fleet-wide (crash/abandon)."""
        for fleet_node in self.nodes:
            if node != "*" and fleet_node.node_id != node:
                continue
            killed = fleet_node.kill_matching(time, session=session, limit=1)
            if killed:
                sid, request = killed[0]
                self.evictions += 1
                if requeue:
                    self._requeue(request, time, fault_index=fault_index)
                else:
                    self.abandoned += 1
                return sid
        return None

    # ------------------------------------------------------------------
    def tick(self, t: int) -> None:
        """Advance every live node one second."""
        if self.obs is not None:
            self.obs.tick(t)
        for node in self.nodes:
            if node.health is not NodeHealth.DOWN:
                node.tick(t)

    def control(self, t: float) -> None:
        """Run every live node's control loop."""
        for node in self.nodes:
            if node.health is not NodeHealth.DOWN:
                node.control(t)

    @property
    def total_running(self) -> int:
        """Sessions currently hosted across the fleet."""
        return sum(node.n_running for node in self.nodes)

    @property
    def up_count(self) -> int:
        """Nodes currently in dispatch rotation (``up``)."""
        return sum(1 for n in self.nodes if n.health is NodeHealth.UP)

    @property
    def warm_count(self) -> int:
        """Pre-booted standbys (``warming``) waiting for promotion."""
        return sum(1 for n in self.nodes if n.health is NodeHealth.WARMING)

    def usable_fraction(self) -> float:
        """Live UP capacity relative to :attr:`capacity_target`.

        The gateway's backpressure coupling sheds earlier while this is
        below its configured floor and relaxes as soon as warm nodes
        land (promotion raises the UP count back toward the target).
        """
        if self.capacity_target <= 0:
            return 1.0
        return self.up_count / self.capacity_target

    def session_accounting(self) -> Dict[str, int]:
        """The robustness ledger: where every admitted session went.

        Two identities must hold at any quiescent point (and are
        asserted by tests/CI under reclamation storms):

        * ``dispatched == completed + running + evicted`` — every
          admission is either done, still hosted, or displaced;
        * ``evicted == requeued + abandoned + reclaim_dead_letters +
          requeue_dupes`` — every displacement is accounted for.
        """
        return {
            "dispatched": self.dispatched,
            "completed": sum(self.completed_runs().values()),
            "running": self.total_running,
            "evicted": self.evictions,
            "requeued": self.requeues,
            "abandoned": self.abandoned,
            "reclaim_dead_letters": sum(
                1 for d in self.dead_letters if d.reason == "reclaim"
            ),
            "requeue_dupes": self.requeue_dupes,
        }

    def unaccounted_sessions(self) -> int:
        """How far the :meth:`session_accounting` ledger is off (0 = sound)."""
        a = self.session_accounting()
        placement = a["dispatched"] - (
            a["completed"] + a["running"] + a["evicted"]
        )
        displacement = a["evicted"] - (
            a["requeued"] + a["abandoned"] + a["reclaim_dead_letters"]
            + a["requeue_dupes"]
        )
        return abs(placement) + abs(displacement)

    def completed_runs(self) -> Dict[str, int]:
        """Fleet-wide completed runs per game."""
        out: Dict[str, int] = {}
        for node in self.nodes:
            for game, n in sorted(node.completed.items()):
                out[game] = out.get(game, 0) + n
        return out
