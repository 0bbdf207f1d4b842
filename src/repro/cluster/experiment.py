"""Fleet-scale experiment driver: Poisson arrivals over a cluster.

Open-loop requests arrive at the cluster scheduler; rejected requests
wait in its bounded retry queue with exponential backoff ("the selected
game will continuously run requests until the distributor passes") until
they start or dead-letter.

The run is driven by a :class:`~repro.sim.engine.SimulationEngine`, so a
:class:`~repro.faults.plan.FaultPlan` can be replayed into it: fault
events fire first at their scheduled second, then control, then
dispatch, then the per-second tick — the same observable ordering as the
original plain loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.fleet import ClusterScheduler, DeadLetter
from repro.cluster.provisioner import Provisioner
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.games.spec import GameSpec
from repro.obs.observer import Observer
from repro.sim.engine import SimulationEngine
from repro.util.effects import shard_entry, shard_merge_point
from repro.util.rng import Seed, derive_seed
from repro.workloads.metrics import throughput_eq2
from repro.workloads.requests import GameRequest, PoissonArrivals

__all__ = ["FleetResult", "FleetExperiment", "default_arrivals"]

# Same-second event ordering (lower = earlier): faults are visible to
# everything else at that second; control precedes dispatch precedes the
# tick, matching the original sequential loop.
_PRIO_SUBMIT = -30
_PRIO_CONTROL = -20
_PRIO_PUMP = -10
_PRIO_TICK = 10


def default_arrivals(
    specs: Sequence[GameSpec],
    *,
    rate_per_minute: float = 1.0,
    seed: Seed = 0,
    horizon: float = 3600.0,
    id_base: int = 0,
) -> PoissonArrivals:
    """The experiment's default open-loop arrival stream.

    This is the one place the ``"arrivals"`` seed namespace is minted,
    so both a plain :class:`FleetExperiment` and a
    :class:`repro.fleet.FleetOfFleets` region generating its own load
    draw from streams derived the same way (and the CG021 namespace
    stays single-owner).  ``id_base`` offsets request ids — regional
    generators pass disjoint bases so merged streams never collide.
    """
    return PoissonArrivals(
        specs,
        rate_per_minute=rate_per_minute,
        seed=derive_seed(seed, "arrivals"),
        horizon=float(horizon),
        id_base=id_base,
    )


@dataclass
class FleetResult:
    """Fleet-wide outcome of one run.

    Attributes
    ----------
    completed_runs:
        ``N_i`` per game, summed over nodes.
    throughput:
        Eq-2 over the fleet.
    per_node_completed:
        Completed runs per node.
    per_node_mean_gpu:
        Time-averaged GPU utilisation per node.
    fraction_of_best:
        Fleet-wide FPS / best-FPS, time-weighted.
    waiting:
        Requests still queued at the horizon.
    deferrals:
        Dispatch attempts that found no willing node.
    mean_wait_seconds:
        Mean time a *served* request waited between arrival and start.
    violation_fraction:
        Fleet-wide fraction of session-seconds below the QoS floor.
    degraded_seconds:
        Session-seconds spent under degraded (open-breaker) control.
    dead_letters:
        Requests the cluster gave up on.
    requeues / evictions:
        Crash-displaced requests requeued / sessions killed by faults.
    fault_events:
        Human-readable log of faults applied during the run.
    telemetry_digest:
        SHA-256 over every node's telemetry (plus the gateway's events
        and the provisioner's lifecycle log when attached) —
        byte-identical across replays of the same seeds and fault plan.
    session_accounting:
        The accountability ledger
        (:meth:`~repro.cluster.fleet.ClusterScheduler.session_accounting`).
    unaccounted_sessions:
        Ledger imbalance — the robustness contract requires 0 under any
        fault plan (every dispatched session ends completed, running,
        requeued, or accountably dead-lettered/abandoned).
    provisioner_stats:
        Lifecycle counters of the attached provisioner (empty without
        one).
    """

    completed_runs: Dict[str, int]
    throughput: float
    per_node_completed: Dict[str, Dict[str, int]]
    per_node_mean_gpu: Dict[str, float]
    fraction_of_best: float
    waiting: int
    deferrals: int
    mean_wait_seconds: float
    violation_fraction: float = 0.0
    degraded_seconds: int = 0
    dead_letters: List[DeadLetter] = field(default_factory=list)
    requeues: int = 0
    evictions: int = 0
    fault_events: List[str] = field(default_factory=list)
    telemetry_digest: str = ""
    session_accounting: Dict[str, int] = field(default_factory=dict)
    unaccounted_sessions: int = 0
    provisioner_stats: Dict[str, int] = field(default_factory=dict)


class FleetExperiment:
    """Poisson arrivals over a :class:`ClusterScheduler`.

    Parameters
    ----------
    cluster:
        The fleet (already built, strategies attached).
    specs:
        Game mix for the arrival process.
    horizon:
        Simulated seconds.
    rate_per_minute:
        Expected arrivals per minute.
    seed:
        Arrival/session randomness.
    detect_interval:
        Control/retry period.
    fault_plan:
        Optional fault schedule replayed into the run.
    provisioner:
        Optional :class:`~repro.cluster.provisioner.Provisioner`.  When
        given it is attached to the run's engine before faults are
        armed: the warm pool pre-boots at t=0, the maintenance loop
        promotes/refills on its own period, and its lifecycle digest is
        folded into :attr:`FleetResult.telemetry_digest`.
    obs:
        Optional :class:`~repro.obs.Observer` wired through the whole
        stack before the run starts: the cluster (dispatch counters,
        per-node scheduler spans, QoS, Algorithm-1 counters) and the
        fault injector (fault counters + windows).  Two runs with the
        same seed and plan produce byte-identical exports.
    arrivals:
        Optional pre-built arrival source (anything exposing a
        ``requests`` list of :class:`~repro.workloads.requests.GameRequest`).
        Default: open-loop :class:`PoissonArrivals` from the seed — a
        :class:`~repro.trace.replayer.ReplayedArrivals` or a corpus
        scenario's load generator drops in here.

    To record the run as a ``.cgtrace``, hand the finished experiment
    and its result to :meth:`repro.trace.TraceRecorder.finalize`.
    """

    def __init__(
        self,
        cluster: ClusterScheduler,
        specs: Sequence[GameSpec],
        *,
        horizon: int = 3600,
        rate_per_minute: float = 1.0,
        seed: Seed = 0,
        detect_interval: int = 5,
        fault_plan: Optional[FaultPlan] = None,
        provisioner: Optional["Provisioner"] = None,
        obs: Optional[Observer] = None,
        arrivals: Optional[object] = None,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if detect_interval < 1:
            raise ValueError(f"detect_interval must be >= 1, got {detect_interval}")
        self.cluster = cluster
        self.specs = list(specs)
        self.horizon = int(horizon)
        self.detect_interval = int(detect_interval)
        self.fault_plan = fault_plan
        self.provisioner = provisioner
        self.obs = obs
        if obs is not None:
            cluster.attach_observer(obs)
        self._base_seed = seed if isinstance(seed, int) or seed is None else 0
        if arrivals is not None:
            if not hasattr(arrivals, "requests"):
                raise TypeError(
                    "arrivals must expose a 'requests' list, got "
                    f"{type(arrivals).__name__}"
                )
            self.arrivals = arrivals
        else:
            self.arrivals = default_arrivals(
                self.specs,
                rate_per_minute=rate_per_minute,
                seed=self._base_seed,
                horizon=float(horizon),
            )

    # ------------------------------------------------------------------
    def _session_seed(self, request: GameRequest, incarnation: int) -> int:
        return derive_seed(
            self._base_seed, "s", str(request.request_id), str(incarnation)
        )

    @shard_entry("region:fleet")
    def run(self) -> FleetResult:
        """Execute the run and aggregate fleet-wide results."""
        engine = SimulationEngine()
        started_waits: List[float] = []
        if self.provisioner is not None:
            # Before faults arm: the injector resolves provisioner
            # fault kinds through cluster.provisioner.
            self.provisioner.attach(engine)
        injector: Optional[FaultInjector] = None
        if self.fault_plan is not None and len(self.fault_plan):
            injector = FaultInjector(
                self.fault_plan, self.cluster, engine, obs=self.obs
            )
            injector.arm()

        for request in self.arrivals.requests:
            t_sub = min(int(request.arrival), self.horizon - 1)

            # Named to stay out of the conventional run/pump/dispatch/
            # submit entry terminals: these closures execute *inside*
            # the stream FleetExperiment.run tops, they do not open one.
            def submit_arrival(engine, request=request):
                self.cluster.submit(request, time=engine.now)

            engine.at(float(t_sub), submit_arrival, priority=_PRIO_SUBMIT)

        def pump_queue(engine) -> None:
            for request in self.cluster.pump(engine.now, self._session_seed):
                started_waits.append(max(0.0, engine.now - request.arrival))

        for t in range(0, self.horizon, self.detect_interval):
            engine.at(float(t), pump_queue, priority=_PRIO_PUMP)
        for t in range(self.horizon):
            engine.at(float(t), lambda e, t=t: self.cluster.tick(t),
                      priority=_PRIO_TICK)
        for c in range(self.detect_interval, self.horizon + 1,
                       self.detect_interval):
            engine.at(float(c), lambda e: self.cluster.control(e.now),
                      priority=_PRIO_CONTROL)

        engine.run_until(float(self.horizon))
        return self._aggregate(started_waits, injector)

    # ------------------------------------------------------------------
    @shard_merge_point
    def _aggregate(
        self,
        started_waits: List[float],
        injector: Optional[FaultInjector],
    ) -> FleetResult:
        completed = self.cluster.completed_runs()
        durations = {spec.name: spec.expected_duration() for spec in self.specs}
        per_node_completed = {
            node.node_id: dict(node.completed) for node in self.cluster.nodes
        }
        per_node_mean_gpu = {}
        fob_num = 0.0
        fob_den = 0
        violation_num = 0
        degraded = 0
        digest = hashlib.sha256()
        for node in sorted(self.cluster.nodes, key=lambda n: n.node_id):
            total = node.telemetry.total_usage_matrix(self.horizon)
            per_node_mean_gpu[node.node_id] = float(total[:, 1].mean())
            for sid in node.qos.session_ids:
                report = node.qos.report(sid)
                fob_num += report.fraction_of_best * report.seconds
                fob_den += report.seconds
                violation_num += report.violation_seconds
            degraded += node.qos.total_degraded_seconds()
            digest.update(f"{node.node_id}:{node.telemetry.digest()}\n".encode())
        if self.cluster.gateway is not None:
            # Gateway verdicts (queued/shed/admitted/dead-lettered) are
            # replay-checked exactly like usage samples.
            digest.update(
                f"gateway:{self.cluster.gateway.telemetry.digest()}\n".encode()
            )
        if self.provisioner is not None:
            # Capacity history is part of the replay contract too.
            digest.update(
                f"provisioner:{self.provisioner.digest()}\n".encode()
            )
        fault_log = list(injector.applied) if injector is not None else []
        return FleetResult(
            completed_runs=completed,
            throughput=throughput_eq2(
                completed, {g: durations[g] for g in completed}
            ),
            per_node_completed=per_node_completed,
            per_node_mean_gpu=per_node_mean_gpu,
            fraction_of_best=fob_num / fob_den if fob_den else float("nan"),
            waiting=self.cluster.queue_depth,
            deferrals=self.cluster.deferred,
            mean_wait_seconds=(
                float(np.mean(started_waits)) if started_waits else 0.0
            ),
            violation_fraction=(
                violation_num / fob_den if fob_den else 0.0
            ),
            degraded_seconds=degraded,
            dead_letters=list(self.cluster.dead_letters),
            requeues=self.cluster.requeues,
            evictions=self.cluster.evictions,
            fault_events=fault_log,
            telemetry_digest=digest.hexdigest(),
            session_accounting=self.cluster.session_accounting(),
            unaccounted_sessions=self.cluster.unaccounted_sessions(),
            provisioner_stats=(
                self.provisioner.stats()
                if self.provisioner is not None
                else {}
            ),
        )
