"""Replays a :class:`~repro.faults.plan.FaultPlan` into a live fleet.

The injector is armed once against a :class:`ClusterScheduler` and a
:class:`SimulationEngine`; every fault becomes an engine event at
priority :data:`FAULT_PRIORITY` (more urgent than control/dispatch/tick,
so a crash at ``t`` is visible to everything else that runs at ``t``).
Telemetry perturbations are installed up front — their ``[start, end)``
window gates activation — with per-node streams derived from the plan
seed, so replaying the same plan perturbs byte-identical samples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.sim.engine import SimulationEngine
from repro.sim.telemetry import TelemetryPerturbation
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # import cycle: cluster.experiment imports this module
    from repro.cluster.fleet import ClusterScheduler, FleetNode
    from repro.core.predictor import StagePredictor

__all__ = ["FAULT_PRIORITY", "FaultInjector"]

#: Engine priority of fault events — fires before same-time control,
#: dispatch and tick events.
FAULT_PRIORITY = -100


class FaultInjector:
    """Schedules a plan's faults as simulation events.

    Parameters
    ----------
    plan:
        The declarative fault schedule.
    cluster:
        The fleet under attack.
    engine:
        The event loop driving the run.
    """

    def __init__(
        self,
        plan: FaultPlan,
        cluster: "ClusterScheduler",
        engine: SimulationEngine,
    ):
        self.plan = plan
        self.cluster = cluster
        self.engine = engine
        self.armed = False
        self.applied: List[str] = []
        #: ``(time, kind, end)`` per fired fault, in firing order:
        #: ``end`` closes the window the spec declares (a crash with
        #: ``recover_after``, a telemetry or provisioning window, a
        #: reclamation notice) and is ``None`` for an instant.
        self.fired: List[Tuple[float, str, Optional[float]]] = []

    # ------------------------------------------------------------------
    def _match_nodes(self, spec: FaultSpec) -> List["FleetNode"]:
        return [
            node for node in self.cluster.nodes
            if spec.matches_node(node.node_id)
        ]

    def _match_predictors(self, spec: FaultSpec) -> List["StagePredictor"]:
        found: List["StagePredictor"] = []
        for node in self._match_nodes(spec):
            for game, profile in sorted(node.profiles.items()):
                if not spec.matches_game(game):
                    continue
                for backend, predictor in sorted(profile.predictors.items()):
                    if spec.matches_backend(backend):
                        found.append(predictor)
        return found

    def _note(self, time: float, detail: str) -> None:
        self.applied.append(f"t={time:.0f}s {detail}")

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every fault; call once, before the run starts."""
        if self.armed:
            raise RuntimeError("injector is already armed")
        self.armed = True
        for index, spec in enumerate(self.plan.scheduled()):
            self._arm_one(index, spec)

    def _arm_one(self, index: int, spec: FaultSpec) -> None:
        kind = spec.kind
        if kind is FaultKind.NODE_CRASH:
            self._arm_node_crash(spec)
        elif kind is FaultKind.NODE_RECOVER:
            self._arm_node_transition(spec, "recover")
        elif kind is FaultKind.NODE_DRAIN:
            self._arm_node_transition(spec, "drain")
        elif kind is FaultKind.SESSION_KILL:
            self._arm_session_kill(spec)
        elif kind in (FaultKind.TELEMETRY_DROPOUT, FaultKind.TELEMETRY_NOISE):
            self._arm_telemetry(index, spec)
        elif kind is FaultKind.PREDICTOR_FAIL:
            self._arm_predictor(spec, failing=True)
            if spec.recover_after is not None:
                self._arm_predictor(
                    spec, failing=False, at=spec.time + spec.recover_after
                )
        elif kind is FaultKind.PREDICTOR_RECOVER:
            self._arm_predictor(spec, failing=False)
        elif kind in (FaultKind.PROVISION_FAIL, FaultKind.PROVISION_STALL):
            self._arm_provision_window(spec)
        elif kind is FaultKind.SPOT_RECLAIM:
            self._arm_spot_reclaim(index, spec)
        elif kind is FaultKind.WARM_POOL_EXHAUST:
            self._arm_warm_pool_exhaust(spec)
        else:  # pragma: no cover - the enum is closed
            raise ValueError(f"unhandled fault kind {kind!r}")

    # ------------------------------------------------------------------
    def _arm_node_crash(self, spec: FaultSpec) -> None:
        def fire(engine: SimulationEngine) -> None:
            self.fired.append((
                engine.now,
                "node_crash",
                None if spec.recover_after is None
                else engine.now + spec.recover_after,
            ))
            for node in self._match_nodes(spec):
                killed = self.cluster.crash_node(
                    node.node_id, engine.now, requeue=spec.requeue
                )
                self._note(
                    engine.now,
                    f"node-crash {node.node_id} "
                    f"({len(killed)} sessions killed, requeue={spec.requeue})",
                )

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)
        if spec.recover_after is not None:
            recovery = FaultSpec(
                FaultKind.NODE_RECOVER,
                spec.time + spec.recover_after,
                node=spec.node,
            )
            self._arm_node_transition(recovery, "recover")

    def _arm_node_transition(self, spec: FaultSpec, action: str) -> None:
        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, f"node_{action}", None))
            for node in self._match_nodes(spec):
                if action == "recover":
                    self.cluster.recover_node(node.node_id, engine.now)
                else:
                    self.cluster.drain_node(node.node_id, engine.now)
                self._note(engine.now, f"node-{action} {node.node_id}")

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_session_kill(self, spec: FaultSpec) -> None:
        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, "session_kill", None))
            sid = self.cluster.kill_session(
                engine.now,
                node=spec.node,
                session=spec.session,
                requeue=spec.requeue,
            )
            self._note(
                engine.now,
                f"session-kill {sid or '<no match>'} (requeue={spec.requeue})",
            )

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_telemetry(self, index: int, spec: FaultSpec) -> None:
        kind = (
            "dropout" if spec.kind is FaultKind.TELEMETRY_DROPOUT else "noise"
        )
        stream = self.plan.stream_seed(index, spec)
        targets = self._match_nodes(spec)
        for node in targets:
            node.telemetry.add_perturbation(TelemetryPerturbation(
                kind=kind,
                start=spec.time,
                end=spec.end,
                rate=spec.rate,
                std=spec.std,
                spike_prob=spec.spike_prob,
                spike_scale=spec.spike_scale,
                session=spec.session,
                seed=derive_seed(stream, node.node_id),
            ))

        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, f"telemetry_{kind}", spec.end))
            for node in targets:
                node.telemetry.record_fault_event(
                    engine.now, f"telemetry-{kind}",
                    f"until t={spec.end:.0f}s (rate={spec.rate}, std={spec.std})",
                )
            self._note(engine.now, f"telemetry-{kind} on {len(targets)} nodes")

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_provision_window(self, spec: FaultSpec) -> None:
        stalling = spec.kind is FaultKind.PROVISION_STALL
        kind = "provision_stall" if stalling else "provision_fail"

        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, kind, spec.end))
            provisioner = self.cluster.provisioner
            if provisioner is None:
                self._note(
                    engine.now,
                    f"{spec.kind.value} <no provisioner attached; no-op>",
                )
                return
            if stalling:
                provisioner.inject_provision_stall(
                    spec.time, spec.end, spec.stall
                )
                detail = f"stall +{spec.stall:.0f}s"
            else:
                provisioner.inject_provision_fail(spec.time, spec.end)
                detail = "attempts fail"
            self._note(
                engine.now,
                f"{spec.kind.value} until t={spec.end:.0f}s ({detail})",
            )

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_spot_reclaim(self, index: int, spec: FaultSpec) -> None:
        def fire(engine: SimulationEngine) -> None:
            self.fired.append(
                (engine.now, "spot_reclaim", engine.now + spec.notice)
            )
            for node in self._match_nodes(spec):
                provisioner = self.cluster.provisioner
                if provisioner is not None:
                    served = provisioner.reclaim(
                        node.node_id, engine.now, notice=spec.notice,
                        requeue=spec.requeue, fault_index=index,
                    )
                else:
                    served = self.cluster.begin_reclaim(
                        node.node_id, engine.now, notice=spec.notice,
                        fault_index=index,
                    )
                    if served:
                        engine.at(
                            engine.now + spec.notice,
                            lambda e, nid=node.node_id: (
                                self.cluster.finish_reclaim(
                                    nid, e.now, requeue=spec.requeue,
                                    fault_index=index,
                                )
                            ),
                            priority=FAULT_PRIORITY,
                        )
                self._note(
                    engine.now,
                    f"spot-reclaim {node.node_id} "
                    + (
                        f"(notice={spec.notice:.0f}s, requeue={spec.requeue})"
                        if served else "<not reclaimable>"
                    ),
                )

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_warm_pool_exhaust(self, spec: FaultSpec) -> None:
        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, "warm_pool_exhaust", spec.end))
            provisioner = self.cluster.provisioner
            if provisioner is None:
                self._note(
                    engine.now,
                    "warm-pool-exhaust <no provisioner attached; no-op>",
                )
                return
            taken = provisioner.exhaust_warm_pool(
                engine.now, duration=spec.duration
            )
            self._note(
                engine.now,
                f"warm-pool-exhaust ({taken} standbys withdrawn, "
                f"refills suppressed until t={spec.end:.0f}s)",
            )

        self.engine.at(spec.time, fire, priority=FAULT_PRIORITY)

    def _arm_predictor(
        self, spec: FaultSpec, *, failing: bool, at: Optional[float] = None
    ) -> None:
        when = spec.time if at is None else at
        action = "predictor-fail" if failing else "predictor-recover"

        def fire(engine: SimulationEngine) -> None:
            self.fired.append((engine.now, action.replace("-", "_"), None))
            hit = self._match_predictors(spec)
            for predictor in hit:
                predictor.inject_failure(failing)
            for node in self._match_nodes(spec):
                node.telemetry.record_fault_event(
                    engine.now, action,
                    f"game={spec.game} backend={spec.backend}",
                )
            self._note(engine.now, f"{action} ({len(hit)} backends)")

        self.engine.at(when, fire, priority=FAULT_PRIORITY)
